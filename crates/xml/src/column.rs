//! Zero-copy column storage shared by in-memory builds and package loads.
//!
//! A loaded `.sxvpkg` package is one contiguous buffer (heap vector or
//! memory map). The per-node tables inside it — labels, parents, child
//! CSR links, structural-index ranks, per-role view parents — are
//! fixed-width little-endian `u32` arrays laid out 8-aligned, so on a
//! little-endian target they can be *viewed* in place as `&[u32]`
//! without decoding or copying. [`U32s`] and [`Str`] make that borrow
//! explicit: each column is either `Owned` (a shared slice or string,
//! the builder and parser path) or `Packed` (a range of a shared buffer,
//! the load path). Accessors return plain slices either way, so the rest of
//! the crate is agnostic to where a document's bytes live.
//!
//! Invariants are established at construction, not per access:
//! [`Bytes`] pins its owner alive via an `Arc` and records the raw
//! pointer once (the memory must never move — true of `Arc<Vec<u8>>`
//! and of memory maps); [`U32s::packed`] requires 4-byte alignment and
//! a multiple-of-4 length (and falls back to a decoded copy on
//! big-endian targets, where a cast would misread); [`Str::packed`]
//! validates UTF-8 once up front.

use crate::node::NodeId;
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A borrowed view of an immutable shared byte buffer.
///
/// Holds the owner (`Arc`) so the memory outlives every view, plus the
/// raw pointer/length of this view's range, captured once at
/// construction. Cloning is an `Arc` bump.
pub struct Bytes {
    /// Keeps the backing allocation alive; never read through directly.
    owner: Arc<dyn Any + Send + Sync>,
    ptr: *const u8,
    len: usize,
}

// SAFETY: the view is immutable, the backing memory is pinned by the
// `Arc` and never mutated (package buffers are write-once), so sharing
// raw pointer reads across threads is sound.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

impl Bytes {
    /// Wrap a whole shared buffer.
    ///
    /// The `AsRef<[u8]>` data must be stable for the owner's lifetime:
    /// true of `Vec<u8>` behind an `Arc` (the heap block never moves)
    /// and of memory-mapped regions.
    pub fn new<T: AsRef<[u8]> + Send + Sync + 'static>(owner: Arc<T>) -> Bytes {
        let slice = (*owner).as_ref();
        let (ptr, len) = (slice.as_ptr(), slice.len());
        Bytes { owner, ptr, len }
    }

    /// A sub-view of this view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (caller bugs, not data bugs:
    /// package section ranges are bounds-checked during section-table
    /// validation before any `Bytes` is built).
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len, "Bytes::slice out of bounds");
        Bytes {
            owner: Arc::clone(&self.owner),
            ptr: unsafe { self.ptr.add(range.start) },
            len: range.end - range.start,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len were captured from a live slice of the owner,
        // which the `Arc` keeps alive and unmoved.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        Bytes { owner: Arc::clone(&self.owner), ptr: self.ptr, len: self.len }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

/// A `u32` column: an owned slice or a zero-copy view of packed
/// little-endian words. Cloning is cheap on both paths (`Arc` bump).
#[derive(Clone)]
pub enum U32s {
    /// Built in memory (`DocumentBuilder::finish`, index and
    /// access-view builds, tests). An `Arc<[u32]>` rather than an
    /// `Arc<Vec<u32>>`, so that, as for `Packed`, the data pointer sits in
    /// the column itself: a scan does not reload it through the `Arc` on
    /// every access.
    Owned(Arc<[u32]>),
    /// Borrowed from a package buffer; 4-aligned, little-endian words.
    Packed(Bytes),
}

impl U32s {
    /// An owned column.
    pub fn from_vec(v: Vec<u32>) -> U32s {
        U32s::Owned(v.into())
    }

    /// An empty column.
    pub fn empty() -> U32s {
        U32s::Owned(Arc::new([]))
    }

    /// View packed little-endian words in place. Returns `None` when the
    /// byte length is not a multiple of 4 or the data is misaligned
    /// (section payloads are 8-aligned by the format, so misalignment
    /// means a malformed file, not a code path to optimise).
    ///
    /// On big-endian targets the words are decoded into an owned vector
    /// instead — the format is little-endian on disk.
    pub fn packed(bytes: Bytes) -> Option<U32s> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        #[cfg(target_endian = "little")]
        {
            if bytes.as_slice().as_ptr().align_offset(4) != 0 {
                return None;
            }
            Some(U32s::Packed(bytes))
        }
        #[cfg(target_endian = "big")]
        {
            let v: Vec<u32> = bytes
                .as_slice()
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Some(U32s::from_vec(v))
        }
    }

    /// The column as a word slice.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            U32s::Owned(v) => v,
            // SAFETY: `packed` guaranteed 4-byte alignment and a
            // multiple-of-4 length on this (little-endian) target, and
            // the bytes are pinned by the view's owner.
            U32s::Packed(b) => unsafe {
                std::slice::from_raw_parts(b.as_slice().as_ptr().cast::<u32>(), b.len() / 4)
            },
        }
    }

    /// The column reinterpreted as node ids (`NodeId` is a transparent
    /// `u32` wrapper).
    pub fn as_ids(&self) -> &[NodeId] {
        let words = self.as_slice();
        // SAFETY: `NodeId` is `#[repr(transparent)]` over `u32`.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<NodeId>(), words.len()) }
    }

    /// Mutable access for builders that fill a column in place before
    /// publishing it (e.g. the access-view recorder).
    ///
    /// # Panics
    /// Panics for packed columns and for owned columns whose `Arc` has
    /// been shared — builders own their columns exclusively, so either
    /// case is a caller bug, not a data condition.
    pub fn make_mut(&mut self) -> &mut [u32] {
        match self {
            U32s::Owned(v) => Arc::get_mut(v).expect("U32s::make_mut on a shared column"),
            U32s::Packed(_) => panic!("U32s::make_mut on a packed column"),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        match self {
            U32s::Owned(v) => v.len(),
            U32s::Packed(b) => b.len() / 4,
        }
    }

    /// True iff the column has no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for U32s {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self {
            U32s::Owned(_) => "owned",
            U32s::Packed(_) => "packed",
        };
        write!(f, "U32s({tag}, {} words)", self.len())
    }
}

impl Default for U32s {
    fn default() -> Self {
        U32s::empty()
    }
}

impl PartialEq for U32s {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A text column: an owned string or a zero-copy view of packed UTF-8.
#[derive(Clone)]
pub enum Str {
    /// Built in memory (an `Arc<str>`, for the reason `U32s::Owned` is
    /// an `Arc<[u32]>`).
    Owned(Arc<str>),
    /// Borrowed from a package buffer; validated UTF-8.
    Packed(Bytes),
}

impl Str {
    /// An owned text column.
    pub fn from_string(s: String) -> Str {
        Str::Owned(s.into())
    }

    /// An empty text column.
    pub fn empty() -> Str {
        Str::Owned(Arc::from(""))
    }

    /// View packed text in place, validating UTF-8 once here so
    /// [`Str::as_str`] can skip the check forever after.
    pub fn packed(bytes: Bytes) -> std::result::Result<Str, std::str::Utf8Error> {
        std::str::from_utf8(bytes.as_slice())?;
        Ok(Str::Packed(bytes))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match self {
            Str::Owned(s) => s,
            // SAFETY: validated as UTF-8 in `packed`, immutable since.
            Str::Packed(b) => unsafe { std::str::from_utf8_unchecked(b.as_slice()) },
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Str::Owned(s) => s.len(),
            Str::Packed(b) => b.len(),
        }
    }

    /// True iff the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self {
            Str::Owned(_) => "owned",
            Str::Packed(_) => "packed",
        };
        write!(f, "Str({tag}, {} bytes)", self.len())
    }
}

impl Default for Str {
    fn default() -> Self {
        Str::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip() {
        let col = U32s::from_vec(vec![1, 2, 3]);
        assert_eq!(col.as_slice(), &[1, 2, 3]);
        assert_eq!(col.as_ids().len(), 3);
        assert_eq!(col.len(), 3);
    }

    #[test]
    fn packed_views_le_words_in_place() {
        let mut raw = Vec::new();
        for w in [7u32, 8, u32::MAX] {
            raw.extend_from_slice(&w.to_le_bytes());
        }
        let bytes = Bytes::new(Arc::new(raw));
        let col = U32s::packed(bytes).expect("aligned");
        assert_eq!(col.as_slice(), &[7, 8, u32::MAX]);
    }

    #[test]
    fn packed_rejects_ragged_lengths() {
        let bytes = Bytes::new(Arc::new(vec![1u8, 2, 3]));
        assert!(U32s::packed(bytes).is_none());
    }

    #[test]
    fn bytes_subslice_and_clone_share_owner() {
        let bytes = Bytes::new(Arc::new((0u8..16).collect::<Vec<u8>>()));
        let sub = bytes.slice(4..8);
        assert_eq!(sub.as_slice(), &[4, 5, 6, 7]);
        let copy = sub.clone();
        drop(bytes);
        drop(sub);
        assert_eq!(copy.as_slice(), &[4, 5, 6, 7], "owner outlives original views");
    }

    #[test]
    fn str_validates_utf8_once() {
        let good = Bytes::new(Arc::new("héllo".as_bytes().to_vec()));
        assert_eq!(Str::packed(good).unwrap().as_str(), "héllo");
        let bad = Bytes::new(Arc::new(vec![0xffu8, 0xfe]));
        assert!(Str::packed(bad).is_err());
    }
}
