//! The `.sxvpkg` binary layout: header, section table, and the
//! fixed-width little-endian primitives shared by the writer and loader.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic [8] · version u32 · sections u32 · pad  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: per section (32 B)                            │
//! │   kind u32 · pad u32 · offset u64 · len u64 · checksum u64   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payload sections, each 8-byte aligned, zero-padded between   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Section payloads are flat arrays
//! (`u32`/`u64` words, UTF-8 blobs, or `Record`-encoded composites), so
//! loading is a single read plus bulk word decoding — no per-node
//! branching or allocation beyond the target arrays themselves.

use crate::error::{Error, Result};

/// First eight bytes of every package file.
pub const MAGIC: [u8; 8] = *b"SXVPKG00";

/// Format version this build writes and reads. Bump on any layout
/// change; readers refuse other versions cleanly (see `DESIGN.md` §15
/// for the compatibility policy).
pub const FORMAT_VERSION: u32 = 2;

/// Header size: magic + version + section count + reserved padding.
pub const HEADER_BYTES: usize = 24;

/// Bytes per section-table entry.
pub const TABLE_ENTRY_BYTES: usize = 32;

// --- section kinds ---
//
// The format stores every derived column *fat*: child CSR links, text
// node ids, the structural-index tables (subtree ends, depths, element
// and per-label occurrence lists), and the per-role view-children CSR
// all travel as their own sections, laid out exactly as the in-memory
// columns. Loading therefore performs no per-node derivation at all —
// each `u32` column section is *borrowed in place* from the (8-aligned,
// little-endian) package buffer, so cold start costs one read plus
// O(sections) checksums, not O(nodes) work. Post-order ranks are the
// one exception: they are determined by `post = subtree_end − depth`,
// so the index computes them on the fly and no section carries them.

/// Global counts: node count, root id, role count.
pub const SEC_META: u32 = 1;
/// The DTD source text (UTF-8).
pub const SEC_DTD_TEXT: u32 = 2;
/// The DTD root element-type name (UTF-8).
pub const SEC_ROOT_NAME: u32 = 3;
/// Document label symbol table (string table).
pub const SEC_LABELS: u32 = 4;
/// Per-node label id, `u32::MAX` for text nodes (`u32 × n`).
pub const SEC_NODE_LABELS: u32 = 5;
/// Per-node parent id, `u32::MAX` for the root (`u32 × n`).
pub const SEC_NODE_PARENTS: u32 = 6;
/// All text content concatenated in document order (UTF-8).
pub const SEC_TEXT_BLOB: u32 = 7;
/// Byte offsets into the text blob plus sentinel (`u32 × (t + 1)`),
/// in document order of the text nodes.
pub const SEC_TEXT_OFFSETS: u32 = 8;
/// Node id per attribute entry, ascending (`u32 × a`).
pub const SEC_ATTR_NODES: u32 = 9;
/// Attribute names (string table, one per entry).
pub const SEC_ATTR_NAMES: u32 = 10;
/// Attribute values (string table, one per entry).
pub const SEC_ATTR_VALUES: u32 = 11;
/// One per role: name, spec text, binds, and the AccessView arrays
/// (`Record`-encoded; repeated section kind, one instance per role).
pub const SEC_ROLE: u32 = 12;
/// Child CSR offsets (`u32 × (n + 1)`, monotone).
pub const SEC_CHILD_OFFSETS: u32 = 13;
/// Child CSR ids, grouped by parent (`u32 × (n − 1)`).
pub const SEC_CHILD_IDS: u32 = 14;
/// Ids of every text node, ascending (`u32 × t`). Shared by the
/// document's compact storage and the index's text-node list.
pub const SEC_TEXT_NODE_IDS: u32 = 15;
/// Index: largest node id in each node's subtree (`u32 × n`).
pub const SEC_IDX_SUBTREE_END: u32 = 16;
/// Index: per-node depth in edges (`u32 × n`).
pub const SEC_IDX_DEPTH: u32 = 17;
/// Index: every element node in document order (`u32 × e`).
pub const SEC_IDX_ELEMENTS: u32 = 18;
/// Index: occurrence-list CSR offsets (`u32 × (labels + 1)`).
pub const SEC_IDX_LABEL_OFFSETS: u32 = 19;
/// Index: occurrence-list CSR ids, grouped by label (`u32 × e`).
pub const SEC_IDX_LABEL_IDS: u32 = 20;

/// Human name for a section kind (error messages, `lint`-style output).
pub fn section_name(kind: u32) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_DTD_TEXT => "dtd text",
        SEC_ROOT_NAME => "root name",
        SEC_LABELS => "labels",
        SEC_NODE_LABELS => "node labels",
        SEC_NODE_PARENTS => "node parents",
        SEC_TEXT_BLOB => "text blob",
        SEC_TEXT_OFFSETS => "text offsets",
        SEC_ATTR_NODES => "attr nodes",
        SEC_ATTR_NAMES => "attr names",
        SEC_ATTR_VALUES => "attr values",
        SEC_ROLE => "role",
        SEC_CHILD_OFFSETS => "child offsets",
        SEC_CHILD_IDS => "child ids",
        SEC_TEXT_NODE_IDS => "text node ids",
        SEC_IDX_SUBTREE_END => "index subtree ends",
        SEC_IDX_DEPTH => "index depths",
        SEC_IDX_ELEMENTS => "index elements",
        SEC_IDX_LABEL_OFFSETS => "index label offsets",
        SEC_IDX_LABEL_IDS => "index label ids",
        _ => "unknown",
    }
}

/// 64-bit FNV-1a folded over 8-byte words, four independent lanes per
/// 32-byte block (with the length mixed in and a zero-padded tail), so
/// checksumming runs at memory bandwidth: the lanes break the serial
/// multiply dependency chain that caps single-lane FNV. Not
/// cryptographic — this guards against torn writes and bit rot, not
/// adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let len_mix = (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = [
        OFFSET ^ len_mix,
        OFFSET.rotate_left(17) ^ len_mix,
        OFFSET.rotate_left(34) ^ len_mix,
        OFFSET.rotate_left(51) ^ len_mix,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            *lane = (*lane ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    let tail = blocks.remainder();
    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
    }
    h
}

/// Round `n` up to the next multiple of 8 (section payload alignment).
pub fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// --- bulk array codecs ---

/// Bulk little-endian `u32` words → vec. On little-endian targets this
/// is a single `memcpy` into the pre-sized allocation; the element-wise
/// fallback only runs on big-endian hosts.
fn le_u32_words(bytes: &[u8]) -> Vec<u32> {
    debug_assert_eq!(bytes.len() % 4, 0);
    let n = bytes.len() / 4;
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0u32; n];
        // SAFETY: `out` owns `n * 4` writable bytes, `bytes` holds
        // exactly that many readable bytes, and the ranges are disjoint
        // (freshly allocated destination). u32 has no invalid bit
        // patterns, and on little-endian the byte order already matches.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 4);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
    }
}

/// Bulk little-endian `u64` words → vec (see [`le_u32_words`]).
fn le_u64_words(bytes: &[u8]) -> Vec<u64> {
    debug_assert_eq!(bytes.len() % 8, 0);
    let n = bytes.len() / 8;
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0u64; n];
        // SAFETY: same argument as `le_u32_words`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 8);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }
}

/// Decode a `u64` array section.
pub fn decode_u64s(bytes: &[u8], what: &str) -> Result<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(Error::Malformed(format!(
            "{what}: {} bytes is not a whole number of u64 words",
            bytes.len()
        )));
    }
    Ok(le_u64_words(bytes))
}

/// Encode a `u32` array as section bytes.
pub fn encode_u32s(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode a `u64` array as section bytes.
pub fn encode_u64s(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a UTF-8 section.
pub fn decode_str<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str> {
    std::str::from_utf8(bytes).map_err(|e| Error::Malformed(format!("{what}: invalid UTF-8: {e}")))
}

/// Encode a string table: `u64` count, `u64 × (count + 1)` byte
/// offsets, then the concatenated UTF-8 blob.
pub fn encode_string_table<S: AsRef<str>>(strings: &[S]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(strings.len() as u64).to_le_bytes());
    let mut off = 0u64;
    for s in strings {
        out.extend_from_slice(&off.to_le_bytes());
        off += s.as_ref().len() as u64;
    }
    out.extend_from_slice(&off.to_le_bytes());
    for s in strings {
        out.extend_from_slice(s.as_ref().as_bytes());
    }
    out
}

/// Decode a string table section.
pub fn decode_string_table(bytes: &[u8], what: &str) -> Result<Vec<String>> {
    let mut r = Reader::new(bytes, "string table");
    let count = r.u64()? as usize;
    let offsets = r.bytes(count.saturating_add(1).saturating_mul(8), "string offsets")?;
    let offsets = le_u64_words(offsets);
    let blob = r.rest();
    let blob = decode_str(blob, what)?;
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(Error::Malformed(format!("{what}: string offsets are not monotone")));
    }
    if offsets.last().copied().unwrap_or(0) as usize != blob.len() {
        return Err(Error::Malformed(format!(
            "{what}: string offsets end at {:?}, blob has {} bytes",
            offsets.last(),
            blob.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for w in offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        if !blob.is_char_boundary(lo) || !blob.is_char_boundary(hi) {
            return Err(Error::Malformed(format!("{what}: string offset splits a UTF-8 char")));
        }
        out.push(blob[lo..hi].to_string());
    }
    Ok(out)
}

// --- nested record codec (role sections) ---

/// Append-only builder for composite (`SEC_ROLE`) payloads: a sequence
/// of length-prefixed fields, each padded to 8 bytes so array fields
/// stay word-aligned within the record.
#[derive(Default)]
pub struct Record {
    buf: Vec<u8>,
}

impl Record {
    /// Start an empty record.
    pub fn new() -> Record {
        Record::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn pad8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Append one raw `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 field.
    pub fn str_field(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self.pad8();
    }

    /// Append a count-prefixed `u32` array field.
    pub fn u32_list(&mut self, vals: &[u32]) {
        self.u64(vals.len() as u64);
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.pad8();
    }

    /// Append a count-prefixed `u64` array field.
    pub fn u64_list(&mut self, vals: &[u64]) {
        self.u64(vals.len() as u64);
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked sequential reader over a section payload; every read
/// that would run off the end becomes [`Error::Truncated`] naming the
/// field, never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Read `buf` from the start; `what` names the structure in errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, what }
    }

    fn pad8(&mut self) {
        self.pos = align8(self.pos).min(self.buf.len());
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize, field: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            Error::Truncated {
                what: format!("{}: {field}", self.what),
                needed: n,
                available: self.buf.len() - self.pos,
            }
        })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 field (with its 8-byte padding).
    pub fn str_field(&mut self, field: &str) -> Result<&'a str> {
        let len = self.u64()? as usize;
        let bytes = self.bytes(len, field)?;
        self.pad8();
        decode_str(bytes, field)
    }

    /// Read a count-prefixed `u32` array field (with its padding).
    pub fn u32_list(&mut self, field: &str) -> Result<Vec<u32>> {
        let count = self.u64()? as usize;
        let bytes = self.bytes(count.saturating_mul(4), field)?;
        self.pad8();
        Ok(le_u32_words(bytes))
    }

    /// Read a count-prefixed `u32` array field, returning the byte range
    /// of its words within the reader's buffer instead of decoding —
    /// the zero-copy path views that range in place.
    pub fn u32_list_range(&mut self, field: &str) -> Result<std::ops::Range<usize>> {
        let count = self.u64()? as usize;
        let start = self.pos;
        self.bytes(count.saturating_mul(4), field)?;
        let end = self.pos;
        self.pad8();
        Ok(start..end)
    }

    /// Read a count-prefixed `u64` array field.
    pub fn u64_list(&mut self, field: &str) -> Result<Vec<u64>> {
        let count = self.u64()? as usize;
        let bytes = self.bytes(count.saturating_mul(8), field)?;
        Ok(le_u64_words(bytes))
    }

    /// Everything not yet consumed.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        assert_eq!(checksum(b"hello world"), checksum(b"hello world"));
        assert_ne!(checksum(b"hello world"), checksum(b"hello worlc"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"\0\0\0\0\0\0\0\0"), checksum(b"\0\0\0\0\0\0\0\0\0"));
        // Tail handling: differing bytes beyond the last full word count.
        assert_ne!(checksum(b"12345678A"), checksum(b"12345678B"));
    }

    #[test]
    fn string_table_roundtrip() {
        let strings = ["", "a", "héllo", "x"];
        let enc = encode_string_table(&strings);
        let dec = decode_string_table(&enc, "test").unwrap();
        assert_eq!(dec, strings);
        assert!(decode_string_table(&enc[..enc.len() - 1], "test").is_err());
        assert!(decode_string_table(&enc[..4], "test").is_err());
    }

    #[test]
    fn record_reader_roundtrip_and_truncation() {
        let mut rec = Record::new();
        rec.u64(7);
        rec.str_field("role-name");
        rec.u32_list(&[1, 2, 3]);
        rec.u64_list(&[u64::MAX]);
        let bytes = rec.into_bytes();
        let mut r = Reader::new(&bytes, "role");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.str_field("name").unwrap(), "role-name");
        assert_eq!(r.u32_list("list").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_list("words").unwrap(), vec![u64::MAX]);
        assert!(r.rest().is_empty());
        // Truncating anywhere yields Truncated, not a panic.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "role");
            let result = (|| -> Result<()> {
                r.u64()?;
                r.str_field("name")?;
                r.u32_list("list")?;
                r.u64_list("words")?;
                Ok(())
            })();
            assert!(result.is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn align8_rounds_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }
}
