//! # Dense node bitmaps
//!
//! A [`NodeBitmap`] is a dense bitset over a document's nodes, keyed by
//! [`NodeId::index`]. One bit per node makes per-node predicates (such
//! as §3.2 accessibility) a word-parallel AND against candidate sets:
//! 64 nodes are filtered per machine instruction instead of one
//! comparison per node. The plan executor uses the same representation
//! for dense intermediate sets (see the hybrid rows in `sxv-xpath`).

use crate::node::NodeId;

const WORD_BITS: usize = 64;

/// A fixed-capacity bitset over node ids `0..len`.
///
/// Bit `i` corresponds to `NodeId::from_index(i)`. All bulk operations
/// (`and_assign`, `or_assign`, `negate`) are word-parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitmap {
    /// An empty bitmap with capacity for node ids `0..len`.
    pub fn new(len: usize) -> NodeBitmap {
        NodeBitmap { words: vec![0; len.div_ceil(WORD_BITS)], len }
    }

    /// Build from a sorted (or unsorted) list of node ids.
    pub fn from_ids(len: usize, ids: &[NodeId]) -> NodeBitmap {
        let mut b = NodeBitmap::new(len);
        for &id in ids {
            b.set(id);
        }
        b
    }

    /// Rehydrate from raw bit words (the persisted-package load path).
    /// Returns `None` when the word count does not match `len`; stray
    /// bits beyond `len` in the final word are masked off so the
    /// clear-beyond-len invariant holds regardless of input.
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<NodeBitmap> {
        if words.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        let mut b = NodeBitmap { words, len };
        b.mask_tail();
        Some(b)
    }

    /// The raw bit words, one `u64` per 64 node ids (the persisted-
    /// package store path). Bits at positions `>= len` are always clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of node ids the bitmap covers (the document length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero node ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap footprint of the bit words, in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Set the bit for `id`.
    #[inline]
    pub fn set(&mut self, id: NodeId) {
        let i = id.index();
        debug_assert!(i < self.len, "node id {i} out of bitmap range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clear the bit for `id`.
    #[inline]
    pub fn clear(&mut self, id: NodeId) {
        let i = id.index();
        if i < self.len {
            self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
        }
    }

    /// Set every bit in the inclusive id range `[start, end]`.
    pub fn set_range(&mut self, start: NodeId, end: NodeId) {
        let (s, e) = (start.index(), end.index());
        if s > e || s >= self.len {
            return;
        }
        let e = e.min(self.len - 1);
        let (sw, ew) = (s / WORD_BITS, e / WORD_BITS);
        let smask = u64::MAX << (s % WORD_BITS);
        let emask = u64::MAX >> (WORD_BITS - 1 - e % WORD_BITS);
        if sw == ew {
            self.words[sw] |= smask & emask;
        } else {
            self.words[sw] |= smask;
            for w in &mut self.words[sw + 1..ew] {
                *w = u64::MAX;
            }
            self.words[ew] |= emask;
        }
    }

    /// Is the bit for `id` set?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        i < self.len && self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Word-parallel intersection: `self &= other`.
    pub fn and_assign(&mut self, other: &NodeBitmap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        if other.words.len() < self.words.len() {
            for w in &mut self.words[other.words.len()..] {
                *w = 0;
            }
        }
    }

    /// Word-parallel union: `self |= other`.
    ///
    /// A longer `other` *grows* `self` to cover its domain first — a
    /// plain `zip` would silently drop every member of `other` beyond
    /// `self`'s last word, the asymmetric twin of the tail-zeroing in
    /// [`NodeBitmap::and_assign`]. (A shorter `other` needs nothing: its
    /// missing tail is implicitly zero.)
    pub fn or_assign(&mut self, other: &NodeBitmap) {
        if other.len > self.len {
            self.len = other.len;
            // Words past other's `len` are clear by invariant, so
            // copying whole words cannot smuggle in out-of-range bits.
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Word-parallel complement over `0..len` (trailing bits beyond
    /// `len` stay clear so counts and iteration remain exact).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (WORD_BITS - tail);
            }
        }
    }

    /// Population count: how many bits are set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rank: how many set bits fall strictly below `id` — the position
    /// `id` would occupy in the sorted id list.
    pub fn rank(&self, id: NodeId) -> usize {
        let i = id.index().min(self.len);
        let (full, tail) = (i / WORD_BITS, i % WORD_BITS);
        let mut n: usize = self.words[..full].iter().map(|w| w.count_ones() as usize).sum();
        if tail != 0 && full < self.words.len() {
            n += (self.words[full] & ((1u64 << tail) - 1)).count_ones() as usize;
        }
        n
    }

    /// Iterate the set bits as node ids, in ascending (document) order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect the set bits into a sorted `NodeId` vector.
    pub fn to_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter());
        out
    }
}

/// Ascending iterator over the set bits of a [`NodeBitmap`].
pub struct BitmapIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::from_index(self.word_idx * WORD_BITS + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn set_contains_iter_roundtrip() {
        let picks = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let b = NodeBitmap::from_ids(200, &ids(&picks));
        assert_eq!(b.count_ones(), picks.len());
        for i in 0..200 {
            assert_eq!(b.contains(NodeId::from_index(i)), picks.contains(&i), "bit {i}");
        }
        assert_eq!(b.to_ids(), ids(&picks));
    }

    #[test]
    fn boolean_ops_are_setwise() {
        let a = NodeBitmap::from_ids(130, &ids(&[1, 5, 64, 100]));
        let b = NodeBitmap::from_ids(130, &ids(&[5, 64, 101]));
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.to_ids(), ids(&[5, 64]));
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.to_ids(), ids(&[1, 5, 64, 100, 101]));
    }

    #[test]
    fn mismatched_lengths_are_handled_setwise() {
        // or_assign with a longer other must not drop the tail members
        // (the old zip-only version lost ids 64.. entirely).
        let mut short = NodeBitmap::from_ids(10, &ids(&[1, 9]));
        let long = NodeBitmap::from_ids(200, &ids(&[9, 64, 190]));
        short.or_assign(&long);
        assert_eq!(short.len(), 200, "union grows to the larger domain");
        assert_eq!(short.to_ids(), ids(&[1, 9, 64, 190]));
        // ...and a shorter other leaves the tail untouched.
        let mut wide = NodeBitmap::from_ids(200, &ids(&[0, 150]));
        wide.or_assign(&NodeBitmap::from_ids(10, &ids(&[3])));
        assert_eq!(wide.to_ids(), ids(&[0, 3, 150]));
        assert_eq!(wide.len(), 200);

        // and_assign zeroes the tail beyond a shorter other (intersection
        // with a domain that cannot contain those ids).
        let mut inter = NodeBitmap::from_ids(200, &ids(&[3, 70, 199]));
        inter.and_assign(&NodeBitmap::from_ids(10, &ids(&[3])));
        assert_eq!(inter.to_ids(), ids(&[3]));
    }

    #[test]
    fn or_assign_growth_keeps_counts_and_negate_exact() {
        // The grown tail must obey the clear-beyond-len invariant so
        // count/rank/negate stay exact afterwards.
        let mut b = NodeBitmap::from_ids(5, &ids(&[0, 4]));
        b.or_assign(&NodeBitmap::from_ids(70, &ids(&[69])));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.rank(NodeId::from_index(70)), 3);
        b.negate();
        assert_eq!(b.count_ones(), 70 - 3);
        assert!(b.to_ids().iter().all(|id| id.index() < 70));
    }

    #[test]
    fn negate_masks_tail_bits() {
        let mut b = NodeBitmap::from_ids(70, &ids(&[0, 69]));
        b.negate();
        assert_eq!(b.count_ones(), 68);
        assert!(!b.contains(NodeId::from_index(0)));
        assert!(!b.contains(NodeId::from_index(69)));
        assert!(b.contains(NodeId::from_index(68)));
        // ids ≥ len never appear.
        assert!(b.to_ids().iter().all(|id| id.index() < 70));
    }

    #[test]
    fn rank_counts_strictly_below() {
        let b = NodeBitmap::from_ids(200, &ids(&[3, 64, 65, 190]));
        assert_eq!(b.rank(NodeId::from_index(0)), 0);
        assert_eq!(b.rank(NodeId::from_index(3)), 0);
        assert_eq!(b.rank(NodeId::from_index(4)), 1);
        assert_eq!(b.rank(NodeId::from_index(65)), 2);
        assert_eq!(b.rank(NodeId::from_index(199)), 4);
    }

    #[test]
    fn set_range_matches_loop() {
        for (s, e) in [(0usize, 0usize), (3, 70), (64, 127), (60, 65), (0, 199), (199, 199)] {
            let mut fast = NodeBitmap::new(200);
            fast.set_range(NodeId::from_index(s), NodeId::from_index(e));
            let mut slow = NodeBitmap::new(200);
            for i in s..=e {
                slow.set(NodeId::from_index(i));
            }
            assert_eq!(fast, slow, "range [{s}, {e}]");
        }
    }

    #[test]
    fn footprint_is_one_bit_per_node() {
        let b = NodeBitmap::new(1 << 16);
        assert_eq!(b.bytes(), (1 << 16) / 8);
    }

    #[test]
    fn words_roundtrip_through_from_words() {
        let picks = [0usize, 63, 64, 129];
        let b = NodeBitmap::from_ids(130, &ids(&picks));
        let back = NodeBitmap::from_words(130, b.words().to_vec()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_ids(), ids(&picks));
        // Wrong word count is rejected; stray tail bits are masked.
        assert!(NodeBitmap::from_words(130, vec![0; 2]).is_none());
        assert!(NodeBitmap::from_words(130, vec![0; 4]).is_none());
        let masked = NodeBitmap::from_words(70, vec![0, u64::MAX]).unwrap();
        assert_eq!(masked.count_ones(), 6, "bits past len are cleared on load");
        assert!(masked.to_ids().iter().all(|id| id.index() < 70));
    }
}
