//! Structural document index: preorder intervals + label inverted lists.
//!
//! Documents built by this crate's parser and builders allocate nodes in
//! pre-order ([`Document::in_document_order`]), so the subtree of node `v`
//! occupies the *contiguous id range* `[v, subtree_end(v)]`. That turns
//! descendant tests into interval checks and `//label` steps into binary
//! searches over per-label occurrence lists — the classic structural-join
//! layout used by XML query engines.
//!
//! Every per-node table is a [`U32s`]/[`Str`] column, so a persisted
//! package can hand the index buffer-borrowed views and construction is
//! O(1) per column (see [`DocIndex::from_packed`]).

use crate::column::{Str, U32s};
use crate::error::{Error, Result};
use crate::label_graph::LabelGraph;
use crate::node::{Document, LabelId, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Pre-derived columns for [`DocIndex::from_packed`] — the zero-copy
/// package load path. The nested `by_label` lists travel flattened as
/// one CSR pair (`label_offsets`/`label_ids`), matching the on-disk
/// layout, so no per-label allocation happens at load time.
#[derive(Debug, Default)]
pub struct PackedDocIndexParts {
    /// Largest node id inside each node's subtree.
    pub subtree_end: U32s,
    /// Depths in edges.
    pub depth: U32s,
    /// Occurrence-list CSR offsets (`label_names.len() + 1` entries).
    pub label_offsets: U32s,
    /// Occurrence-list CSR ids: label `l`'s occurrences are
    /// `label_ids[label_offsets[l]..label_offsets[l + 1]]`.
    pub label_ids: U32s,
    /// Label table at build time.
    pub label_names: Vec<String>,
    /// Every element node in document order.
    pub elements: U32s,
    /// Every text node in document order.
    pub text_nodes: U32s,
    /// All text content concatenated in document order.
    pub text_buf: Str,
    /// Byte offsets of each text node's content plus one trailing sentinel.
    pub text_offsets: U32s,
}

/// An immutable structural index over one document. Its text columns
/// are the document's own, shared rather than copied.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// `subtree_end[v]` = largest node id inside the subtree rooted at `v`.
    ///
    /// Post-order ranks are not stored: `post[v] = subtree_end[v] −
    /// depth[v]` (see [`DocIndex::post_rank`]), so the pre/post interval
    /// numbering costs no third doc-sized array.
    subtree_end: U32s,
    /// `depth[v]` = number of edges from the root to `v`.
    depth: U32s,
    /// Element occurrences per interned label, in document order, as one
    /// CSR pair keyed by [`LabelId::index`]: label `l`'s list is
    /// `label_ids[label_offsets[l]..label_offsets[l + 1]]`.
    label_offsets: U32s,
    label_ids: U32s,
    /// The document's label table at build time (`LabelId` → name).
    label_names: Vec<String>,
    /// Name → interned id, for the string-keyed lookup API.
    name_ids: HashMap<String, LabelId>,
    /// Every element node, in document order (the `*` occurrence list).
    elements: U32s,
    /// Text-node occurrences in document order.
    text_nodes: U32s,
    /// All text content concatenated in document order; because subtrees
    /// are contiguous id ranges, the string value of *any* element is a
    /// contiguous slice of this buffer.
    text_buf: Str,
    /// `text_offsets[i]` = byte offset of `text_nodes[i]`'s content in
    /// `text_buf` (one trailing sentinel = `text_buf.len()`).
    text_offsets: U32s,
    /// The document's own label graph, built on first use; `None` when
    /// the tables do not describe one rooted tree.
    label_graph: OnceLock<Option<Arc<LabelGraph>>>,
    /// Memoized [`DocIndex::conforms_to`] verdicts.
    conforms: ConformMemo,
}

/// Most schema graphs whose conformance verdicts one index remembers.
const CONFORM_MEMO: usize = 64;

/// Conformance verdicts keyed by schema graph identity: the latest one
/// in a single atomic word (the common case is one schema per document),
/// older ones behind a lock.
#[derive(Debug, Default)]
struct ConformMemo {
    /// `id << 1 | verdict` of the latest lookup; 0 while empty (graph
    /// ids start at 1).
    last: AtomicU64,
    all: Mutex<Vec<(u64, bool)>>,
}

impl Clone for ConformMemo {
    /// A clone starts empty: the memo is a cache, not state.
    fn clone(&self) -> ConformMemo {
        ConformMemo::default()
    }
}

impl DocIndex {
    /// Build the index. Returns `None` for documents whose id order is not
    /// document order (never the case for parser/builder-built trees).
    pub fn new(doc: &Document) -> Option<DocIndex> {
        if !doc.in_document_order() {
            return None;
        }
        let n = doc.len();
        let mut subtree_end = vec![0u32; n];
        let cols = doc.columns();
        let label_names = cols.labels.clone();
        let name_ids: HashMap<String, LabelId> =
            label_names.iter().enumerate().map(|(i, l)| (l.clone(), LabelId(i as u32))).collect();
        // Ids are pre-order, so iterating in reverse sees children before
        // parents: the subtree end is the max over self and children ends.
        for i in (0..n).rev() {
            let id = NodeId::from_index(i);
            let mut end = i as u32;
            for &c in doc.children(id) {
                end = end.max(subtree_end[c.index()]);
            }
            subtree_end[i] = end;
        }
        // Occurrence lists as CSR by counting sort: one pass counts per
        // label, a prefix sum places each list, a second pass fills in
        // ascending id (= document) order.
        let mut label_offsets = vec![0u32; label_names.len() + 1];
        for l in doc.all_ids().filter_map(|id| doc.label_id_of(id)) {
            label_offsets[l.index() + 1] += 1;
        }
        for i in 0..label_names.len() {
            label_offsets[i + 1] += label_offsets[i];
        }
        let element_count = label_offsets[label_names.len()] as usize;
        let mut label_ids = vec![0u32; element_count];
        let mut cursor = label_offsets.clone();
        // Parents precede children in id order, so the same forward pass
        // fills the depth table.
        let mut depth = vec![0u32; n];
        let mut elements = Vec::with_capacity(element_count);
        for id in doc.all_ids() {
            if let Some(p) = doc.parent(id) {
                depth[id.index()] = depth[p.index()] + 1;
            }
            if let Some(l) = doc.label_id_of(id) {
                let slot = &mut cursor[l.index()];
                label_ids[*slot as usize] = id.index() as u32;
                *slot += 1;
                elements.push(id.index() as u32);
            }
        }
        Some(DocIndex {
            subtree_end: U32s::from_vec(subtree_end),
            depth: U32s::from_vec(depth),
            label_offsets: U32s::from_vec(label_offsets),
            label_ids: U32s::from_vec(label_ids),
            label_names,
            name_ids,
            elements: U32s::from_vec(elements),
            text_nodes: cols.text_ids.clone(),
            text_buf: cols.text_blob.clone(),
            text_offsets: cols.text_offsets.clone(),
            label_graph: OnceLock::new(),
            conforms: ConformMemo::default(),
        })
    }

    /// Assemble an index from pre-derived, pre-validated packed columns —
    /// the zero-copy package load path. Only O(1) arity facts are
    /// checked; the columns themselves are trusted (the package
    /// checksums establish integrity — see [`Document::from_packed`] for
    /// the full trust-model discussion).
    pub fn from_packed(parts: PackedDocIndexParts) -> Result<DocIndex> {
        let PackedDocIndexParts {
            subtree_end,
            depth,
            label_offsets,
            label_ids,
            label_names,
            elements,
            text_nodes,
            text_buf,
            text_offsets,
        } = parts;
        let n = subtree_end.len();
        let malformed = |msg: String| Error::MalformedParts(msg);
        if depth.len() != n {
            return Err(malformed(format!("{} subtree ends, {} depths", n, depth.len())));
        }
        if label_offsets.len() != label_names.len() + 1 {
            return Err(malformed(format!(
                "label CSR: expected {} offsets for {} labels, got {}",
                label_names.len() + 1,
                label_names.len(),
                label_offsets.len()
            )));
        }
        if label_offsets.as_slice().last().copied().unwrap_or(0) as usize != label_ids.len() {
            return Err(malformed(format!(
                "label CSR: offsets end at {:?} but there are {} occurrence ids",
                label_offsets.as_slice().last(),
                label_ids.len()
            )));
        }
        if elements.len() + text_nodes.len() != n {
            return Err(malformed(format!(
                "{} elements + {} text nodes != {n} nodes",
                elements.len(),
                text_nodes.len()
            )));
        }
        if text_offsets.len() != text_nodes.len() + 1 {
            return Err(malformed(format!(
                "{} text offsets for {} text nodes (need one extra sentinel)",
                text_offsets.len(),
                text_nodes.len()
            )));
        }
        let mut name_ids = HashMap::with_capacity(label_names.len());
        for (i, name) in label_names.iter().enumerate() {
            if name_ids.insert(name.clone(), LabelId(i as u32)).is_some() {
                return Err(malformed(format!("duplicate label {name:?} in symbol table")));
            }
        }
        Ok(DocIndex {
            subtree_end,
            depth,
            label_offsets,
            label_ids,
            label_names,
            name_ids,
            elements,
            text_nodes,
            text_buf,
            text_offsets,
            label_graph: OnceLock::new(),
            conforms: ConformMemo::default(),
        })
    }

    /// The raw per-node subtree-end table (persisted-package store path).
    pub fn subtree_end_table(&self) -> &[u32] {
        self.subtree_end.as_slice()
    }

    /// The raw per-node depth table.
    pub fn depth_table(&self) -> &[u32] {
        self.depth.as_slice()
    }

    /// The occurrence-list CSR offsets (one per label plus a sentinel).
    pub fn label_offset_table(&self) -> &[u32] {
        self.label_offsets.as_slice()
    }

    /// The occurrence-list CSR ids, grouped by label.
    pub fn label_id_table(&self) -> &[u32] {
        self.label_ids.as_slice()
    }

    /// The label table at build time, indexed by [`LabelId::index`].
    pub fn label_table(&self) -> &[String] {
        &self.label_names
    }

    /// The concatenated document-order text buffer.
    pub fn text_buffer(&self) -> &str {
        self.text_buf.as_str()
    }

    /// Byte offsets into [`DocIndex::text_buffer`], one per text node
    /// plus a trailing sentinel equal to the buffer length.
    pub fn text_offset_table(&self) -> &[u32] {
        self.text_offsets.as_slice()
    }

    /// Largest node id inside the subtree of `v`.
    pub fn subtree_end(&self, v: NodeId) -> NodeId {
        NodeId::from_index(self.subtree_end.as_slice()[v.index()] as usize)
    }

    /// O(1) proper-descendant test.
    pub fn is_descendant(&self, maybe_desc: NodeId, anc: NodeId) -> bool {
        maybe_desc > anc && maybe_desc <= self.subtree_end(anc)
    }

    /// Pre-order rank of `v` (the node id itself — ids are allocated in
    /// pre-order for every tree this index accepts).
    pub fn pre_rank(&self, v: NodeId) -> u32 {
        v.index() as u32
    }

    /// Post-order rank of `v`, from the closed form
    /// `post[v] = subtree_end[v] − depth[v]`: `v` finishes right after
    /// its last descendant, and of the nodes with ids `<= subtree_end[v]`
    /// exactly `v`'s `depth[v]` ancestors finish later. `is_descendant(u,
    /// v)` is equivalent to `pre_rank(u) > pre_rank(v) && post_rank(u) <
    /// post_rank(v)`.
    pub fn post_rank(&self, v: NodeId) -> u32 {
        self.subtree_end.as_slice()[v.index()] - self.depth.as_slice()[v.index()]
    }

    /// Depth of `v` in edges (root = 0), precomputed at build time.
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth.as_slice()[v.index()]
    }

    /// The interned id of `label` at index-build time, if it occurs.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.name_ids.get(label).copied()
    }

    /// The full document-order occurrence list of a label (empty slice
    /// for labels that never occur).
    pub fn label_list(&self, label: &str) -> &[NodeId] {
        self.label_id(label).map(|l| self.label_list_id(l)).unwrap_or(&[])
    }

    /// Occurrence list keyed directly by interned label id — the integer
    /// fast path behind [`DocIndex::label_list`].
    pub fn label_list_id(&self, label: LabelId) -> &[NodeId] {
        let offsets = self.label_offsets.as_slice();
        let l = label.index();
        if l + 1 >= offsets.len() {
            return &[];
        }
        &self.label_ids.as_ids()[offsets[l] as usize..offsets[l + 1] as usize]
    }

    /// Every indexed label with its occurrence count (table order) —
    /// the cardinality statistics query planners read.
    pub fn labels(&self) -> impl Iterator<Item = (&str, usize)> {
        let offsets = self.label_offsets.as_slice();
        self.label_names
            .iter()
            .enumerate()
            .map(move |(i, l)| (l.as_str(), (offsets[i + 1] - offsets[i]) as usize))
    }

    /// Total indexed nodes (elements + text).
    pub fn node_count(&self) -> usize {
        self.elements.len() + self.text_nodes.len()
    }

    /// Every element node in document order.
    pub fn element_nodes(&self) -> &[NodeId] {
        self.elements.as_ids()
    }

    /// Every text node in document order.
    pub fn text_list(&self) -> &[NodeId] {
        self.text_nodes.as_ids()
    }

    /// All element nodes strictly inside the subtree of `v`, in document
    /// order (the `//*` occurrence slice).
    pub fn element_descendants(&self, v: NodeId) -> &[NodeId] {
        slice_in_range(self.elements.as_ids(), v, self.subtree_end(v))
    }

    /// All `label` elements strictly inside the subtree of `v`
    /// (`v` itself excluded — matching `//label`'s child-step semantics),
    /// in document order.
    pub fn labelled_descendants<'a>(&'a self, label: &str, v: NodeId) -> &'a [NodeId] {
        match self.label_id(label) {
            None => &[],
            Some(l) => self.labelled_descendants_id(l, v),
        }
    }

    /// [`DocIndex::labelled_descendants`] keyed by interned label id.
    pub fn labelled_descendants_id(&self, label: LabelId, v: NodeId) -> &[NodeId] {
        slice_in_range(self.label_list_id(label), v, self.subtree_end(v))
    }

    /// All text nodes inside the subtree of `v`, in document order.
    pub fn text_descendants(&self, v: NodeId) -> &[NodeId] {
        slice_in_range(self.text_nodes.as_ids(), v, self.subtree_end(v))
    }

    /// XPath string value of `v` without walking the subtree: the text
    /// nodes of `v`'s subtree occupy a contiguous run of `text_nodes`
    /// (pre-order ids), so the answer is one slice of the precomputed
    /// buffer, located by two binary searches. For a text node this is
    /// its own content; for an element, the concatenated subtree text.
    ///
    /// Agrees with [`Document::string_value`] but is O(log n) and
    /// allocation-free instead of O(|subtree|).
    pub fn string_value(&self, v: NodeId) -> &str {
        let end = self.subtree_end(v);
        let texts = self.text_nodes.as_ids();
        // `< v` (not `<= v`) keeps `v` itself in range when it is a text node.
        let lo = texts.partition_point(|&x| x < v);
        let hi = texts.partition_point(|&x| x <= end);
        let offs = self.text_offsets.as_slice();
        &self.text_buf.as_str()[offs[lo] as usize..offs[hi] as usize]
    }

    /// The document's own [`LabelGraph`]: its root label and every
    /// parent→child element-label edge that occurs. Built on first use
    /// by one O(n) pass over the depth table and occurrence lists, then
    /// shared. `None` for an empty document, a document with more than
    /// [`LabelGraph::MAX_LABELS`] label names, or tables that do not
    /// describe one rooted tree (possible only for malformed packaged
    /// columns); such an index conforms to no schema.
    pub fn label_graph(&self) -> Option<&Arc<LabelGraph>> {
        self.label_graph.get_or_init(|| self.build_label_graph().map(Arc::new)).as_ref()
    }

    /// Whether the document conforms to `schema`: its root label is the
    /// schema's root and each of its parent→child label edges is a schema
    /// edge. Memoized per schema graph (thread-safe), so after the first
    /// call for a graph the answer costs one atomic load.
    pub fn conforms_to(&self, schema: &LabelGraph) -> bool {
        // `last` publishes nothing but the verdict packed into it, so
        // relaxed ordering suffices.
        let key = schema.id() << 1;
        let last = self.conforms.last.load(Ordering::Relaxed);
        if last & !1 == key {
            return last & 1 == 1;
        }
        // Every entry is a complete verdict, so a list left by a thread
        // that panicked is still valid.
        let mut all = self.conforms.all.lock().unwrap_or_else(PoisonError::into_inner);
        let verdict = match all.iter().find(|&&(id, _)| id == schema.id()) {
            Some(&(_, v)) => v,
            None => {
                let v = self.label_graph().is_some_and(|g| g.is_subgraph_of(schema));
                if all.len() >= CONFORM_MEMO {
                    all.remove(0);
                }
                all.push((schema.id(), v));
                v
            }
        };
        self.conforms.last.store(key | verdict as u64, Ordering::Relaxed);
        verdict
    }

    fn build_label_graph(&self) -> Option<LabelGraph> {
        const TEXT: u32 = u32::MAX;
        // A planner lowers against no graph this large, so such a
        // document conforms to none it uses either way.
        let width = self.label_names.len();
        if width > LabelGraph::MAX_LABELS {
            return None;
        }
        let depth = self.depth.as_slice();
        let n = depth.len();
        let mut labels = vec![TEXT; n];
        for l in 0..width {
            for &v in self.label_list_id(LabelId(l as u32)) {
                *labels.get_mut(v.index())? = l as u32;
            }
        }
        let root = *labels.first()?;
        if root == TEXT {
            return None;
        }
        // Ids are pre-order, so the stack of labels on the current root
        // path, cut to a node's depth, ends with its parent's label.
        // Edges dedup through a bitmap over label pairs, one probe per
        // node.
        let mut seen = vec![0u64; (width * width).div_ceil(64)];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut path: Vec<u32> = Vec::new();
        for (v, (&d, &l)) in depth.iter().zip(&labels).enumerate() {
            let d = d as usize;
            if d > path.len() || (d == 0) != (v == 0) {
                return None;
            }
            path.truncate(d);
            if let Some(&p) = path.last() {
                if p == TEXT {
                    return None;
                }
                if l != TEXT {
                    let bit = p as usize * width + l as usize;
                    let word = &mut seen[bit / 64];
                    if *word & (1 << (bit % 64)) == 0 {
                        *word |= 1 << (bit % 64);
                        edges.push((p, l));
                    }
                }
            }
            path.push(l);
        }
        let name = |l: u32| self.label_names[l as usize].as_str();
        Some(LabelGraph::new(name(root), edges.into_iter().map(|(p, c)| (name(p), name(c)))))
    }
}

/// Subslice of a sorted id list with ids in `(v, end]`.
fn slice_in_range(list: &[NodeId], v: NodeId, end: NodeId) -> &[NodeId] {
    let lo = list.partition_point(|&x| x <= v);
    let hi = list.partition_point(|&x| x <= end);
    &list[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Document {
        parse("<r><a><b>x</b><a><b>y</b></a></a><b>z</b></r>").unwrap()
    }

    #[test]
    fn subtree_ranges() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let root = d.root().unwrap();
        assert_eq!(idx.subtree_end(root).index(), d.len() - 1);
        let a = d.children(root)[0];
        // a's subtree: a, b, x, a, b, y = ids 1..=6.
        assert_eq!(idx.subtree_end(a).index(), 6);
        assert!(idx.is_descendant(NodeId::from_index(4), a));
        assert!(!idx.is_descendant(NodeId::from_index(7), a));
        assert!(!idx.is_descendant(a, a), "proper descendants only");
    }

    #[test]
    fn labelled_descendants_by_range() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let root = d.root().unwrap();
        assert_eq!(idx.labelled_descendants("b", root).len(), 3);
        let outer_a = d.children(root)[0];
        assert_eq!(idx.labelled_descendants("b", outer_a).len(), 2);
        assert_eq!(idx.labelled_descendants("a", outer_a).len(), 1, "nested a only");
        assert_eq!(idx.labelled_descendants("zzz", root).len(), 0);
    }

    #[test]
    fn text_descendants_by_range() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let root = d.root().unwrap();
        assert_eq!(idx.text_descendants(root).len(), 3);
        let outer_a = d.children(root)[0];
        assert_eq!(idx.text_descendants(outer_a).len(), 2);
    }

    #[test]
    fn string_values_from_text_intervals() {
        let d = parse("<r><a><b>x</b><a><b>y</b></a></a><b>z</b>tail</r>").unwrap();
        let idx = DocIndex::new(&d).unwrap();
        for id in d.all_ids() {
            assert_eq!(
                idx.string_value(id),
                d.string_value(id),
                "node {:?} ({:?})",
                id,
                d.label_opt(id)
            );
        }
        assert_eq!(idx.string_value(d.root().unwrap()), "xyztail");
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        let idx = DocIndex::new(&d).unwrap();
        assert!(idx.label_list("a").is_empty());
        assert!(idx.element_nodes().is_empty());
        assert!(idx.label_graph().is_none(), "no root, no graph");
        assert!(!idx.conforms_to(&LabelGraph::new("a", Vec::<(&str, &str)>::new())));
    }

    #[test]
    fn label_graph_collects_element_edges() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let g = idx.label_graph().unwrap();
        // Text children add no edges.
        assert_eq!(
            g,
            &Arc::new(LabelGraph::new("r", [("a", "a"), ("a", "b"), ("r", "a"), ("r", "b")]))
        );
        assert!(Arc::ptr_eq(g, idx.label_graph().unwrap()), "built once");
    }

    #[test]
    fn documents_with_too_many_labels_have_no_label_graph() {
        // The root plus `kids` distinct child labels.
        let wide = |kids: usize| {
            let body: String = (1..=kids).map(|i| format!("<l{i}/>")).collect();
            parse(&format!("<r>{body}</r>")).unwrap()
        };
        let fits = wide(LabelGraph::MAX_LABELS - 1);
        let idx = DocIndex::new(&fits).unwrap();
        let g = idx.label_graph().unwrap().as_ref().clone();
        assert_eq!(g.len(), LabelGraph::MAX_LABELS);
        assert!(idx.conforms_to(&g));
        let over = wide(LabelGraph::MAX_LABELS);
        let idx = DocIndex::new(&over).unwrap();
        assert!(idx.label_graph().is_none());
        assert!(!idx.conforms_to(&g));
    }

    #[test]
    fn conformance_is_memoized_per_schema() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let full =
            LabelGraph::new("r", [("r", "a"), ("r", "b"), ("a", "a"), ("a", "b"), ("b", "c")]);
        let partial = LabelGraph::new("r", [("r", "a"), ("a", "b")]);
        let other_root = LabelGraph::new("a", [("a", "a"), ("a", "b"), ("r", "a"), ("r", "b")]);
        for _ in 0..2 {
            assert!(idx.conforms_to(&full));
            assert!(!idx.conforms_to(&partial), "r/b and a/a lie outside");
            assert!(!idx.conforms_to(&other_root));
            assert!(idx.conforms_to(idx.label_graph().unwrap()));
        }
        assert!(idx.clone().conforms_to(&full), "a clone recomputes");
    }

    #[test]
    fn pre_post_numbering_characterizes_descendants() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        // post ranks are a permutation.
        let mut seen: Vec<u32> = d.all_ids().map(|v| idx.post_rank(v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..d.len() as u32).collect::<Vec<_>>());
        // pre/post interval condition ≡ interval containment ≡ ancestry.
        for u in d.all_ids() {
            for v in d.all_ids() {
                let by_prepost =
                    idx.pre_rank(u) > idx.pre_rank(v) && idx.post_rank(u) < idx.post_rank(v);
                assert_eq!(by_prepost, idx.is_descendant(u, v), "u={u} v={v}");
                assert_eq!(by_prepost, d.descendants(v).any(|x| x == u), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn depth_matches_document() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        for v in d.all_ids() {
            assert_eq!(idx.depth(v) as usize, d.depth(v), "{v}");
        }
    }

    fn packed_parts_of(idx: &DocIndex) -> PackedDocIndexParts {
        PackedDocIndexParts {
            subtree_end: U32s::from_vec(idx.subtree_end_table().to_vec()),
            depth: U32s::from_vec(idx.depth_table().to_vec()),
            label_offsets: U32s::from_vec(idx.label_offset_table().to_vec()),
            label_ids: U32s::from_vec(idx.label_id_table().to_vec()),
            label_names: idx.label_names.clone(),
            elements: U32s::from_vec(
                idx.element_nodes().iter().map(|v| v.index() as u32).collect(),
            ),
            text_nodes: U32s::from_vec(idx.text_list().iter().map(|v| v.index() as u32).collect()),
            text_buf: Str::from_string(idx.text_buffer().to_string()),
            text_offsets: U32s::from_vec(idx.text_offset_table().to_vec()),
        }
    }

    #[test]
    fn from_packed_roundtrips_all_queries() {
        let d = parse("<r><a><b>x</b><a><b>y</b></a></a><b>z</b>tail</r>").unwrap();
        let idx = DocIndex::new(&d).unwrap();
        let back = DocIndex::from_packed(packed_parts_of(&idx)).unwrap();
        for v in d.all_ids() {
            assert_eq!(back.subtree_end(v), idx.subtree_end(v), "{v}");
            assert_eq!(back.post_rank(v), idx.post_rank(v), "{v}");
            assert_eq!(back.depth(v), idx.depth(v), "{v}");
            assert_eq!(back.string_value(v), idx.string_value(v), "{v}");
        }
        assert_eq!(back.label_list("b"), idx.label_list("b"));
        assert_eq!(back.label_id("a"), idx.label_id("a"));
        assert_eq!(back.element_nodes(), idx.element_nodes());
        assert_eq!(back.text_list(), idx.text_list());
        assert_eq!(back.node_count(), idx.node_count());
        let counts: Vec<_> = back.labels().collect();
        assert_eq!(counts, idx.labels().collect::<Vec<_>>());
    }

    #[test]
    fn from_packed_rejects_bad_arity() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let mut p = packed_parts_of(&idx);
        p.depth = U32s::from_vec(vec![0]);
        assert!(DocIndex::from_packed(p).is_err(), "depth arity");
        let mut p = packed_parts_of(&idx);
        p.label_offsets = U32s::from_vec(vec![0]);
        assert!(DocIndex::from_packed(p).is_err(), "label CSR arity");
        let mut p = packed_parts_of(&idx);
        p.label_ids = U32s::empty();
        assert!(DocIndex::from_packed(p).is_err(), "label CSR sentinel");
        let mut p = packed_parts_of(&idx);
        p.elements = U32s::empty();
        assert!(DocIndex::from_packed(p).is_err(), "element/text split");
        let mut p = packed_parts_of(&idx);
        p.text_offsets = U32s::empty();
        assert!(DocIndex::from_packed(p).is_err(), "text offset arity");
        let bare = DocIndex::new(&parse("<r><a/></r>").unwrap()).unwrap();
        let mut p = packed_parts_of(&bare);
        p.text_offsets = U32s::empty();
        assert!(DocIndex::from_packed(p).is_err(), "text sentinel without text");
        let mut p = packed_parts_of(&idx);
        p.label_names[1] = p.label_names[0].clone();
        assert!(DocIndex::from_packed(p).is_err(), "duplicate label");
    }

    #[test]
    fn tables_that_are_not_one_tree_have_no_label_graph() {
        // The loader accepts these tables (their arities agree), but they
        // describe no rooted tree: such an index must conform to no
        // schema, so schema slices fall back to their chains.
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let schema = idx.label_graph().unwrap().as_ref().clone();
        let cases: [(&str, usize, u32); 3] = [
            ("second root", 7, 0),
            ("depth jumps two levels", 2, 3),
            ("element under a text node", 4, 4),
        ];
        for (what, node, depth) in cases {
            let mut parts = packed_parts_of(&idx);
            parts.depth.make_mut()[node] = depth;
            let bad = DocIndex::from_packed(parts).expect(what);
            assert!(bad.label_graph().is_none(), "{what}");
            assert!(!bad.conforms_to(&schema), "{what}");
        }
    }

    #[test]
    fn occurrence_lists_and_sizes() {
        let d = doc();
        let idx = DocIndex::new(&d).unwrap();
        let root = d.root().unwrap();
        assert_eq!(idx.label_list("b").len(), 3);
        assert_eq!(idx.label_list("nope").len(), 0);
        assert_eq!(idx.element_nodes().len(), d.element_count());
        assert_eq!(idx.element_descendants(root).len(), d.element_count() - 1);
        assert_eq!(idx.text_list().len(), 3);
        // Occurrence lists are in document order.
        assert!(idx.label_list("b").windows(2).all(|w| w[0] < w[1]));
        assert!(idx.element_nodes().windows(2).all(|w| w[0] < w[1]));
    }
}
