//! The XML tree, stored as columns.
//!
//! A [`Document`] keeps its nodes in per-node `u32` columns (label,
//! parent), a child CSR, one text blob and a sparse attribute list;
//! [`NodeId`]s index those columns. There is one layout:
//! [`DocumentBuilder`] derives it from appended nodes and a package load
//! borrows it from the package buffer, and both hand it to
//! [`Document::from_packed`]. Builders append nodes in pre-order, so
//! comparing two `NodeId`s compares document order for trees built by
//! this crate's parser and builder (see [`Document::in_document_order`]).

use crate::column::{Str, U32s};
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable identity of one [`Document`] value, stamped at construction
/// from a process-wide monotonic counter and never reused.
///
/// Two live documents never share a `DocId`, and — unlike an address —
/// a dropped document's id is never recycled for a later allocation, so
/// `DocId` is the sound key for caches that outlive individual
/// documents (see `SecureEngine`'s AccessView cache). Cloning a
/// document stamps a *fresh* id: the clone is a distinct value, so
/// identity does not carry over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(u64);

static NEXT_DOC_ID: AtomicU64 = AtomicU64::new(1);

impl DocId {
    fn fresh() -> DocId {
        DocId(NEXT_DOC_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw counter value (for logs and stats keys).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc@{}", self.0)
    }
}

/// Index of a node inside a [`Document`]'s columns.
///
/// `#[repr(transparent)]` over `u32` so dense id tables can be viewed
/// as `&[NodeId]` directly from packed column storage
/// (see [`crate::column::U32s::as_ids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index value (useful for dense side tables keyed by node).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `NodeId` from a raw index. The caller must ensure the index
    /// belongs to the intended document.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interned element-type name, an index into the owning [`Document`]'s
/// label symbol table. Comparing two `LabelId`s from the same document
/// compares the labels in one integer instruction; resolve back to the
/// string with [`Document::label_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// Raw index into the document's label table (for dense side tables
    /// keyed by label).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `LabelId` from a raw table index. The caller must ensure
    /// the index belongs to the intended document's label table.
    pub fn from_index(i: usize) -> Self {
        LabelId(i as u32)
    }
}

/// A document's columns: what [`Document::from_packed`] assembles a
/// document from and [`Document::columns`] lends out. Any column may
/// be a buffer-borrowed view ([`U32s::Packed`]/[`Str::Packed`]) — on
/// the package load path every one is — so assembling a document from
/// them is O(1) per column, with no per-node work at all. See
/// [`Document::from_packed`] for the trust model.
#[derive(Debug, Clone)]
pub struct PackedDocumentParts {
    /// Label symbol table; `node_labels` entries index into it.
    pub labels: Vec<String>,
    /// Per-node label ids; [`Document::TEXT_LABEL`] marks a text node.
    pub node_labels: U32s,
    /// Per-node parent ids; [`Document::NO_PARENT`] marks "no parent".
    pub parents: U32s,
    /// Child CSR offsets (`n + 1` entries, monotone): node `i`'s
    /// children are `child_ids[child_offsets[i]..child_offsets[i + 1]]`.
    pub child_offsets: U32s,
    /// Child CSR ids (one entry per non-root node, grouped by parent).
    pub child_ids: U32s,
    /// Ids of every text node, ascending. A text node's rank — found by
    /// binary search — indexes `text_offsets`.
    pub text_ids: U32s,
    /// Byte offsets into `text_blob` per text rank, plus a sentinel:
    /// `text_ids.len() + 1` entries, even with no text.
    pub text_offsets: U32s,
    /// Concatenated text content in document order.
    pub text_blob: Str,
    /// Owning element id per attribute, ascending; node `i`'s attributes
    /// are the entries where `attr_nodes == i` (found by binary search —
    /// attributes are sparse).
    pub attr_nodes: U32s,
    /// `(name, value)` per attribute, parallel to `attr_nodes`; one
    /// node's attributes in the order they were set.
    pub attr_entries: Arc<[(String, String)]>,
    /// The root id, `None` only for empty documents.
    pub root: Option<NodeId>,
}

/// An XML document: its columns plus the label lookup table.
///
/// Immutable: [`DocumentBuilder`] builds one, a package load borrows
/// one, and both go through [`Document::from_packed`]. Nodes are
/// appended in pre-order by the parser and the builder's callers, so
/// `NodeId` order is document order for such trees.
#[derive(Debug)]
pub struct Document {
    /// Process-unique identity, stamped at construction (fresh on clone).
    id: DocId,
    cols: PackedDocumentParts,
    /// Name → interned id over `cols.labels`.
    label_ids: HashMap<String, LabelId>,
}

impl Default for Document {
    fn default() -> Self {
        DocumentBuilder::new().finish()
    }
}

impl Clone for Document {
    /// Clones share the columns (`Arc` bumps) but carry a fresh
    /// [`DocId`]: identity-keyed caches treat the copy as a different
    /// document.
    fn clone(&self) -> Self {
        Document { id: DocId::fresh(), cols: self.cols.clone(), label_ids: self.label_ids.clone() }
    }
}

impl Document {
    /// An empty document (no root).
    pub fn new() -> Self {
        Document::default()
    }

    /// This document's stable, never-reused identity.
    pub fn doc_id(&self) -> DocId {
        self.id
    }

    /// Number of nodes (elements + text).
    pub fn len(&self) -> usize {
        self.cols.node_labels.len()
    }

    /// True iff the document holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root element id, or an error for an empty document.
    pub fn root(&self) -> Result<NodeId> {
        self.cols.root.ok_or(Error::NoRoot)
    }

    /// The root element id if one exists.
    pub fn root_opt(&self) -> Option<NodeId> {
        self.cols.root
    }

    /// Sentinel in [`PackedDocumentParts::parents`] for "no parent" (the
    /// root).
    pub const NO_PARENT: u32 = u32::MAX;

    /// Sentinel in [`PackedDocumentParts::node_labels`] marking a text
    /// node.
    pub const TEXT_LABEL: u32 = u32::MAX;

    /// Assemble a document from derived columns — the one constructor:
    /// [`DocumentBuilder::finish`] calls it on the columns it derived,
    /// and package loading on columns borrowed from the package buffer.
    /// It only checks O(1) arity facts (array lengths agree) and interns
    /// the label table; the columns themselves are trusted. A package's
    /// integrity is established by per-section checksums — a
    /// corrupted-on-purpose package that passes its checksums can
    /// produce wrong answers or index panics, the same trust model a
    /// database engine extends to its own data files, but never
    /// undefined behaviour (every access stays bounds-checked).
    /// DESIGN.md §15 lists the structural invariants the columns must
    /// satisfy.
    pub fn from_packed(parts: PackedDocumentParts) -> Result<Document> {
        let n = parts.node_labels.len();
        let malformed = |msg: String| Error::MalformedParts(msg);
        if parts.parents.len() != n {
            return Err(malformed(format!(
                "{} node labels but {} parents",
                n,
                parts.parents.len()
            )));
        }
        if parts.child_offsets.len() != n + 1 {
            return Err(malformed(format!(
                "child offsets: expected {} entries, got {}",
                n + 1,
                parts.child_offsets.len()
            )));
        }
        if parts.child_ids.len() != n.saturating_sub(1) {
            return Err(malformed(format!(
                "{} child ids for a {n}-node document (expected {})",
                parts.child_ids.len(),
                n.saturating_sub(1)
            )));
        }
        let (text_ids, text_offsets) = (&parts.text_ids, &parts.text_offsets);
        if text_offsets.len() != text_ids.len() + 1 {
            return Err(malformed(format!(
                "text offsets: expected {} entries for {} text nodes, got {}",
                text_ids.len() + 1,
                text_ids.len(),
                text_offsets.len()
            )));
        }
        if parts.attr_nodes.len() != parts.attr_entries.len() {
            return Err(malformed(format!(
                "{} attribute owners but {} attribute entries",
                parts.attr_nodes.len(),
                parts.attr_entries.len()
            )));
        }
        match parts.root {
            Some(r) if r.index() >= n => {
                return Err(malformed(format!("root id {} out of bounds ({n} nodes)", r.index())));
            }
            None if n > 0 => {
                return Err(malformed(format!("no root for a {n}-node document")));
            }
            _ => {}
        }
        let mut label_ids = HashMap::with_capacity(parts.labels.len());
        for (i, name) in parts.labels.iter().enumerate() {
            if label_ids.insert(name.clone(), LabelId(i as u32)).is_some() {
                return Err(malformed(format!("duplicate label {name:?} in symbol table")));
            }
        }
        Ok(Document { id: DocId::fresh(), cols: parts, label_ids })
    }

    /// The document's columns. The pack writer writes them out as they
    /// are; cloning one is an `Arc` bump or another view of the same
    /// package buffer, so [`DocIndex`](crate::DocIndex) shares the text
    /// columns and the naive baseline swaps in one rebuilt attribute
    /// column and hands the rest back to [`Document::from_packed`].
    pub fn columns(&self) -> &PackedDocumentParts {
        &self.cols
    }

    /// The id `label` was interned under, if it occurs in this document.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.label_ids.get(label).copied()
    }

    /// Resolve an interned label id back to the element-type name.
    ///
    /// # Panics
    /// Panics if `id` does not come from this document's table.
    pub fn label_name(&self, id: LabelId) -> &str {
        &self.cols.labels[id.index()]
    }

    /// The interned label of `id` if it is an element, `None` for text.
    pub fn label_id_of(&self, id: NodeId) -> Option<LabelId> {
        let l = self.cols.node_labels.as_slice()[id.index()];
        (l != Self::TEXT_LABEL).then_some(LabelId(l))
    }

    /// True iff `id` is an element node.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds — ids must come from this document.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.label_id_of(id).is_some()
    }

    /// True iff `id` is a text node.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds — ids must come from this document.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.label_id_of(id).is_none()
    }

    /// The label symbol table, indexed by [`LabelId::index`].
    pub fn label_table(&self) -> &[String] {
        &self.cols.labels
    }

    /// Element label of `id`, or an error for text nodes.
    pub fn label(&self, id: NodeId) -> Result<&str> {
        self.label_opt(id).ok_or(Error::WrongNodeKind { expected: "element", found: "text" })
    }

    /// Element label if `id` is an element, `None` for text nodes.
    pub fn label_opt(&self, id: NodeId) -> Option<&str> {
        self.label_id_of(id).map(|l| self.label_name(l))
    }

    /// Text value of `id`, or an error for element nodes.
    pub fn text(&self, id: NodeId) -> Result<&str> {
        self.text_opt(id).ok_or(Error::WrongNodeKind { expected: "text", found: "element" })
    }

    /// Text value if `id` is a text node. Elements are told apart by the
    /// label column, so only text nodes pay the rank search.
    pub fn text_opt(&self, id: NodeId) -> Option<&str> {
        if self.is_element(id) {
            return None;
        }
        let c = &self.cols;
        let r = c.text_ids.as_slice().binary_search(&(id.index() as u32)).ok()?;
        let offs = c.text_offsets.as_slice();
        Some(&c.text_blob.as_str()[offs[r] as usize..offs[r + 1] as usize])
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.cols.parents.as_slice()[id.index()];
        (p != Self::NO_PARENT).then_some(NodeId(p))
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let offsets = self.cols.child_offsets.as_slice();
        let lo = offsets[id.index()] as usize;
        let hi = offsets[id.index() + 1] as usize;
        &self.cols.child_ids.as_ids()[lo..hi]
    }

    /// Attribute value lookup on an element node.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id).iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// All attributes of an element in the order they were set (empty
    /// for text).
    pub fn attributes(&self, id: NodeId) -> &[(String, String)] {
        let owners = self.cols.attr_nodes.as_slice();
        let want = id.index() as u32;
        let lo = owners.partition_point(|&o| o < want);
        let hi = owners.partition_point(|&o| o <= want);
        &self.cols.attr_entries[lo..hi]
    }

    /// Concatenated text content of the subtree rooted at `id`
    /// (the XPath `string-value` of an element).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.text_opt(id) {
            Some(t) => out.push_str(t),
            None => {
                for &c in self.children(id) {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (a single root is height 0); 0 for empty docs.
    pub fn height(&self) -> usize {
        match self.root_opt() {
            None => 0,
            Some(r) => self.subtree_height(r),
        }
    }

    fn subtree_height(&self, id: NodeId) -> usize {
        self.children(id).iter().map(|&c| 1 + self.subtree_height(c)).max().unwrap_or(0)
    }

    /// Verify that `NodeId` ordering coincides with pre-order document
    /// order: every parent precedes its children and siblings are
    /// monotonically increasing. Trees built through the parser or
    /// appended in pre-order through [`DocumentBuilder`] always satisfy
    /// this.
    pub fn in_document_order(&self) -> bool {
        let Some(root) = self.root_opt() else { return true };
        let mut expected = Vec::with_capacity(self.len());
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            expected.push(id);
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        expected.windows(2).all(|w| w[0] < w[1])
    }

    /// Count of element nodes (excludes text leaves).
    pub fn element_count(&self) -> usize {
        self.cols.node_labels.as_slice().iter().filter(|&&l| l != Self::TEXT_LABEL).count()
    }

    /// Ids of every node, in id (= document) order.
    pub fn all_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(|i| NodeId(i as u32))
    }
}

/// Records a document's nodes in append order and derives its columns.
///
/// Each append gets the next id, and a node's children keep their
/// append order, so appending in pre-order (a parent before its
/// children, siblings left to right), as the parser, `sxv-gen` and the
/// §3.3 materializer do, makes `NodeId` order document order.
/// [`DocumentBuilder::finish`] derives the child CSR with one counting
/// sort over the parent column and hands every column to
/// [`Document::from_packed`].
#[derive(Debug)]
pub struct DocumentBuilder {
    labels: Vec<String>,
    label_ids: HashMap<String, LabelId>,
    node_labels: Vec<u32>,
    parents: Vec<u32>,
    text_ids: Vec<u32>,
    /// A leading 0, then the blob's end offset after each text node.
    text_offsets: Vec<u32>,
    text_blob: String,
    /// Owner per attribute, ascending, parallel to `attr_entries`.
    attr_nodes: Vec<u32>,
    attr_entries: Vec<(String, String)>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        DocumentBuilder {
            labels: Vec::new(),
            label_ids: HashMap::new(),
            node_labels: Vec::new(),
            parents: Vec::new(),
            text_ids: Vec::new(),
            text_offsets: vec![0],
            text_blob: String::new(),
            attr_nodes: Vec::new(),
            attr_entries: Vec::new(),
        }
    }
}

impl DocumentBuilder {
    /// A builder with no nodes yet.
    pub fn new() -> Self {
        DocumentBuilder::default()
    }

    /// Create the root element (always id 0). Fails if a root already
    /// exists.
    pub fn create_root(&mut self, label: impl AsRef<str>) -> Result<NodeId> {
        if !self.node_labels.is_empty() {
            return Err(Error::Parse { offset: 0, message: "document already has a root".into() });
        }
        let label = self.intern(label.as_ref());
        Ok(self.push(label.0, Document::NO_PARENT))
    }

    /// Append a new element child under `parent`, returning its id.
    pub fn append_element(&mut self, parent: NodeId, label: impl AsRef<str>) -> NodeId {
        let label = self.intern(label.as_ref());
        self.push(label.0, parent.0)
    }

    /// Append a new text child under `parent`, returning its id.
    pub fn append_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> NodeId {
        let id = self.push(Document::TEXT_LABEL, parent.0);
        self.text_ids.push(id.0);
        self.text_blob.push_str(value.as_ref());
        let end = u32::try_from(self.text_blob.len()).expect("parse refuses inputs over 4 GiB");
        self.text_offsets.push(end);
        id
    }

    fn push(&mut self, label: u32, parent: u32) -> NodeId {
        let id = NodeId(self.node_labels.len() as u32);
        self.node_labels.push(label);
        self.parents.push(parent);
        id
    }

    /// Intern `label`, returning its stable id in the document's symbol
    /// table (allocates only on the first occurrence of a name).
    fn intern(&mut self, label: &str) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = LabelId(self.labels.len() as u32);
        self.label_ids.insert(label.to_string(), id);
        self.labels.push(label.to_string());
        id
    }

    /// Set (or replace) an attribute on `id`, which must be the element
    /// appended last: its attributes are the tail of the attribute
    /// columns, so they stay grouped by owner. A new name goes after the
    /// node's other attributes; a replaced one keeps its place.
    pub fn set_attribute(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<()> {
        if self.node_labels[id.index()] == Document::TEXT_LABEL {
            return Err(Error::WrongNodeKind { expected: "element", found: "text" });
        }
        if id.index() + 1 != self.node_labels.len() {
            return Err(Error::Parse {
                offset: 0,
                message: format!("attribute set on {id} after a later node was appended"),
            });
        }
        let name = name.into();
        let own = self.attr_nodes.partition_point(|&o| o < id.0);
        match self.attr_entries[own..].iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value.into(),
            None => {
                self.attr_nodes.push(id.0);
                self.attr_entries.push((name, value.into()));
            }
        }
        Ok(())
    }

    /// Derive the child CSR and assemble the document.
    pub fn finish(self) -> Document {
        let n = self.node_labels.len();
        // One counting sort over the parent column: count each parent's
        // children, prefix-sum the counts into offsets, then place the
        // children in ascending id (= append) order.
        let mut child_offsets = vec![0u32; n + 1];
        for &p in &self.parents {
            if p != Document::NO_PARENT {
                child_offsets[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut cursor = child_offsets[..n].to_vec();
        let mut child_ids = vec![0u32; n.saturating_sub(1)];
        for (c, &p) in self.parents.iter().enumerate() {
            if p != Document::NO_PARENT {
                let slot = &mut cursor[p as usize];
                child_ids[*slot as usize] = c as u32;
                *slot += 1;
            }
        }
        Document::from_packed(PackedDocumentParts {
            labels: self.labels,
            node_labels: U32s::from_vec(self.node_labels),
            parents: U32s::from_vec(self.parents),
            child_offsets: U32s::from_vec(child_offsets),
            child_ids: U32s::from_vec(child_ids),
            text_ids: U32s::from_vec(self.text_ids),
            text_offsets: U32s::from_vec(self.text_offsets),
            text_blob: Str::from_string(self.text_blob),
            attr_nodes: U32s::from_vec(self.attr_nodes),
            attr_entries: self.attr_entries.into(),
            root: (n > 0).then_some(NodeId(0)),
        })
        .expect("builder columns agree in length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId, NodeId, NodeId) {
        // <a x="1"><b>hi</b><c/></a>
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        d.set_attribute(a, "x", "1").unwrap();
        let b = d.append_element(a, "b");
        let t = d.append_text(b, "hi");
        let c = d.append_element(a, "c");
        (d.finish(), a, b, t, c)
    }

    #[test]
    fn build_and_navigate() {
        let (d, a, b, t, c) = small_doc();
        assert_eq!(d.root().unwrap(), a);
        assert_eq!(d.children(a), &[b, c]);
        assert_eq!(d.parent(b), Some(a));
        assert_eq!(d.parent(a), None);
        assert_eq!(d.label(a).unwrap(), "a");
        assert_eq!(d.text(t).unwrap(), "hi");
        assert_eq!(d.attribute(a, "x"), Some("1"));
        assert_eq!(d.attribute(a, "y"), None);
        assert_eq!(d.len(), 4);
        assert_eq!(d.element_count(), 3);
    }

    #[test]
    fn double_root_rejected() {
        let mut d = DocumentBuilder::new();
        d.create_root("a").unwrap();
        assert!(d.create_root("b").is_err());
    }

    #[test]
    fn label_of_text_node_errors() {
        let (d, _, _, t, _) = small_doc();
        assert!(matches!(d.label(t), Err(Error::WrongNodeKind { .. })));
        assert_eq!(d.label_opt(t), None);
    }

    #[test]
    fn text_of_element_errors() {
        let (d, a, ..) = small_doc();
        assert!(d.text(a).is_err());
        assert_eq!(d.text_opt(a), None);
    }

    #[test]
    fn string_value_concatenates_subtree_text() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        let b = d.append_element(a, "b");
        d.append_text(b, "x");
        let c = d.append_element(a, "c");
        d.append_text(c, "y");
        let d = d.finish();
        assert_eq!(d.string_value(a), "xy");
        assert_eq!(d.string_value(b), "x");
    }

    #[test]
    fn depth_and_height() {
        let (d, a, b, t, c) = small_doc();
        assert_eq!(d.depth(a), 0);
        assert_eq!(d.depth(b), 1);
        assert_eq!(d.depth(t), 2);
        assert_eq!(d.depth(c), 1);
        assert_eq!(d.height(), 2);
        assert_eq!(Document::new().height(), 0);
    }

    #[test]
    fn document_order_invariant_holds_for_builders() {
        let (d, ..) = small_doc();
        assert!(d.in_document_order());
    }

    #[test]
    fn set_attribute_replaces_existing() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        d.set_attribute(a, "x", "1").unwrap();
        d.set_attribute(a, "x", "2").unwrap();
        let d = d.finish();
        assert_eq!(d.attribute(a, "x"), Some("2"));
        assert_eq!(d.attributes(a).len(), 1);
    }

    #[test]
    fn set_attribute_on_text_errors() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        let t = d.append_text(a, "hi");
        assert!(d.set_attribute(t, "x", "2").is_err());
    }

    #[test]
    fn set_attribute_on_an_earlier_node_is_refused() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        let b = d.append_element(a, "b");
        assert!(d.set_attribute(a, "x", "1").is_err());
        d.set_attribute(b, "y", "2").unwrap();
        let d = d.finish();
        assert!(d.attributes(a).is_empty());
        assert_eq!(d.attribute(b, "y"), Some("2"));
    }

    #[test]
    fn empty_document_has_no_root() {
        let d = Document::new();
        assert!(matches!(d.root(), Err(Error::NoRoot)));
        assert!(d.is_empty());
        assert!(d.in_document_order());
    }

    #[test]
    fn labels_are_interned_once() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        let b1 = d.append_element(a, "b");
        let b2 = d.append_element(a, "b");
        let c = d.append_element(a, "c");
        let t = d.append_text(c, "hi");
        let d = d.finish();
        assert_eq!(d.label_table().len(), 3);
        assert_eq!(d.label_id_of(b1), d.label_id_of(b2));
        assert_ne!(d.label_id_of(b1), d.label_id_of(c));
        let b_id = d.label_id("b").unwrap();
        assert_eq!(d.label_name(b_id), "b");
        assert_eq!(d.label_id("zzz"), None);
        assert_eq!(d.label_id_of(t), None);
    }

    #[test]
    fn doc_ids_are_unique_and_fresh_on_clone() {
        let (d, ..) = small_doc();
        let (e, ..) = small_doc();
        assert_ne!(d.doc_id(), e.doc_id(), "distinct documents get distinct ids");
        let c = d.clone();
        assert_ne!(c.doc_id(), d.doc_id(), "clones are independent values");
        assert_eq!(d.doc_id(), d.doc_id(), "identity is stable over a value's life");
        assert!(Document::new().doc_id().as_u64() > 0);
    }

    /// Packed columns equivalent to `small_doc()`:
    /// `<a x="1"><b>hi</b><c/></a>`, ids a=0 b=1 t=2 c=3.
    fn small_packed() -> Document {
        let col = |v: &[u32]| U32s::from_vec(v.to_vec());
        Document::from_packed(PackedDocumentParts {
            labels: vec!["a".into(), "b".into(), "c".into()],
            node_labels: col(&[0, 1, Document::TEXT_LABEL, 2]),
            parents: col(&[Document::NO_PARENT, 0, 1, 0]),
            child_offsets: col(&[0, 2, 3, 3, 3]),
            child_ids: col(&[1, 3, 2]),
            text_ids: col(&[2]),
            text_offsets: col(&[0, 2]),
            text_blob: Str::from_string("hi".into()),
            attr_nodes: col(&[0]),
            attr_entries: vec![("x".to_string(), "1".to_string())].into(),
            root: Some(NodeId(0)),
        })
        .unwrap()
    }

    #[test]
    fn from_packed_requires_the_text_sentinel() {
        let mut parts = small_packed().columns().clone();
        parts.text_ids = U32s::empty();
        parts.text_offsets = U32s::empty();
        parts.node_labels = U32s::from_vec(vec![0, 1, 1, 2]);
        assert!(matches!(Document::from_packed(parts), Err(Error::MalformedParts(_))));
    }

    #[test]
    fn from_packed_behaves_like_builder_doc() {
        let built = small_doc().0;
        let loaded = small_packed();
        assert_eq!(loaded.len(), built.len());
        assert!(loaded.in_document_order());
        assert_eq!(loaded.root().unwrap(), built.root().unwrap());
        for id in built.all_ids() {
            assert_eq!(loaded.children(id), built.children(id), "{id}");
            assert_eq!(loaded.parent(id), built.parent(id), "{id}");
            assert_eq!(loaded.label_opt(id), built.label_opt(id), "{id}");
            assert_eq!(loaded.text_opt(id), built.text_opt(id), "{id}");
            assert_eq!(loaded.attributes(id), built.attributes(id), "{id}");
            assert_eq!(loaded.is_element(id), built.is_element(id), "{id}");
            assert_eq!(loaded.is_text(id), built.is_text(id), "{id}");
            assert_eq!(loaded.label_id_of(id), built.label_id_of(id), "{id}");
        }
        assert_eq!(loaded.label_id("b"), built.label_id("b"));
        assert_eq!(loaded.element_count(), built.element_count());
        assert_eq!(loaded.attribute(NodeId(0), "x"), Some("1"));
        assert_eq!(loaded.attribute(NodeId(1), "x"), None);
        assert_eq!(loaded.string_value(loaded.root().unwrap()), "hi");
        assert!(matches!(loaded.label(NodeId(2)), Err(Error::WrongNodeKind { .. })));
        assert!(matches!(loaded.text(NodeId(0)), Err(Error::WrongNodeKind { .. })));
        assert_ne!(loaded.doc_id(), built.doc_id(), "packed docs get fresh identity");
    }
}
