//! Arena-based XML tree.
//!
//! A [`Document`] owns every node; [`NodeId`]s are plain indices into the
//! arena. Construction APIs append nodes in pre-order, so comparing two
//! `NodeId`s compares document order for trees built by this crate's parser
//! and builders (see [`Document::in_document_order`]).

use crate::column::{Str, U32s};
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identity of one [`Document`] value, stamped at construction
/// from a process-wide monotonic counter and never reused.
///
/// Two live documents never share a `DocId`, and — unlike an address —
/// a dropped document's id is never recycled for a later allocation, so
/// `DocId` is the sound key for caches that outlive individual
/// documents (see `SecureEngine`'s AccessView cache). Cloning a
/// document stamps a *fresh* id: the clone is a distinct value that may
/// be mutated independently, so identity must not carry over.
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

/// Index of a node inside a [`Document`] arena.
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

/// The payload of a node: an element with a label, or a text leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node labelled with an element-type name.
    Element {
        /// Element-type name (the paper's `Ele` labels), interned in the
        /// owning document's symbol table.
        label: LabelId,
        /// Attributes in definition order. Small enough that a vec of pairs
        /// beats a map for the handful of attributes we ever carry.
        attributes: Vec<(String, String)>,
    },
    /// A text node carrying PCDATA. Always a leaf.
    Text(String),
}

impl NodeKind {
    fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Element { .. } => "element",
            NodeKind::Text(_) => "text",
        }
    }
}

/// A single tree node: payload plus structural links.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
}

impl Node {
    /// The node's payload.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// True iff this is an element node.
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }

    /// True iff this is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self.kind, NodeKind::Text(_))
    }
}

/// Child links stored as one compressed-sparse-row pair: node `i`'s
/// children are `ids[offsets[i]..offsets[i + 1]]`. Bulk-loaded documents
/// (package files) use this layout so the whole tree structure is two
/// flat columns — borrowed zero-copy from the package buffer on the
/// load path.
#[derive(Debug, Clone)]
struct CsrChildren {
    /// `len() == nodes + 1`; monotone, `offsets[n]` = total child count.
    offsets: U32s,
    ids: U32s,
}

impl CsrChildren {
    fn slice(&self, id: NodeId) -> &[NodeId] {
        let offsets = self.offsets.as_slice();
        let lo = offsets[id.index()] as usize;
        let hi = offsets[id.index() + 1] as usize;
        &self.ids.as_ids()[lo..hi]
    }
}

/// Column storage for bulk-loaded documents: per-node `u32` columns plus
/// shared blobs, so loading a package allocates a constant number of
/// flat arrays — or, on the zero-copy package path, none at all: every
/// column can be a [`U32s::Packed`]/[`Str::Packed`] view of the package
/// buffer. Every read accessor works directly on this layout;
/// structure- or payload-mutating builders materialize back to per-node
/// [`Node`]s first (see [`Document::materialize_nodes`]).
#[derive(Debug, Clone)]
struct CompactNodes {
    /// Per node: label table index, [`Document::TEXT_LABEL`] for text.
    labels: U32s,
    /// Per node: parent id, [`Document::NO_PARENT`] for the root.
    parents: U32s,
    /// Ids of every text node, ascending (= document order). A text
    /// node's rank — found by binary search — indexes `text_offsets`.
    /// Shared with the loader's `DocIndex`, as are the blob and offsets,
    /// so a loaded package holds the document text once, not twice.
    text_ids: U32s,
    text_blob: Str,
    /// Byte offsets into `text_blob`: rank `r` owns
    /// `text_blob[text_offsets[r]..text_offsets[r + 1]]`.
    text_offsets: U32s,
    /// Owning element id per attribute, ascending; node `i`'s attributes
    /// are the `attr_entries` at the positions where `attr_nodes == i`
    /// (found by binary search — attributes are sparse).
    attr_nodes: U32s,
    attr_entries: Vec<(String, String)>,
}

impl CompactNodes {
    /// Rank of `id` among text nodes, `None` for elements.
    fn text_rank(&self, id: NodeId) -> Option<usize> {
        self.text_ids.as_slice().binary_search(&(id.index() as u32)).ok()
    }

    /// The attribute-entry range owned by `id`.
    fn attr_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let owners = self.attr_nodes.as_slice();
        let want = id.index() as u32;
        let lo = owners.partition_point(|&o| o < want);
        let hi = owners.partition_point(|&o| o <= want);
        lo..hi
    }
}

/// Flat column arrays describing a whole document, the input of
/// [`Document::from_raw_parts`] — the *generating* columns a persisted
/// package stores, loaded without any per-node allocation.
///
/// `node_labels[i]`/`parents[i]` describe node `i`; text content comes
/// as one shared blob sliced by offsets (in document order of the text
/// nodes), and attributes as one flat pair list tagged with owning node
/// ids. Everything else — child CSR links, text-node ranks, attribute
/// offsets — is derived from these columns by counting sorts inside
/// [`Document::from_raw_parts`]. `parents` uses [`Document::NO_PARENT`]
/// for the root and `node_labels` uses [`Document::TEXT_LABEL`] for
/// text nodes; parents must precede their children (`parents[i] < i`),
/// which every pre-order tree satisfies.
#[derive(Debug, Clone, Default)]
pub struct DocumentParts {
    /// Label symbol table; `node_labels` entries index into it.
    pub labels: Vec<String>,
    /// Per-node label ids; [`Document::TEXT_LABEL`] marks a text node.
    pub node_labels: Vec<u32>,
    /// Per-node parent ids; [`Document::NO_PARENT`] marks "no parent".
    pub parents: Vec<u32>,
    /// Byte offsets into `text_blob`, one per text node (in ascending
    /// node-id order) plus a trailing sentinel; may be empty only for
    /// documents with no text nodes. The i-th text node's content is
    /// `text_blob[text_offsets[i]..text_offsets[i + 1]]`.
    pub text_offsets: Vec<u32>,
    /// Concatenated text content of every text node, in document order.
    pub text_blob: String,
    /// Owning element id per attribute, non-decreasing (an element with
    /// k attributes appears k times in a row).
    pub attr_nodes: Vec<u32>,
    /// `(name, value)` per attribute, parallel to `attr_nodes`.
    pub attr_entries: Vec<(String, String)>,
    /// The root id, `None` only for empty documents.
    pub root: Option<NodeId>,
}

/// Fully-derived document columns for [`Document::from_packed`] — the
/// zero-copy package load path. Field meanings match `CompactNodes`
/// and the child CSR; every column may be a buffer-borrowed view
/// ([`U32s::Packed`]/[`Str::Packed`]), which is the point: assembling a
/// document from these is O(1) per column, with no per-node work at
/// all. See [`Document::from_packed`] for the trust model.
#[derive(Debug, Default)]
pub struct PackedDocumentParts {
    /// Label symbol table; `node_labels` entries index into it.
    pub labels: Vec<String>,
    /// Per-node label ids; [`Document::TEXT_LABEL`] marks a text node.
    pub node_labels: U32s,
    /// Per-node parent ids; [`Document::NO_PARENT`] marks "no parent".
    pub parents: U32s,
    /// Child CSR offsets (`n + 1` entries, monotone).
    pub child_offsets: U32s,
    /// Child CSR ids (one entry per non-root node, grouped by parent).
    pub child_ids: U32s,
    /// Ids of every text node, ascending.
    pub text_ids: U32s,
    /// Byte offsets into `text_blob` per text rank, plus a sentinel.
    pub text_offsets: U32s,
    /// Concatenated text content in document order.
    pub text_blob: Str,
    /// Owning element id per attribute, ascending.
    pub attr_nodes: U32s,
    /// `(name, value)` per attribute, parallel to `attr_nodes`.
    pub attr_entries: Vec<(String, String)>,
    /// The root id, `None` only for empty documents.
    pub root: Option<NodeId>,
}

/// An XML document: a node arena plus the root id.
///
/// Nodes are appended in pre-order by the parser and by the
/// [`Document::append_element`]/[`Document::append_text`] builders, so
/// `NodeId` order is document order for such trees.
#[derive(Debug)]
pub struct Document {
    /// Process-unique identity, stamped at construction (fresh on clone).
    id: DocId,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    /// Label symbol table: `labels[id.index()]` is the element-type name
    /// interned as `LabelId(id)`.
    labels: Vec<String>,
    label_ids: HashMap<String, LabelId>,
    /// When present, child links live here and every `Node.children` is
    /// empty; structure-mutating builders materialize back to per-node
    /// vectors first (see [`Document::materialize_children`]).
    csr_children: Option<CsrChildren>,
    /// When present, node payloads live in columns and `nodes` is empty;
    /// payload-mutating builders materialize back to per-node [`Node`]s
    /// first (see [`Document::materialize_nodes`]).
    compact: Option<CompactNodes>,
}

impl Default for Document {
    fn default() -> Self {
        Document {
            id: DocId::fresh(),
            nodes: Vec::new(),
            root: None,
            labels: Vec::new(),
            label_ids: HashMap::new(),
            csr_children: None,
            compact: None,
        }
    }
}

impl Clone for Document {
    /// Clones carry a fresh [`DocId`]: the copy is an independent value
    /// (it may be mutated, e.g. the naive baseline's annotated copy), so
    /// identity-keyed caches must treat it as a different document.
    fn clone(&self) -> Self {
        Document {
            id: DocId::fresh(),
            nodes: self.nodes.clone(),
            root: self.root,
            labels: self.labels.clone(),
            label_ids: self.label_ids.clone(),
            csr_children: self.csr_children.clone(),
            compact: self.compact.clone(),
        }
    }
}

impl Document {
    /// Create an empty document (no root yet).
    pub fn new() -> Self {
        Document::default()
    }

    /// This document's stable, never-reused identity.
    pub fn doc_id(&self) -> DocId {
        self.id
    }

    /// Number of nodes (elements + text) in the arena.
    pub fn len(&self) -> usize {
        match &self.compact {
            Some(c) => c.labels.len(),
            None => self.nodes.len(),
        }
    }

    /// True iff the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root element id, or an error for an empty document.
    pub fn root(&self) -> Result<NodeId> {
        self.root.ok_or(Error::NoRoot)
    }

    /// The root element id if one exists.
    pub fn root_opt(&self) -> Option<NodeId> {
        self.root
    }

    /// Borrow a node. Only available for materialized (builder- or
    /// parser-built) documents; bulk-loaded documents keep payloads in
    /// columns and answer through the typed accessors ([`Document::label`],
    /// [`Document::text_opt`], [`Document::attributes`], ...).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds — ids must come from this document —
    /// or if this document uses compact column storage.
    pub fn node(&self, id: NodeId) -> &Node {
        assert!(
            self.compact.is_none(),
            "Document::node on compact column storage; use the typed accessors"
        );
        &self.nodes[id.index()]
    }

    /// Checked lookup variant of [`Document::node`].
    ///
    /// # Panics
    /// Panics if this document uses compact column storage (see
    /// [`Document::node`]).
    pub fn try_node(&self, id: NodeId) -> Result<&Node> {
        assert!(
            self.compact.is_none(),
            "Document::try_node on compact column storage; use the typed accessors"
        );
        self.nodes.get(id.index()).ok_or(Error::InvalidNodeId(id.index()))
    }

    /// Sentinel in [`DocumentParts::parents`] for "no parent" (the root).
    pub const NO_PARENT: u32 = u32::MAX;

    /// Sentinel in [`DocumentParts::node_labels`] marking a text node.
    pub const TEXT_LABEL: u32 = u32::MAX;

    /// Build a document from flat column arrays in one shot — the loading
    /// path for persisted packages. Everything stays columnar: child links
    /// in CSR form (derived from `parents` by a counting sort), text in
    /// one shared blob, attributes in one flat list, so construction
    /// performs **no per-node allocation** (the label interning table —
    /// O(distinct labels) — is the only per-entry work).
    ///
    /// Validation is a constant number of O(n) scans with no allocation
    /// beyond the derived columns (child CSR, text ranks, attribute
    /// offsets): array lengths must agree, parents must precede their
    /// children (`parents[i] < i` — the pre-order layout every builder
    /// tree satisfies, and what makes the derivations single-pass), text
    /// offsets must be monotone, exhaust the blob, and land on char
    /// boundaries, and every id (labels, attribute owners, root) must be
    /// in bounds and of the right node kind. Siblings' subtree
    /// interleaving is not checked here; use
    /// [`Document::in_document_order`] when that matters.
    pub fn from_raw_parts(parts: DocumentParts) -> Result<Document> {
        let DocumentParts {
            labels,
            node_labels,
            parents,
            text_offsets,
            text_blob,
            attr_nodes,
            attr_entries,
            root,
        } = parts;
        let n = node_labels.len();
        let malformed = |msg: String| Error::MalformedParts(msg);
        if parents.len() != n {
            return Err(malformed(format!("{} node labels but {} parents", n, parents.len())));
        }
        if let Some(bad) =
            parents.iter().enumerate().find(|&(i, &p)| p != Self::NO_PARENT && p as usize >= i)
        {
            return Err(malformed(format!(
                "parent {} of node {} does not precede it (pre-order layout required)",
                bad.1, bad.0
            )));
        }
        if let Some(&bad) =
            node_labels.iter().find(|&&l| l != Self::TEXT_LABEL && l as usize >= labels.len())
        {
            return Err(malformed(format!(
                "label id {bad} out of bounds ({} labels)",
                labels.len()
            )));
        }
        let text_count = node_labels.iter().filter(|&&l| l == Self::TEXT_LABEL).count();
        if !(text_count == 0 && text_offsets.is_empty()) && text_offsets.len() != text_count + 1 {
            return Err(malformed(format!(
                "text offsets: expected {} entries for {text_count} text nodes, got {}",
                text_count + 1,
                text_offsets.len()
            )));
        }
        if text_offsets.first().is_some_and(|&o| o != 0) {
            return Err(malformed("text offsets do not start at 0".into()));
        }
        if text_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed("text offsets are not monotone".into()));
        }
        if text_offsets.last().copied().unwrap_or(0) as usize != text_blob.len() {
            return Err(malformed(format!(
                "text offsets end at {} but the text blob has {} bytes",
                text_offsets.last().copied().unwrap_or(0),
                text_blob.len()
            )));
        }
        if let Some(&bad) = text_offsets.iter().find(|&&o| !text_blob.is_char_boundary(o as usize))
        {
            return Err(malformed(format!("text offset {bad} is not a char boundary")));
        }
        if attr_nodes.len() != attr_entries.len() {
            return Err(malformed(format!(
                "{} attribute owners but {} attribute entries",
                attr_nodes.len(),
                attr_entries.len()
            )));
        }
        if attr_nodes.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed("attribute owner ids are not non-decreasing".into()));
        }
        if let Some(&bad) = attr_nodes
            .iter()
            .find(|&&a| a as usize >= n || node_labels[a as usize] == Self::TEXT_LABEL)
        {
            return Err(malformed(format!(
                "attribute owner {bad} is out of bounds or not an element"
            )));
        }
        match root {
            Some(r) if r.index() >= n => {
                return Err(malformed(format!("root id {} out of bounds ({n} nodes)", r.index())));
            }
            Some(r) if parents[r.index()] != Self::NO_PARENT => {
                return Err(malformed(format!("root id {} has a parent", r.index())));
            }
            None if n > 0 => {
                return Err(malformed(format!("no root for a {n}-node document")));
            }
            _ => {}
        }
        let mut label_ids = HashMap::with_capacity(labels.len());
        for (i, name) in labels.iter().enumerate() {
            if label_ids.insert(name.clone(), LabelId(i as u32)).is_some() {
                return Err(malformed(format!("duplicate label {name:?} in symbol table")));
            }
        }
        // Child CSR by counting sort over `parents`: because ids are
        // pre-order, node `i`'s children are exactly the `j` with
        // `parents[j] == i`, in ascending-`j` (= document) order — the
        // same order the append builders produce.
        let mut child_offsets = vec![0u32; n + 1];
        for &p in &parents {
            if p != Self::NO_PARENT {
                child_offsets[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut child_ids = vec![0u32; child_offsets[n] as usize];
        let mut cursor: Vec<u32> = child_offsets.clone();
        for (i, &p) in parents.iter().enumerate() {
            if p != Self::NO_PARENT {
                let slot = &mut cursor[p as usize];
                child_ids[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        // Text ids: the i-th text node (ascending id) owns blob slice i.
        let text_ids: Vec<u32> = node_labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == Self::TEXT_LABEL)
            .map(|(i, _)| i as u32)
            .collect();
        Ok(Document {
            id: DocId::fresh(),
            nodes: Vec::new(),
            root,
            labels,
            label_ids,
            csr_children: Some(CsrChildren {
                offsets: U32s::from_vec(child_offsets),
                ids: U32s::from_vec(child_ids),
            }),
            compact: Some(CompactNodes {
                labels: U32s::from_vec(node_labels),
                parents: U32s::from_vec(parents),
                text_ids: U32s::from_vec(text_ids),
                text_blob: Str::from_string(text_blob),
                text_offsets: U32s::from_vec(text_offsets),
                attr_nodes: U32s::from_vec(attr_nodes),
                attr_entries,
            }),
        })
    }

    /// Assemble a document from pre-derived, pre-validated packed
    /// columns — the zero-copy package load path. Unlike
    /// [`Document::from_raw_parts`], which re-derives child links and
    /// validates every per-node invariant, this constructor only checks
    /// O(1) arity facts (array lengths agree) and interns the label
    /// table; the columns themselves are trusted. Package loading runs
    /// it on buffer-borrowed columns whose integrity is established by
    /// per-section checksums — a corrupted-on-purpose package that
    /// passes its checksums can produce wrong answers or index panics,
    /// the same trust model a database engine extends to its own data
    /// files, but never undefined behaviour (every access stays
    /// bounds-checked).
    pub fn from_packed(parts: PackedDocumentParts) -> Result<Document> {
        let PackedDocumentParts {
            labels,
            node_labels,
            parents,
            child_offsets,
            child_ids,
            text_ids,
            text_offsets,
            text_blob,
            attr_nodes,
            attr_entries,
            root,
        } = parts;
        let n = node_labels.len();
        let malformed = |msg: String| Error::MalformedParts(msg);
        if parents.len() != n {
            return Err(malformed(format!("{} node labels but {} parents", n, parents.len())));
        }
        if child_offsets.len() != n + 1 {
            return Err(malformed(format!(
                "child offsets: expected {} entries, got {}",
                n + 1,
                child_offsets.len()
            )));
        }
        if child_ids.len() != n.saturating_sub(1) {
            return Err(malformed(format!(
                "{} child ids for a {n}-node document (expected {})",
                child_ids.len(),
                n.saturating_sub(1)
            )));
        }
        if !(text_ids.is_empty() && text_offsets.is_empty())
            && text_offsets.len() != text_ids.len() + 1
        {
            return Err(malformed(format!(
                "text offsets: expected {} entries for {} text nodes, got {}",
                text_ids.len() + 1,
                text_ids.len(),
                text_offsets.len()
            )));
        }
        if attr_nodes.len() != attr_entries.len() {
            return Err(malformed(format!(
                "{} attribute owners but {} attribute entries",
                attr_nodes.len(),
                attr_entries.len()
            )));
        }
        match root {
            Some(r) if r.index() >= n => {
                return Err(malformed(format!("root id {} out of bounds ({n} nodes)", r.index())));
            }
            None if n > 0 => {
                return Err(malformed(format!("no root for a {n}-node document")));
            }
            _ => {}
        }
        let mut label_ids = HashMap::with_capacity(labels.len());
        for (i, name) in labels.iter().enumerate() {
            if label_ids.insert(name.clone(), LabelId(i as u32)).is_some() {
                return Err(malformed(format!("duplicate label {name:?} in symbol table")));
            }
        }
        Ok(Document {
            id: DocId::fresh(),
            nodes: Vec::new(),
            root,
            labels,
            label_ids,
            csr_children: Some(CsrChildren { offsets: child_offsets, ids: child_ids }),
            compact: Some(CompactNodes {
                labels: node_labels,
                parents,
                text_ids,
                text_blob,
                text_offsets,
                attr_nodes,
                attr_entries,
            }),
        })
    }

    /// Convert CSR child links back into per-node vectors so the append
    /// builders can mutate structure. No-op for builder-built documents.
    fn materialize_children(&mut self) {
        self.materialize_nodes();
        let Some(csr) = self.csr_children.take() else { return };
        let offsets = csr.offsets.as_slice();
        let ids = csr.ids.as_ids();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            node.children = ids[lo..hi].to_vec();
        }
    }

    /// Convert compact column storage back into per-node [`Node`]s so the
    /// payload-mutating builders can work. No-op for documents already in
    /// arena form.
    fn materialize_nodes(&mut self) {
        let Some(c) = self.compact.take() else { return };
        let labels = c.labels.as_slice();
        let parents = c.parents.as_slice();
        let offs = c.text_offsets.as_slice();
        let blob = c.text_blob.as_str();
        let n = labels.len();
        let mut nodes = Vec::with_capacity(n);
        // Ascending i visits text nodes in rank order, so a running
        // counter replaces per-node rank lookups.
        let mut rank = 0usize;
        for i in 0..n {
            let kind = if labels[i] == Self::TEXT_LABEL {
                let r = rank;
                rank += 1;
                NodeKind::Text(blob[offs[r] as usize..offs[r + 1] as usize].to_string())
            } else {
                let id = NodeId(i as u32);
                NodeKind::Element {
                    label: LabelId(labels[i]),
                    attributes: c.attr_entries[c.attr_range(id)].to_vec(),
                }
            };
            nodes.push(Node {
                kind,
                parent: (parents[i] != Self::NO_PARENT).then(|| NodeId(parents[i])),
                children: Vec::new(),
            });
        }
        self.nodes = nodes;
    }

    /// Create the root element. Fails if a root already exists.
    pub fn create_root(&mut self, label: impl AsRef<str>) -> Result<NodeId> {
        if self.root.is_some() {
            return Err(Error::Parse { offset: 0, message: "document already has a root".into() });
        }
        self.materialize_children();
        let label = self.intern(label.as_ref());
        let id = self.push(Node {
            kind: NodeKind::Element { label, attributes: Vec::new() },
            parent: None,
            children: Vec::new(),
        });
        self.root = Some(id);
        Ok(id)
    }

    /// Append a new element child under `parent`, returning its id.
    pub fn append_element(&mut self, parent: NodeId, label: impl AsRef<str>) -> NodeId {
        self.materialize_children();
        let label = self.intern(label.as_ref());
        let id = self.push(Node {
            kind: NodeKind::Element { label, attributes: Vec::new() },
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Intern `label`, returning its stable id in this document's symbol
    /// table (allocates only on the first occurrence of a name).
    pub fn intern(&mut self, label: &str) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = LabelId(self.labels.len() as u32);
        self.label_ids.insert(label.to_string(), id);
        self.labels.push(label.to_string());
        id
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
        &self.labels[id.index()]
    }

    /// The interned label of `id` if it is an element, `None` for text.
    pub fn label_id_of(&self, id: NodeId) -> Option<LabelId> {
        match &self.compact {
            Some(c) => {
                let l = c.labels.as_slice()[id.index()];
                (l != Self::TEXT_LABEL).then_some(LabelId(l))
            }
            None => match &self.nodes[id.index()].kind {
                NodeKind::Element { label, .. } => Some(*label),
                NodeKind::Text(_) => None,
            },
        }
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
        &self.labels
    }

    /// Append a new text child under `parent`, returning its id.
    pub fn append_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.materialize_children();
        let id = self.push(Node {
            kind: NodeKind::Text(value.into()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
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

    /// Text value if `id` is a text node.
    pub fn text_opt(&self, id: NodeId) -> Option<&str> {
        match &self.compact {
            Some(c) => c.text_rank(id).map(|r| {
                let offs = c.text_offsets.as_slice();
                &c.text_blob.as_str()[offs[r] as usize..offs[r + 1] as usize]
            }),
            None => match &self.nodes[id.index()].kind {
                NodeKind::Text(t) => Some(t),
                NodeKind::Element { .. } => None,
            },
        }
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match &self.compact {
            Some(c) => {
                let p = c.parents.as_slice()[id.index()];
                (p != Self::NO_PARENT).then_some(NodeId(p))
            }
            None => self.nodes[id.index()].parent,
        }
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.csr_children {
            Some(csr) => csr.slice(id),
            None => &self.nodes[id.index()].children,
        }
    }

    /// Attribute value lookup on an element node.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id).iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Set (or replace) an attribute on an element node.
    pub fn set_attribute(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<()> {
        self.materialize_nodes();
        let name = name.into();
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(slot) = attributes.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value.into();
                } else {
                    attributes.push((name, value.into()));
                }
                Ok(())
            }
            other => Err(Error::WrongNodeKind { expected: "element", found: other.kind_name() }),
        }
    }

    /// All attributes of an element in definition order (empty for text).
    pub fn attributes(&self, id: NodeId) -> &[(String, String)] {
        match &self.compact {
            Some(c) => &c.attr_entries[c.attr_range(id)],
            None => match &self.nodes[id.index()].kind {
                NodeKind::Element { attributes, .. } => attributes,
                NodeKind::Text(_) => &[],
            },
        }
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

    /// True iff `anc` is a proper ancestor of `id`.
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Verify that `NodeId` ordering coincides with pre-order document
    /// order: every parent precedes its children and siblings are
    /// monotonically increasing. Trees built through the parser or the
    /// append builders always satisfy this.
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
        match &self.compact {
            Some(c) => c.labels.as_slice().iter().filter(|&&l| l != Self::TEXT_LABEL).count(),
            None => self.nodes.iter().filter(|n| n.is_element()).count(),
        }
    }

    /// Ids of every node in the arena, in arena (= document) order.
    pub fn all_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(|i| NodeId(i as u32))
    }

    /// All elements with the given label, in document order (linear scan
    /// with the label resolved to its interned id once, so the per-node
    /// test is an integer compare; use [`crate::DocIndex`] for repeated
    /// lookups).
    pub fn elements_with_label<'a>(&'a self, label: &str) -> impl Iterator<Item = NodeId> + 'a {
        let want = self.label_id(label);
        self.all_ids().filter(move |&id| want.is_some() && self.label_id_of(id) == want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId, NodeId, NodeId) {
        // <a x="1"><b>hi</b><c/></a>
        let mut d = Document::new();
        let a = d.create_root("a").unwrap();
        d.set_attribute(a, "x", "1").unwrap();
        let b = d.append_element(a, "b");
        let t = d.append_text(b, "hi");
        let c = d.append_element(a, "c");
        (d, a, b, t, c)
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
        let mut d = Document::new();
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
        let mut d = Document::new();
        let a = d.create_root("a").unwrap();
        let b = d.append_element(a, "b");
        d.append_text(b, "x");
        let c = d.append_element(a, "c");
        d.append_text(c, "y");
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
    fn ancestor_check() {
        let (d, a, b, t, c) = small_doc();
        assert!(d.is_ancestor(a, t));
        assert!(d.is_ancestor(b, t));
        assert!(!d.is_ancestor(c, t));
        assert!(!d.is_ancestor(t, a));
        assert!(!d.is_ancestor(a, a), "ancestor relation is proper");
    }

    #[test]
    fn document_order_invariant_holds_for_builders() {
        let (d, ..) = small_doc();
        assert!(d.in_document_order());
    }

    #[test]
    fn set_attribute_replaces_existing() {
        let (mut d, a, ..) = small_doc();
        d.set_attribute(a, "x", "2").unwrap();
        assert_eq!(d.attribute(a, "x"), Some("2"));
        assert_eq!(d.attributes(a).len(), 1);
    }

    #[test]
    fn set_attribute_on_text_errors() {
        let (mut d, _, _, t, _) = small_doc();
        assert!(d.set_attribute(t, "x", "2").is_err());
    }

    #[test]
    fn empty_document_has_no_root() {
        let d = Document::new();
        assert!(matches!(d.root(), Err(Error::NoRoot)));
        assert!(d.is_empty());
        assert!(d.in_document_order());
    }

    #[test]
    fn elements_with_label_scans_in_order() {
        let d = crate::parser::parse("<a><b/><c><b/></c></a>").unwrap();
        let bs: Vec<_> = d.elements_with_label("b").collect();
        assert_eq!(bs.len(), 2);
        assert!(bs[0] < bs[1]);
        assert_eq!(d.elements_with_label("zzz").count(), 0);
    }

    #[test]
    fn labels_are_interned_once() {
        let mut d = Document::new();
        let a = d.create_root("a").unwrap();
        let b1 = d.append_element(a, "b");
        let b2 = d.append_element(a, "b");
        let c = d.append_element(a, "c");
        assert_eq!(d.label_table().len(), 3);
        assert_eq!(d.label_id_of(b1), d.label_id_of(b2));
        assert_ne!(d.label_id_of(b1), d.label_id_of(c));
        let b_id = d.label_id("b").unwrap();
        assert_eq!(d.label_name(b_id), "b");
        assert_eq!(d.label_id("zzz"), None);
        let t = d.append_text(c, "hi");
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

    #[test]
    fn try_node_bounds_check() {
        let (d, ..) = small_doc();
        assert!(d.try_node(NodeId::from_index(99)).is_err());
        assert!(d.try_node(NodeId::from_index(0)).is_ok());
    }

    /// Flat column parts equivalent to `small_doc()`:
    /// `<a x="1"><b>hi</b><c/></a>`, ids a=0 b=1 t=2 c=3.
    fn small_parts() -> DocumentParts {
        DocumentParts {
            labels: vec!["a".into(), "b".into(), "c".into()],
            node_labels: vec![0, 1, Document::TEXT_LABEL, 2],
            parents: vec![Document::NO_PARENT, 0, 1, 0],
            text_offsets: vec![0, 2],
            text_blob: "hi".into(),
            attr_nodes: vec![0],
            attr_entries: vec![("x".into(), "1".into())],
            root: Some(NodeId(0)),
        }
    }

    #[test]
    fn from_raw_parts_behaves_like_builder_doc() {
        let built = small_doc().0;
        let loaded = Document::from_raw_parts(small_parts()).unwrap();
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
        assert_ne!(loaded.doc_id(), built.doc_id(), "raw-parts docs get fresh identity");
    }

    #[test]
    fn from_raw_parts_append_materializes_csr_children() {
        let mut d = Document::from_raw_parts(small_parts()).unwrap();
        let root = d.root().unwrap();
        let extra = d.append_element(root, "z");
        assert_eq!(d.children(root), &[NodeId(1), NodeId(3), extra]);
        assert_eq!(d.children(NodeId(1)), &[NodeId(2)], "untouched nodes keep their children");
        assert_eq!(d.parent(extra), Some(root));
        assert_eq!(d.text_opt(NodeId(2)), Some("hi"), "payloads survive materialization");
        assert_eq!(d.attribute(root, "x"), Some("1"));
    }

    #[test]
    fn from_raw_parts_set_attribute_materializes_nodes() {
        let mut d = Document::from_raw_parts(small_parts()).unwrap();
        let root = d.root().unwrap();
        d.set_attribute(root, "x", "2").unwrap();
        d.set_attribute(NodeId(3), "y", "3").unwrap();
        assert_eq!(d.attribute(root, "x"), Some("2"));
        assert_eq!(d.attribute(NodeId(3), "y"), Some("3"));
        assert_eq!(d.attributes(NodeId(1)), &[]);
        assert_eq!(d.children(root), &[NodeId(1), NodeId(3)], "structure unchanged");
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_arrays() {
        type Mutation = Box<dyn Fn(&mut DocumentParts)>;
        let bad_cases: Vec<(&str, Mutation)> = vec![
            ("parents too short", Box::new(|p| p.parents.truncate(2))),
            ("parent out of bounds", Box::new(|p| p.parents[1] = 77)),
            ("parent does not precede child", Box::new(|p| p.parents[1] = 2)),
            ("self parent", Box::new(|p| p.parents[1] = 1)),
            ("root has a parent", Box::new(|p| p.parents[0] = 0)),
            ("label out of bounds", Box::new(|p| p.labels.truncate(1))),
            ("root out of bounds", Box::new(|p| p.root = Some(NodeId(44)))),
            ("missing root", Box::new(|p| p.root = None)),
            ("duplicate label", Box::new(|p| p.labels[2] = "a".into())),
            ("text offsets wrong arity", Box::new(|p| p.text_offsets = vec![0])),
            ("text offsets not monotone", Box::new(|p| p.text_offsets = vec![2, 0])),
            ("text offsets nonzero start", Box::new(|p| p.text_offsets = vec![1, 2])),
            ("text offsets miss blob end", Box::new(|p| p.text_offsets = vec![0, 1])),
            (
                "text offset splits a char",
                Box::new(|p| {
                    p.text_blob = "é".into();
                    p.text_offsets = vec![0, 1, 2];
                    p.node_labels[1] = Document::TEXT_LABEL;
                }),
            ),
            (
                "text count mismatch",
                Box::new(|p| {
                    p.node_labels[3] = Document::TEXT_LABEL;
                }),
            ),
            ("attr arrays disagree", Box::new(|p| p.attr_nodes.clear())),
            (
                "attr owners decreasing",
                Box::new(|p| {
                    p.attr_nodes = vec![1, 0];
                    p.attr_entries.push(("y".into(), "2".into()));
                }),
            ),
            ("attr owner out of bounds", Box::new(|p| p.attr_nodes = vec![9])),
            ("attr owner is text", Box::new(|p| p.attr_nodes = vec![2])),
        ];
        for (what, corrupt) in bad_cases {
            let mut parts = small_parts();
            corrupt(&mut parts);
            match Document::from_raw_parts(parts) {
                Err(Error::MalformedParts(_)) => {}
                other => panic!("{what}: expected MalformedParts, got {other:?}"),
            }
        }
        let empty = Document::from_raw_parts(DocumentParts::default());
        assert!(empty.unwrap().is_empty(), "empty documents load without a root");
    }
}
