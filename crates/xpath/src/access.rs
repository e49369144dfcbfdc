//! # Accessibility view artifact for annotation-based serving
//!
//! The annotate serving approach (follow-up work to the paper:
//! arXiv:1112.2605, arXiv:1202.0018) answers view queries by evaluating
//! them *directly over the document* and filtering every step by
//! per-node accessibility, instead of rewriting the query. The
//! [`AccessView`] is the per-(spec, doc) artifact that makes this sound:
//! it records which document nodes are **view members** (they appear in
//! the §3.3 materialized view under their own label), which are
//! **dummy sources** (they appear label-hidden as `dummyN`), and the
//! *view parent* of each — the document node whose view element is the
//! member's parent in the materialized view. Child and descendant axes
//! over the view then become `view_parent` probes and chain walks over
//! the document, and the dominant `//label` shape reduces to one
//! occurrence-list slice AND-ed against a dense [`NodeBitmap`].
//!
//! The artifact is built once per (spec, doc) by `sxv-core` (which owns
//! the σ expansion mirroring materialization) and cached by the engine;
//! this module only defines the queryable structure the plan executor
//! consumes.

use crate::error::{Error, Result};
use crate::plan::AxisTest;
use std::collections::BTreeMap;
use sxv_xml::{Document, NodeBitmap, NodeId, U32s};

/// The flat arrays behind an [`AccessView`], the input of
/// [`AccessView::from_raw_parts`] — the shape a persisted package
/// stores. Field meanings match the same-named [`AccessView`] fields;
/// `dummy_lists` is absent because it is derived from `dummy_labels`,
/// and the view-children CSR is absent because it is derived from
/// `view_parent` by the same counting sort [`AccessView::finalize`]
/// uses.
#[derive(Debug, Clone)]
pub struct AccessViewParts {
    /// Document node count the artifact covers.
    pub len: usize,
    /// Non-dummy member bitmap (must cover `len` ids).
    pub members: NodeBitmap,
    /// Dummy-source bitmap (must cover `len` ids).
    pub dummies: NodeBitmap,
    /// View element bitmap (must cover `len` ids).
    pub view_elements: NodeBitmap,
    /// Per-node view parent, `u32::MAX` for "none"; always a strict
    /// document ancestor, so `view_parent[v] < v`.
    pub view_parent: Vec<u32>,
    /// Dummy label per dummy source, sorted by node id.
    pub dummy_labels: Vec<(NodeId, String)>,
    /// Visible attributes per view label.
    pub visible_attrs: BTreeMap<String, Vec<String>>,
    /// §3.2-accessible node count.
    pub accessible_count: usize,
    /// The view root source node.
    pub root: Option<NodeId>,
}

/// Pre-derived columns for [`AccessView::from_packed`] — the zero-copy
/// package load path. Unlike [`AccessViewParts`], the view-children CSR
/// travels pre-derived (it is stored fat in the package), so assembly
/// needs no counting sort; the per-node columns may be buffer-borrowed
/// views.
#[derive(Debug)]
pub struct PackedAccessViewParts {
    /// Document node count the artifact covers.
    pub len: usize,
    /// Non-dummy member bitmap (must cover `len` ids).
    pub members: NodeBitmap,
    /// Dummy-source bitmap (must cover `len` ids).
    pub dummies: NodeBitmap,
    /// View element bitmap (must cover `len` ids).
    pub view_elements: NodeBitmap,
    /// Per-node view parent, `u32::MAX` for "none".
    pub view_parent: U32s,
    /// View-children CSR offsets (`len + 1` entries).
    pub child_offsets: U32s,
    /// View-children CSR ids, grouped by parent in document order.
    pub child_ids: U32s,
    /// Dummy label per dummy source, sorted by node id.
    pub dummy_labels: Vec<(NodeId, String)>,
    /// Visible attributes per view label.
    pub visible_attrs: BTreeMap<String, Vec<String>>,
    /// §3.2-accessible node count.
    pub accessible_count: usize,
    /// The view root source node.
    pub root: Option<NodeId>,
}

/// True iff `name` is a generated dummy label (the §3.4 renaming that
/// hides an inaccessible element type's name). Kept in sync with the
/// view derivation, which only mints `dummyN` names.
pub fn is_dummy_label(name: &str) -> bool {
    name.starts_with("dummy")
}

/// Sentinel for "no view parent" (only the root).
const NO_PARENT: u32 = u32::MAX;

/// Per-(spec, doc) view membership: which document nodes appear in the
/// materialized view, under which label, and under which view parent.
#[derive(Debug, Clone)]
pub struct AccessView {
    len: usize,
    /// Non-dummy view members (elements and text), bit per doc node.
    members: NodeBitmap,
    /// Sources of dummy-labelled view nodes.
    dummies: NodeBitmap,
    /// View *element* nodes: member elements plus dummies (`//*`'s
    /// filter; text members are excluded).
    view_elements: NodeBitmap,
    /// `view_parent[v]` = doc source of `v`'s parent in the view
    /// (`NO_PARENT` for the root and non-members). Always a strict
    /// document ancestor of `v`, so parent chains ascend node ids.
    view_parent: U32s,
    /// Dummy label per dummy source, sorted by node id.
    dummy_labels: Vec<(NodeId, String)>,
    /// Occurrence list per dummy label, document order.
    dummy_lists: BTreeMap<String, Vec<NodeId>>,
    /// Visible attributes per (non-dummy) view label.
    visible_attrs: BTreeMap<String, Vec<String>>,
    /// CSR view-children adjacency (built by [`AccessView::finalize`],
    /// or borrowed pre-derived from a package by
    /// [`AccessView::from_packed`]).
    child_offsets: U32s,
    child_ids: U32s,
    /// §3.2-accessible node count (for reporting).
    accessible_count: usize,
    root: Option<NodeId>,
}

impl AccessView {
    /// An empty artifact covering `len` document nodes. The builder
    /// records memberships and must call [`AccessView::finalize`].
    pub fn new(len: usize) -> AccessView {
        AccessView {
            len,
            members: NodeBitmap::new(len),
            dummies: NodeBitmap::new(len),
            view_elements: NodeBitmap::new(len),
            view_parent: U32s::from_vec(vec![NO_PARENT; len]),
            dummy_labels: Vec::new(),
            dummy_lists: BTreeMap::new(),
            visible_attrs: BTreeMap::new(),
            child_offsets: U32s::empty(),
            child_ids: U32s::empty(),
            accessible_count: 0,
            root: None,
        }
    }

    // --- builder surface (sxv-core's σ expansion) ---

    /// Record the view root (always a member, no view parent).
    pub fn record_root(&mut self, id: NodeId) {
        self.root = Some(id);
        self.members.set(id);
        self.view_elements.set(id);
    }

    /// Record a non-dummy member under `parent`; `is_element` is false
    /// for text members (the `str` production's children).
    pub fn record_member(&mut self, id: NodeId, parent: NodeId, is_element: bool) {
        self.members.set(id);
        if is_element {
            self.view_elements.set(id);
        }
        self.view_parent.make_mut()[id.index()] = id_to_u32(parent);
    }

    /// Record a dummy source under `parent` with its minted view label.
    pub fn record_dummy(&mut self, id: NodeId, parent: NodeId, label: &str) {
        self.dummies.set(id);
        self.view_elements.set(id);
        self.view_parent.make_mut()[id.index()] = id_to_u32(parent);
        self.dummy_labels.push((id, label.to_string()));
        self.dummy_lists.entry(label.to_string()).or_default().push(id);
    }

    /// Has `id` already been given a view membership? (Each document
    /// node gets at most one; first recording wins.)
    pub fn is_recorded(&self, id: NodeId) -> bool {
        self.members.contains(id) || self.dummies.contains(id)
    }

    /// Attach the visible-attribute sets per view label.
    pub fn set_visible_attrs(&mut self, attrs: BTreeMap<String, Vec<String>>) {
        self.visible_attrs = attrs;
    }

    /// Record how many document nodes are §3.2-accessible.
    pub fn set_accessible_count(&mut self, n: usize) {
        self.accessible_count = n;
    }

    /// Sort the sparse side tables and build the view-children CSR.
    /// Must be called once after all recordings.
    pub fn finalize(&mut self) {
        self.dummy_labels.sort_by_key(|entry| entry.0);
        for list in self.dummy_lists.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        let (offsets, ids) = view_children_csr(self.len, self.view_parent.as_slice());
        self.child_offsets = U32s::from_vec(offsets);
        self.child_ids = U32s::from_vec(ids);
    }

    /// Rehydrate an artifact from flat arrays (the persisted-package
    /// load path), skipping the σ-expansion build entirely. The derived
    /// `dummy_lists` occurrence index is rebuilt from `dummy_labels` in
    /// one pass and the view-children CSR from `view_parent` by the
    /// [`AccessView::finalize`] counting sort; everything else is
    /// validated with a constant number of O(n) scans and moved into
    /// place without per-node work.
    pub fn from_raw_parts(parts: AccessViewParts) -> Result<AccessView> {
        let AccessViewParts {
            len,
            members,
            dummies,
            view_elements,
            view_parent,
            dummy_labels,
            visible_attrs,
            accessible_count,
            root,
        } = parts;
        let malformed = |msg: String| Error::MalformedParts(msg);
        for (bitmap, what) in
            [(&members, "members"), (&dummies, "dummies"), (&view_elements, "view elements")]
        {
            if bitmap.len() != len {
                return Err(malformed(format!(
                    "{what} bitmap covers {} ids, artifact covers {len}",
                    bitmap.len()
                )));
            }
        }
        if view_parent.len() != len {
            return Err(malformed(format!(
                "view parent table has {} entries for {len} nodes",
                view_parent.len()
            )));
        }
        if view_parent.iter().enumerate().any(|(i, &p)| p != NO_PARENT && p as usize >= i) {
            return Err(malformed(
                "view parent must be a strict document ancestor (parent id < node id)".into(),
            ));
        }
        if dummy_labels.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(malformed("dummy labels are not sorted by node id".into()));
        }
        if dummy_labels.iter().any(|(id, _)| id.index() >= len) {
            return Err(malformed(format!("dummy source out of bounds ({len} nodes)")));
        }
        if let Some(r) = root {
            if r.index() >= len {
                return Err(malformed(format!("root {} out of bounds ({len} nodes)", r.index())));
            }
        }
        let mut dummy_lists: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        // dummy_labels is id-sorted, so each per-label list comes out in
        // document order without a sort.
        for (id, label) in &dummy_labels {
            dummy_lists.entry(label.clone()).or_default().push(*id);
        }
        let (child_offsets, child_ids) = view_children_csr(len, &view_parent);
        Ok(AccessView {
            len,
            members,
            dummies,
            view_elements,
            view_parent: U32s::from_vec(view_parent),
            dummy_labels,
            dummy_lists,
            visible_attrs,
            child_offsets: U32s::from_vec(child_offsets),
            child_ids: U32s::from_vec(child_ids),
            accessible_count,
            root,
        })
    }

    /// Assemble an artifact from pre-derived, pre-validated packed
    /// columns — the zero-copy package load path. The view-children CSR
    /// arrives pre-derived from the package (no counting sort), and only
    /// O(1) arity facts are checked: the columns are trusted, integrity
    /// being established by the package's per-section checksums (see
    /// `Document::from_packed` for the trust-model discussion). The
    /// small side tables (dummy labels, visible attributes) stay owned
    /// and are checked as before — they are DTD-sized, not
    /// document-sized.
    pub fn from_packed(parts: PackedAccessViewParts) -> Result<AccessView> {
        let PackedAccessViewParts {
            len,
            members,
            dummies,
            view_elements,
            view_parent,
            child_offsets,
            child_ids,
            dummy_labels,
            visible_attrs,
            accessible_count,
            root,
        } = parts;
        let malformed = |msg: String| Error::MalformedParts(msg);
        for (bitmap, what) in
            [(&members, "members"), (&dummies, "dummies"), (&view_elements, "view elements")]
        {
            if bitmap.len() != len {
                return Err(malformed(format!(
                    "{what} bitmap covers {} ids, artifact covers {len}",
                    bitmap.len()
                )));
            }
        }
        if view_parent.len() != len {
            return Err(malformed(format!(
                "view parent table has {} entries for {len} nodes",
                view_parent.len()
            )));
        }
        if child_offsets.len() != len + 1 {
            return Err(malformed(format!(
                "view-children CSR: expected {} offsets, got {}",
                len + 1,
                child_offsets.len()
            )));
        }
        if child_offsets.as_slice().last().copied().unwrap_or(0) as usize != child_ids.len() {
            return Err(malformed(format!(
                "view-children CSR: offsets end at {:?} but there are {} child ids",
                child_offsets.as_slice().last(),
                child_ids.len()
            )));
        }
        if dummy_labels.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(malformed("dummy labels are not sorted by node id".into()));
        }
        if dummy_labels.iter().any(|(id, _)| id.index() >= len) {
            return Err(malformed(format!("dummy source out of bounds ({len} nodes)")));
        }
        if let Some(r) = root {
            if r.index() >= len {
                return Err(malformed(format!("root {} out of bounds ({len} nodes)", r.index())));
            }
        }
        let mut dummy_lists: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (id, label) in &dummy_labels {
            dummy_lists.entry(label.clone()).or_default().push(*id);
        }
        Ok(AccessView {
            len,
            members,
            dummies,
            view_elements,
            view_parent,
            dummy_labels,
            dummy_lists,
            visible_attrs,
            child_offsets,
            child_ids,
            accessible_count,
            root,
        })
    }

    // --- executor surface ---

    /// The document root (= view root source), if the view is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    // --- raw store surface (persisted packages) ---

    /// The raw per-node view-parent table (`u32::MAX` = no parent).
    pub fn view_parent_table(&self) -> &[u32] {
        self.view_parent.as_slice()
    }

    /// The raw CSR view-children offsets (`len + 1` entries).
    pub fn child_offset_table(&self) -> &[u32] {
        self.child_offsets.as_slice()
    }

    /// The raw CSR view-children ids.
    pub fn child_id_table(&self) -> &[NodeId] {
        self.child_ids.as_ids()
    }

    /// The id-sorted (dummy source, minted label) table.
    pub fn dummy_label_table(&self) -> &[(NodeId, String)] {
        &self.dummy_labels
    }

    /// The visible-attribute sets per view label.
    pub fn visible_attr_table(&self) -> &BTreeMap<String, Vec<String>> {
        &self.visible_attrs
    }

    /// Does `id` appear in the view at all (member or dummy source)?
    pub fn in_view(&self, id: NodeId) -> bool {
        self.members.contains(id) || self.dummies.contains(id)
    }

    /// Is `id` a non-dummy view member?
    pub fn is_member(&self, id: NodeId) -> bool {
        self.members.contains(id)
    }

    /// Is `id` the source of a dummy view node?
    pub fn is_dummy(&self, id: NodeId) -> bool {
        self.dummies.contains(id)
    }

    /// The dense bitmap of non-dummy members.
    pub fn members(&self) -> &NodeBitmap {
        &self.members
    }

    /// The dense bitmap of dummy sources.
    pub fn dummies(&self) -> &NodeBitmap {
        &self.dummies
    }

    /// The dense bitmap of view *element* nodes (member elements plus
    /// dummies) — the `//*` filter.
    pub fn elements(&self) -> &NodeBitmap {
        &self.view_elements
    }

    /// The view parent of `id` (`None` for the root and non-members).
    pub fn view_parent(&self, id: NodeId) -> Option<NodeId> {
        match self.view_parent.as_slice().get(id.index()) {
            Some(&p) if p != NO_PARENT => Some(NodeId::from_index(p as usize)),
            _ => None,
        }
    }

    /// The view children of `id`, in document order.
    pub fn view_children(&self, id: NodeId) -> &[NodeId] {
        match self.child_offsets.as_slice().get(id.index()..id.index() + 2) {
            Some(&[lo, hi]) => &self.child_ids.as_ids()[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The minted view label of a dummy source.
    pub fn dummy_label(&self, id: NodeId) -> Option<&str> {
        self.dummy_labels
            .binary_search_by(|(n, _)| n.cmp(&id))
            .ok()
            .map(|i| self.dummy_labels[i].1.as_str())
    }

    /// Document-order occurrence list of a dummy label.
    pub fn dummy_list(&self, label: &str) -> &[NodeId] {
        self.dummy_lists.get(label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Is `v` a proper *view* descendant of `anc`? Walks the view-parent
    /// chain (which strictly descends in node id, so it terminates fast
    /// and can stop early once it passes below `anc`).
    pub fn is_view_descendant(&self, v: NodeId, anc: NodeId) -> bool {
        // Every view node is a view descendant of the root.
        if Some(anc) == self.root {
            return v != anc && self.in_view(v);
        }
        let mut cur = self.view_parent(v);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            if p < anc {
                return false;
            }
            cur = self.view_parent(p);
        }
        false
    }

    /// Does the *view* node sourced at `v` match `test`? (A member's
    /// view label is its document label; a dummy's is its minted name.)
    pub fn test_matches(&self, doc: &Document, v: NodeId, test: &AxisTest) -> bool {
        match test {
            AxisTest::Label(l) => {
                if is_dummy_label(l) {
                    self.dummy_label(v) == Some(l.as_str())
                } else {
                    self.members.contains(v) && doc.label_opt(v) == Some(l.as_str())
                }
            }
            AxisTest::AnyElement => self.view_elements.contains(v),
            AxisTest::Text => self.members.contains(v) && doc.is_text(v),
        }
    }

    /// Is `attr` visible on the view node sourced at `v`? Dummies expose
    /// no attributes; members expose their label's visible set.
    pub fn attr_visible(&self, doc: &Document, v: NodeId, attr: &str) -> bool {
        if !self.members.contains(v) {
            return false;
        }
        match doc.label_opt(v) {
            Some(l) => {
                self.visible_attrs.get(l).map(|a| a.iter().any(|x| x == attr)).unwrap_or(false)
            }
            None => false,
        }
    }

    /// Number of document nodes the artifact covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-node documents.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Non-dummy member count.
    pub fn member_count(&self) -> usize {
        self.members.count_ones()
    }

    /// Dummy source count.
    pub fn dummy_count(&self) -> usize {
        self.dummies.count_ones()
    }

    /// §3.2-accessible node count recorded by the builder.
    pub fn accessible_count(&self) -> usize {
        self.accessible_count
    }

    /// Approximate heap footprint in bytes (bitmaps, parent table, CSR
    /// and side tables).
    pub fn bytes(&self) -> usize {
        self.members.bytes()
            + self.dummies.bytes()
            + self.view_elements.bytes()
            + self.view_parent.len() * 4
            + self.child_offsets.len() * 4
            + self.child_ids.len() * 4
            + self
                .dummy_labels
                .iter()
                .map(|(_, l)| l.len() + std::mem::size_of::<(NodeId, String)>())
                .sum::<usize>()
            + self.dummy_lists.iter().map(|(l, v)| l.len() + v.len() * 4).sum::<usize>()
    }
}

fn id_to_u32(id: NodeId) -> u32 {
    id.index() as u32
}

/// View-children CSR from the parent table by counting sort: count each
/// parent's children, prefix-sum into offsets, then fill. Iterating
/// children in ascending id order fills each parent's CSR slot in
/// document order. Shared by [`AccessView::finalize`] (builder path)
/// and [`AccessView::from_raw_parts`] (package-load path), so the
/// persisted format only ships `view_parent`.
fn view_children_csr(len: usize, view_parent: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; len + 1];
    for &p in view_parent {
        if p != NO_PARENT {
            offsets[p as usize + 1] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut ids = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
    let mut cursor = offsets.clone();
    for (i, &p) in view_parent.iter().enumerate() {
        if p != NO_PARENT {
            let slot = &mut cursor[p as usize];
            ids[*slot as usize] = i as u32;
            *slot += 1;
        }
    }
    (offsets, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_xml::parse;

    /// Hand-build the artifact for `<r><hide><a>x</a></hide><b/></r>`
    /// with view `r -> a*, dummy1; a -> str; dummy1 -> ε` (σ(r, a) =
    /// hide/a short-cut; `b` hidden behind dummy1... artificial but
    /// structurally representative).
    fn sample() -> (Document, AccessView) {
        let doc = parse("<r><hide><a>x</a></hide><b/></r>").unwrap();
        // ids: r=0, hide=1, a=2, text=3, b=4
        let mut av = AccessView::new(doc.len());
        let (r, a, t, b) = (
            NodeId::from_index(0),
            NodeId::from_index(2),
            NodeId::from_index(3),
            NodeId::from_index(4),
        );
        av.record_root(r);
        av.record_member(a, r, true);
        av.record_member(t, a, false);
        av.record_dummy(b, r, "dummy1");
        av.set_visible_attrs(BTreeMap::from([("a".to_string(), vec!["id".to_string()])]));
        av.finalize();
        (doc, av)
    }

    #[test]
    fn membership_and_parents() {
        let (_, av) = sample();
        let (r, hide, a, t, b) = (
            NodeId::from_index(0),
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::from_index(3),
            NodeId::from_index(4),
        );
        assert!(av.is_member(r) && av.is_member(a) && av.is_member(t));
        assert!(!av.in_view(hide), "short-cut skips the hidden element");
        assert!(av.is_dummy(b) && !av.is_member(b));
        assert_eq!(av.view_parent(a), Some(r));
        assert_eq!(av.view_parent(t), Some(a));
        assert_eq!(av.view_parent(r), None);
        assert_eq!(av.view_children(r), &[a, b]);
        assert_eq!(av.view_children(a), &[t]);
        assert_eq!(av.dummy_label(b), Some("dummy1"));
        assert_eq!(av.dummy_list("dummy1"), &[b]);
        assert_eq!(av.member_count(), 3);
        assert_eq!(av.dummy_count(), 1);
    }

    #[test]
    fn view_descendant_chain_walk() {
        let (_, av) = sample();
        let (r, hide, a, t) = (
            NodeId::from_index(0),
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::from_index(3),
        );
        assert!(av.is_view_descendant(t, r));
        assert!(av.is_view_descendant(t, a));
        assert!(av.is_view_descendant(a, r));
        assert!(!av.is_view_descendant(a, a));
        assert!(!av.is_view_descendant(hide, r), "non-members are not view nodes");
        assert!(!av.is_view_descendant(r, a));
    }

    #[test]
    fn tests_respect_view_labels() {
        let (doc, av) = sample();
        let (a, t, b) = (NodeId::from_index(2), NodeId::from_index(3), NodeId::from_index(4));
        assert!(av.test_matches(&doc, a, &AxisTest::Label("a".into())));
        assert!(!av.test_matches(&doc, b, &AxisTest::Label("b".into())), "dummy hides its label");
        assert!(av.test_matches(&doc, b, &AxisTest::Label("dummy1".into())));
        assert!(av.test_matches(&doc, b, &AxisTest::AnyElement));
        assert!(av.test_matches(&doc, t, &AxisTest::Text));
        assert!(!av.test_matches(&doc, t, &AxisTest::AnyElement));
    }

    #[test]
    fn attribute_visibility() {
        let (doc, av) = sample();
        let (a, b) = (NodeId::from_index(2), NodeId::from_index(4));
        assert!(av.attr_visible(&doc, a, "id"));
        assert!(!av.attr_visible(&doc, a, "secret"));
        assert!(!av.attr_visible(&doc, b, "id"), "dummies expose no attributes");
    }

    #[test]
    fn footprint_reported() {
        let (_, av) = sample();
        assert!(av.bytes() > 0);
        assert!(!is_dummy_label("patient"));
        assert!(is_dummy_label("dummy7"));
    }

    fn parts_of(av: &AccessView) -> AccessViewParts {
        AccessViewParts {
            len: av.len(),
            members: av.members().clone(),
            dummies: av.dummies().clone(),
            view_elements: av.elements().clone(),
            view_parent: av.view_parent_table().to_vec(),
            dummy_labels: av.dummy_label_table().to_vec(),
            visible_attrs: av.visible_attr_table().clone(),
            accessible_count: av.accessible_count(),
            root: av.root(),
        }
    }

    #[test]
    fn from_raw_parts_roundtrips_executor_surface() {
        let (doc, av) = sample();
        let back = AccessView::from_raw_parts(parts_of(&av)).unwrap();
        assert_eq!(back.root(), av.root());
        assert_eq!(back.len(), av.len());
        assert_eq!(back.member_count(), av.member_count());
        assert_eq!(back.dummy_count(), av.dummy_count());
        assert_eq!(back.accessible_count(), av.accessible_count());
        for id in doc.all_ids() {
            assert_eq!(back.in_view(id), av.in_view(id), "{id}");
            assert_eq!(back.is_member(id), av.is_member(id), "{id}");
            assert_eq!(back.is_dummy(id), av.is_dummy(id), "{id}");
            assert_eq!(back.view_parent(id), av.view_parent(id), "{id}");
            assert_eq!(back.view_children(id), av.view_children(id), "{id}");
            assert_eq!(back.dummy_label(id), av.dummy_label(id), "{id}");
        }
        assert_eq!(back.dummy_list("dummy1"), av.dummy_list("dummy1"));
        let a = NodeId::from_index(2);
        assert!(back.attr_visible(&doc, a, "id"));
        assert!(!back.attr_visible(&doc, a, "secret"));
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_arrays() {
        let (_, av) = sample();
        type Mutation = Box<dyn Fn(&mut AccessViewParts)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("members bitmap domain", Box::new(|p| p.members = NodeBitmap::new(3))),
            ("dummies bitmap domain", Box::new(|p| p.dummies = NodeBitmap::new(99))),
            ("parent table arity", Box::new(|p| p.view_parent.truncate(2))),
            ("parent out of bounds", Box::new(|p| p.view_parent[2] = 77)),
            ("parent not an ancestor", Box::new(|p| p.view_parent[2] = 2)),
            (
                "dummy table unsorted",
                Box::new(|p| p.dummy_labels.push((NodeId::from_index(0), "dummy9".into()))),
            ),
            (
                "dummy out of bounds",
                Box::new(|p| p.dummy_labels = vec![(NodeId::from_index(50), "dummy9".into())]),
            ),
            ("root out of bounds", Box::new(|p| p.root = Some(NodeId::from_index(50)))),
        ];
        for (what, corrupt) in cases {
            let mut parts = parts_of(&av);
            corrupt(&mut parts);
            match AccessView::from_raw_parts(parts) {
                Err(Error::MalformedParts(_)) => {}
                other => panic!("{what}: expected MalformedParts, got {other:?}"),
            }
        }
    }
}
