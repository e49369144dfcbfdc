//! Label graphs: a root label plus parent→child element-label edges.
//!
//! A [`LabelGraph`] describes which element labels may nest directly
//! under which. Built from a DTD it is the schema's structure; built from
//! a document ([`crate::DocIndex::label_graph`]) it is the structure the
//! document actually has. A document *conforms* to a schema graph when
//! its root label is the schema's root and each of its edges is a schema
//! edge ([`LabelGraph::is_subgraph_of`]) — the precondition under which a
//! query planner may replace a path by a cheaper one the schema proves
//! equivalent.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Source of [`LabelGraph`] identities; never reused within a process.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// A root label plus the parent→child edges between element labels.
/// Labels are interned once, in sorted order, so ids are dense and two
/// graphs with equal content are equal field for field.
#[derive(Debug, Clone)]
pub struct LabelGraph {
    /// Identity for memoized conformance verdicts (clones share it; their
    /// content is equal, so a shared verdict stays correct).
    id: u64,
    root: u32,
    labels: Vec<String>,
    ids: HashMap<String, u32>,
    /// Sorted, deduplicated child label ids per label id.
    children: Vec<Vec<u32>>,
    /// Per label id, the labels one or more edges below it, as bitset
    /// words; built on first use.
    below: OnceLock<Vec<Vec<u64>>>,
}

impl LabelGraph {
    /// Most labels a graph may have for a query planner to lower paths
    /// against it. [`crate::DocIndex::label_graph`] builds no graph for a
    /// document with more label names, so such a document conforms to no
    /// graph a planner uses.
    pub const MAX_LABELS: usize = 1024;

    /// Build a graph from its root label and parent→child label edges
    /// (duplicates allowed). The root label is always interned.
    pub fn new<S: AsRef<str>>(root: &str, edges: impl IntoIterator<Item = (S, S)>) -> LabelGraph {
        let edges: Vec<(S, S)> = edges.into_iter().collect();
        let mut names: BTreeSet<&str> = BTreeSet::from([root]);
        for (p, c) in &edges {
            names.insert(p.as_ref());
            names.insert(c.as_ref());
        }
        let labels: Vec<String> = names.into_iter().map(str::to_string).collect();
        let ids: HashMap<String, u32> =
            labels.iter().enumerate().map(|(i, l)| (l.clone(), i as u32)).collect();
        let mut children = vec![Vec::new(); labels.len()];
        for (p, c) in &edges {
            children[ids[p.as_ref()] as usize].push(ids[c.as_ref()]);
        }
        for kids in &mut children {
            kids.sort_unstable();
            kids.dedup();
        }
        LabelGraph {
            id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            root: ids[root],
            labels,
            ids,
            children,
            below: OnceLock::new(),
        }
    }

    /// Process-unique identity (shared by clones), keying memoized
    /// conformance verdicts.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The root label.
    pub fn root(&self) -> &str {
        &self.labels[self.root as usize]
    }

    /// The root label's interned id.
    pub fn root_id(&self) -> u32 {
        self.root
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the graph has no labels (never: the root is interned).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The interned id of `label`, if the graph mentions it.
    pub fn label_id(&self, label: &str) -> Option<u32> {
        self.ids.get(label).copied()
    }

    /// Child label ids of a label id, ascending.
    pub fn children(&self, id: u32) -> &[u32] {
        &self.children[id as usize]
    }

    /// Whether `parent → child` is an edge.
    pub fn has_edge(&self, parent: u32, child: u32) -> bool {
        self.children[parent as usize].binary_search(&child).is_ok()
    }

    /// The labels one or more edges below label `id`, as bitset words
    /// (bit `c` of word `c / 64` set for label id `c`). All rows are built
    /// on the first call: O(len · (len + edges)) time, len² bits.
    pub fn below(&self, id: u32) -> &[u64] {
        &self.below.get_or_init(|| {
            let n = self.labels.len();
            (0..n)
                .map(|start| {
                    let mut row = vec![0u64; n.div_ceil(64)];
                    let mut stack: Vec<u32> = self.children[start].clone();
                    while let Some(c) = stack.pop() {
                        let (w, m) = (c as usize / 64, 1u64 << (c % 64));
                        if row[w] & m == 0 {
                            row[w] |= m;
                            stack.extend_from_slice(&self.children[c as usize]);
                        }
                    }
                    row
                })
                .collect()
        })[id as usize]
    }

    /// Whether this graph conforms to `schema`: the same root label, and
    /// every edge of this graph is an edge of `schema`.
    pub fn is_subgraph_of(&self, schema: &LabelGraph) -> bool {
        if self.root() != schema.root() {
            return false;
        }
        let map: Vec<Option<u32>> = self.labels.iter().map(|l| schema.label_id(l)).collect();
        self.children.iter().enumerate().all(|(p, kids)| {
            kids.is_empty()
                || map[p].is_some_and(|sp| {
                    kids.iter().all(|&c| map[c as usize].is_some_and(|sc| schema.has_edge(sp, sc)))
                })
        })
    }
}

impl PartialEq for LabelGraph {
    fn eq(&self, other: &LabelGraph) -> bool {
        self.root == other.root && self.labels == other.labels && self.children == other.children
    }
}

impl Eq for LabelGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_sorted_and_compares_by_content() {
        let a = LabelGraph::new("r", [("r", "b"), ("r", "a"), ("a", "b"), ("r", "a")]);
        let b = LabelGraph::new("r", [("a", "b"), ("r", "a"), ("r", "b")]);
        assert_eq!(a, b);
        assert_ne!(a.id(), b.id(), "identities are per construction");
        assert_eq!(a.len(), 3);
        assert_eq!(a.root(), "r");
        let (r, x, y) =
            (a.label_id("r").unwrap(), a.label_id("a").unwrap(), a.label_id("b").unwrap());
        assert_eq!(a.children(r), &[x, y]);
        assert!(a.has_edge(x, y) && !a.has_edge(y, x));
        assert_eq!((a.children(x), a.children(y)), (&[y][..], &[][..]));
        assert_eq!(a.below(r), &[0b111 & !(1 << r)], "r reaches a and b, not itself");
        assert_eq!(a.below(y), &[0], "b is a leaf");
        let cyclic = LabelGraph::new("p", [("p", "s"), ("s", "p")]);
        assert_eq!(cyclic.below(cyclic.root_id()), &[0b11], "a cycle reaches its start");
    }

    #[test]
    fn subgraph_needs_same_root_and_known_edges() {
        let schema = LabelGraph::new("r", [("r", "a"), ("a", "b")]);
        assert!(LabelGraph::new("r", [("r", "a")]).is_subgraph_of(&schema));
        assert!(LabelGraph::new("r", Vec::<(&str, &str)>::new()).is_subgraph_of(&schema));
        assert!(!LabelGraph::new("a", [("a", "b")]).is_subgraph_of(&schema), "root differs");
        assert!(!LabelGraph::new("r", [("r", "b")]).is_subgraph_of(&schema), "edge not in schema");
        assert!(!LabelGraph::new("r", [("r", "z")]).is_subgraph_of(&schema), "label not in schema");
    }
}
