//! The DTD graph of §2: one node per element type, edges for the
//! parent/child relation, with reachability, recursion detection,
//! topological order and minimum-instance-height analyses.

use crate::normal::{Dtd, NormalContent};
use std::collections::{BTreeSet, HashMap};

/// Precomputed graph over a normal-form [`Dtd`].
///
/// Element types are addressed by dense indices for cheap set operations;
/// [`DtdGraph::index_of`]/[`DtdGraph::name_of`] convert.
#[derive(Debug, Clone)]
pub struct DtdGraph {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Unique child types per node, in production order.
    children: Vec<Vec<usize>>,
    /// Inverse edges.
    parents: Vec<Vec<usize>>,
    root: usize,
}

impl DtdGraph {
    /// Build the graph for a DTD.
    pub fn new(dtd: &Dtd) -> Self {
        let names: Vec<String> = dtd.productions().iter().map(|(n, _)| n.clone()).collect();
        let index: HashMap<String, usize> =
            names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let mut children = vec![Vec::new(); names.len()];
        let mut parents = vec![Vec::new(); names.len()];
        for (i, (_, content)) in dtd.productions().iter().enumerate() {
            let mut seen = BTreeSet::new();
            for child in content.child_types() {
                let j = index[child];
                if seen.insert(j) {
                    children[i].push(j);
                    parents[j].push(i);
                }
            }
        }
        let root = index[dtd.root()];
        DtdGraph { names, index, children, parents, root }
    }

    /// Number of element types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff the graph has no nodes (not constructible from a valid DTD).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Dense index of an element type.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Element-type name at a dense index.
    pub fn name_of(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Child node indices of `i`, unique, in production order.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Parent node indices of `i`.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// True iff the DTD is recursive (any type on a cycle).
    pub fn is_recursive(&self) -> bool {
        self.topological_order().is_none()
    }

    /// Per-node flags: reachable from the root (the root itself included).
    /// Types outside this set can never occur in a valid instance.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        seen[self.root] = true;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            for &c in &self.children[n] {
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// Per-node flags: the type has at least one finite instance
    /// (non-productive types arise only in inconsistent recursive DTDs,
    /// e.g. `a → (a, b)`).
    pub fn productive(&self, dtd: &Dtd) -> Vec<bool> {
        self.min_heights(dtd).into_iter().map(|h| h != usize::MAX).collect()
    }

    /// Topological order of a DAG DTD (root first). `None` if recursive.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.len()];
        for c in &self.children {
            for &j in c {
                indegree[j] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.len()).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = queue.pop() {
            order.push(n);
            for &j in &self.children[n] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Minimum height of any instance subtree rooted at each type
    /// (leaf/str nodes have height 0; `usize::MAX` marks types with no
    /// finite instance — possible only in inconsistent recursive DTDs).
    pub fn min_heights(&self, dtd: &Dtd) -> Vec<usize> {
        let n = self.len();
        let mut h = vec![usize::MAX; n];
        // Fixpoint: relax until stable. O(n·E) worst case — fine at DTD size.
        let mut changed = true;
        while changed {
            changed = false;
            for (i, name) in self.names.iter().enumerate() {
                let production = dtd.production(name).expect("declared");
                let candidate = match production {
                    NormalContent::Str | NormalContent::Empty => Some(0),
                    NormalContent::Star(_) => Some(0), // zero occurrences
                    NormalContent::Seq(items) => {
                        // All children required: 1 + max over children.
                        items
                            .iter()
                            .map(|c| h[self.index[c]])
                            .try_fold(0usize, |acc, ch| (ch != usize::MAX).then(|| acc.max(ch)))
                            .map(|m| m + 1)
                    }
                    NormalContent::Choice(items) => {
                        // One child required: 1 + min over children.
                        items
                            .iter()
                            .map(|c| h[self.index[c]])
                            .filter(|&ch| ch != usize::MAX)
                            .min()
                            .map(|m| m + 1)
                    }
                };
                if let Some(c) = candidate {
                    if c < h[i] {
                        h[i] = c;
                        changed = true;
                    }
                }
            }
        }
        h
    }

    /// Longest root-to-leaf path length in a DAG DTD graph (edge count).
    /// `None` for recursive DTDs (unbounded).
    pub fn max_depth(&self) -> Option<usize> {
        let order = self.topological_order()?;
        let mut depth = vec![0usize; self.len()];
        for &n in &order {
            for &j in &self.children[n] {
                depth[j] = depth[j].max(depth[n] + 1);
            }
        }
        depth.into_iter().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    fn graph(src: &str, root: &str) -> (Dtd, DtdGraph) {
        let d = parse_dtd(src, root).unwrap();
        let g = DtdGraph::new(&d);
        (d, g)
    }

    #[test]
    fn children_and_parents() {
        let (_, g) = graph("<!ELEMENT r (a, b)><!ELEMENT a (b)><!ELEMENT b EMPTY>", "r");
        let r = g.index_of("r").unwrap();
        let a = g.index_of("a").unwrap();
        let b = g.index_of("b").unwrap();
        assert_eq!(g.children(r), &[a, b]);
        assert_eq!(g.children(a), &[b]);
        let mut parents = g.parents(b).to_vec();
        parents.sort();
        assert_eq!(parents, vec![r, a]);
    }

    #[test]
    fn duplicate_child_types_deduped() {
        let (_, g) = graph("<!ELEMENT r (a, a)><!ELEMENT a EMPTY>", "r");
        let r = g.index_of("r").unwrap();
        assert_eq!(g.children(r).len(), 1);
    }

    #[test]
    fn non_recursive_dag() {
        let (_, g) =
            graph("<!ELEMENT r (a, b)><!ELEMENT a (c)><!ELEMENT b (c)><!ELEMENT c EMPTY>", "r");
        assert!(!g.is_recursive());
        let order = g.topological_order().unwrap();
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for i in 0..g.len() {
            for &j in g.children(i) {
                assert!(pos[&i] < pos[&j], "topological order violated");
            }
        }
        assert_eq!(g.max_depth(), Some(2));
    }

    #[test]
    fn direct_recursion_detected() {
        let (_, g) = graph("<!ELEMENT a (a | b)><!ELEMENT b EMPTY>", "a");
        assert!(g.is_recursive());
        assert!(g.topological_order().is_none());
        assert!(g.max_depth().is_none());
    }

    #[test]
    fn indirect_recursion_detected() {
        let (_, g) = graph(
            "<!ELEMENT a (b | d)><!ELEMENT b (c)><!ELEMENT c (a | d)><!ELEMENT d EMPTY>",
            "a",
        );
        assert!(g.is_recursive());
    }

    #[test]
    fn min_heights_consistent_recursive_dtd() {
        // a -> a | b : minimal instance of a is a(b), height 1+0... b is EMPTY so
        // min_height(b)=0, min_height(a)=1.
        let (d, g) = graph("<!ELEMENT a (a | b)><!ELEMENT b EMPTY>", "a");
        let h = g.min_heights(&d);
        assert_eq!(h[g.index_of("b").unwrap()], 0);
        assert_eq!(h[g.index_of("a").unwrap()], 1);
    }

    #[test]
    fn min_heights_star_is_zero() {
        let (d, g) = graph("<!ELEMENT a (a*)>", "a");
        let h = g.min_heights(&d);
        assert_eq!(h[g.index_of("a").unwrap()], 0);
    }

    #[test]
    fn min_heights_inconsistent_type_is_unbounded() {
        // a -> a, b : `a` requires itself, no finite instance.
        let (d, g) = graph("<!ELEMENT a (a, b)><!ELEMENT b EMPTY>", "a");
        let h = g.min_heights(&d);
        assert_eq!(h[g.index_of("a").unwrap()], usize::MAX);
    }

    #[test]
    fn reachable_and_productive_flags() {
        let (d, g) = graph(
            "<!ELEMENT r (a)><!ELEMENT a (b)><!ELEMENT b EMPTY><!ELEMENT z EMPTY>\
             <!ELEMENT w (w, b)>",
            "r",
        );
        let reach = g.reachable();
        assert!(reach[g.index_of("r").unwrap()], "root is reachable from itself");
        assert!(reach[g.index_of("b").unwrap()]);
        assert!(!reach[g.index_of("z").unwrap()]);
        assert!(!reach[g.index_of("w").unwrap()]);
        let prod = g.productive(&d);
        assert!(prod[g.index_of("r").unwrap()]);
        assert!(!prod[g.index_of("w").unwrap()], "w requires itself forever");
    }

    #[test]
    fn hospital_graph_shape() {
        let src = r#"
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo, test)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT staffInfo (staff*)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (name)>
<!ELEMENT nurse (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT test (#PCDATA)>
"#;
        let (_, g) = graph(src, "hospital");
        assert!(!g.is_recursive());
    }
}
