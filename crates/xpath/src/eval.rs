//! Set-at-a-time evaluation of fragment-`C` queries over `sxv-xml` trees.
//!
//! `v⟦p⟧` follows §2 of the paper: the result of `p` at a context node `v`
//! is the set of nodes reachable via `p` from `v`; a qualifier `[p]` holds
//! iff `v⟦p⟧` is non-empty, and `[p = c]` holds iff `v⟦p⟧` contains a node
//! whose string value equals `c` (for elements, the string value is the
//! concatenated text of the subtree, as in XPath).
//!
//! Evaluation is *set-at-a-time*: each step maps a context node-set to a
//! result node-set with per-step deduplication, so query evaluation is
//! polynomial (the same complexity class as the Gottlob–Koch–Pichler
//! evaluator the paper benchmarks with, which is what keeps the relative
//! timings of §6 meaningful).

use crate::ast::{Path, Qualifier};
use std::collections::BTreeSet;
use sxv_xml::{DocIndex, Document, NodeId};

/// A context/result set: document-order-sorted node ids, plus a flag for
/// the virtual *document node* (the parent of the root element, used for
/// absolute paths).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    /// The virtual document node is in the set.
    pub doc: bool,
    /// Element/text nodes in the set.
    pub nodes: BTreeSet<NodeId>,
}

impl NodeSet {
    /// The empty set.
    pub fn empty() -> Self {
        NodeSet::default()
    }

    /// A singleton set of one tree node.
    pub fn single(id: NodeId) -> Self {
        NodeSet { doc: false, nodes: BTreeSet::from([id]) }
    }

    /// The singleton set of the virtual document node.
    pub fn document() -> Self {
        NodeSet { doc: true, nodes: BTreeSet::new() }
    }

    /// True iff nothing (not even the document node) is in the set.
    pub fn is_empty(&self) -> bool {
        !self.doc && self.nodes.is_empty()
    }

    fn union_with(&mut self, other: NodeSet) {
        self.doc |= other.doc;
        self.nodes.extend(other.nodes);
    }
}

/// Work counters for one evaluation — a machine-independent cost measure
/// (the benchmark harness reports these alongside wall-clock times).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Context/result nodes touched by axis steps.
    pub nodes_touched: u64,
    /// Qualifier evaluations performed.
    pub qualifier_checks: u64,
    /// Structural-index probes (interval lookups and memoized
    /// string-value reads) that replaced subtree scans.
    pub index_lookups: u64,
    /// Candidates examined during sorted-list merges (compiled plans
    /// only: child-step merges, staircase pruning, union merges).
    pub merge_steps: u64,
    /// Interval-containment probes — binary searches slicing a label /
    /// text / element occurrence list to one subtree's id range
    /// (compiled plans only; the tree-walk evaluator records none).
    pub interval_probes: u64,
}

impl EvalStats {
    /// Accumulate another evaluation's counters into this one.
    pub fn absorb(&mut self, other: EvalStats) {
        self.nodes_touched += other.nodes_touched;
        self.qualifier_checks += other.qualifier_checks;
        self.index_lookups += other.index_lookups;
        self.merge_steps += other.merge_steps;
        self.interval_probes += other.interval_probes;
    }

    /// Zero every counter (reuse one struct across evaluations).
    pub fn reset(&mut self) {
        *self = EvalStats::default();
    }

    /// Run one qualifier check, counting it — the shared helper every
    /// evaluator's `Filter` branch goes through, so the counting
    /// discipline lives in exactly one place.
    pub fn counted_check(&mut self, check: impl FnOnce(&mut Self) -> bool) -> bool {
        self.qualifier_checks += 1;
        check(self)
    }
}

/// Evaluate `p` with an explicit context node list. Returns the result in
/// document order (the virtual document node, if reached, is dropped).
pub fn eval(doc: &Document, p: &Path, context: &[NodeId]) -> Vec<NodeId> {
    let ctx = NodeSet { doc: false, nodes: context.iter().copied().collect() };
    let mut stats = EvalStats::default();
    eval_impl(doc, None, p, &ctx, &mut stats).nodes.into_iter().collect()
}

/// Evaluate at the root element using a structural index: `//label`,
/// `//text()` and `//*` steps become interval lookups instead of full
/// subtree scans (the structural-join technique of XML query engines).
pub fn eval_at_root_indexed(doc: &Document, index: &DocIndex, p: &Path) -> Vec<NodeId> {
    let mut stats = EvalStats::default();
    match doc.root_opt() {
        Some(root) => {
            let ctx = NodeSet::single(root);
            eval_impl(doc, Some(index), p, &ctx, &mut stats).nodes.into_iter().collect()
        }
        None => Vec::new(),
    }
}

/// Evaluate at the root element, also returning work counters.
pub fn eval_at_root_with_stats(doc: &Document, p: &Path) -> (Vec<NodeId>, EvalStats) {
    eval_at_root_counting(doc, None, p)
}

/// Indexed evaluation at the root element with work counters — the
/// serving-path entry point: axis steps *and* qualifier probes use the
/// structural index.
pub fn eval_at_root_indexed_with_stats(
    doc: &Document,
    index: &DocIndex,
    p: &Path,
) -> (Vec<NodeId>, EvalStats) {
    eval_at_root_counting(doc, Some(index), p)
}

fn eval_at_root_counting(
    doc: &Document,
    index: Option<&DocIndex>,
    p: &Path,
) -> (Vec<NodeId>, EvalStats) {
    let mut stats = EvalStats::default();
    let result = match doc.root_opt() {
        Some(root) => {
            let ctx = NodeSet::single(root);
            eval_impl(doc, index, p, &ctx, &mut stats).nodes.into_iter().collect()
        }
        None => Vec::new(),
    };
    (result, stats)
}

/// Evaluate `p` at the root *element* — the context the paper's rewriting
/// algorithm assumes (`rw(p, r)` is a query at the root of the view).
pub fn eval_at_root(doc: &Document, p: &Path) -> Vec<NodeId> {
    match doc.root_opt() {
        Some(root) => eval(doc, p, &[root]),
        None => Vec::new(),
    }
}

/// Evaluate `p` at the virtual document node, giving standard XPath
/// document-level semantics to absolute (`/a/b`) and descendant (`//a`)
/// queries alike.
pub fn eval_at_document(doc: &Document, p: &Path) -> Vec<NodeId> {
    let mut stats = EvalStats::default();
    eval_set_counting(doc, p, &NodeSet::document(), &mut stats).nodes.into_iter().collect()
}

/// Evaluate a qualifier at a single context node.
pub fn eval_qualifier(doc: &Document, q: &Qualifier, v: NodeId) -> bool {
    eval_qualifier_indexed(doc, None, q, v)
}

/// Evaluate a qualifier at a single context node, using the structural
/// index (when given) for its path probes and `[p = c]` string values.
pub fn eval_qualifier_indexed(
    doc: &Document,
    index: Option<&DocIndex>,
    q: &Qualifier,
    v: NodeId,
) -> bool {
    let mut stats = EvalStats::default();
    qual_holds(doc, index, q, &NodeSet::single(v), &mut stats)
}

/// Core evaluator: context set → result set.
pub fn eval_set(doc: &Document, p: &Path, ctx: &NodeSet) -> NodeSet {
    let mut stats = EvalStats::default();
    eval_impl(doc, None, p, ctx, &mut stats)
}

/// Core evaluator with work counters.
pub fn eval_set_counting(
    doc: &Document,
    p: &Path,
    ctx: &NodeSet,
    stats: &mut EvalStats,
) -> NodeSet {
    eval_impl(doc, None, p, ctx, stats)
}

/// Core evaluator with work counters and an optional structural index.
pub fn eval_set_counting_indexed(
    doc: &Document,
    index: Option<&DocIndex>,
    p: &Path,
    ctx: &NodeSet,
    stats: &mut EvalStats,
) -> NodeSet {
    eval_impl(doc, index, p, ctx, stats)
}

/// Shared evaluator body; `index` enables the structural fast path.
fn eval_impl(
    doc: &Document,
    index: Option<&DocIndex>,
    p: &Path,
    ctx: &NodeSet,
    stats: &mut EvalStats,
) -> NodeSet {
    if ctx.is_empty() {
        return NodeSet::empty();
    }
    match p {
        Path::Empty => ctx.clone(),
        Path::EmptySet => NodeSet::empty(),
        Path::Doc => NodeSet::document(),
        Path::Label(l) => child_step(doc, ctx, Some(l), stats),
        Path::Wildcard => child_step(doc, ctx, None, stats),
        Path::Text => {
            let mut out = NodeSet::empty();
            stats.nodes_touched += ctx.nodes.len() as u64;
            for &v in &ctx.nodes {
                for &c in doc.children(v) {
                    if doc.is_text(c) {
                        out.nodes.insert(c);
                    }
                }
            }
            out
        }
        Path::Step(p1, p2) => {
            let mid = eval_impl(doc, index, p1, ctx, stats);
            eval_impl(doc, index, p2, &mid, stats)
        }
        Path::Descendant(p1) => {
            if let Some(idx) = index {
                if let Some(out) = indexed_descendant(doc, idx, p1, ctx, stats) {
                    return out;
                }
            }
            let mut expanded = NodeSet::empty();
            expanded.doc = ctx.doc;
            if ctx.doc {
                if let Some(root) = doc.root_opt() {
                    expanded.nodes.extend(doc.descendants_or_self(root));
                }
            }
            for &v in &ctx.nodes {
                expanded.nodes.extend(doc.descendants_or_self(v));
            }
            stats.nodes_touched += expanded.nodes.len() as u64;
            eval_impl(doc, index, p1, &expanded, stats)
        }
        Path::Union(p1, p2) => {
            let mut out = eval_impl(doc, index, p1, ctx, stats);
            out.union_with(eval_impl(doc, index, p2, ctx, stats));
            out
        }
        Path::Closure(p1) => {
            // Reflexive-transitive closure: worklist over the frontier of
            // newly reached nodes. Terminates — the accumulator only grows
            // and is bounded by the node count.
            let mut acc = ctx.clone();
            let mut frontier = ctx.clone();
            loop {
                let step = eval_impl(doc, index, p1, &frontier, stats);
                let mut new = NodeSet::empty();
                new.doc = step.doc && !acc.doc;
                for &n in &step.nodes {
                    if !acc.nodes.contains(&n) {
                        new.nodes.insert(n);
                    }
                }
                if new.is_empty() {
                    break;
                }
                acc.union_with(new.clone());
                frontier = new;
            }
            acc
        }
        Path::Filter(p1, q) => {
            let base = eval_impl(doc, index, p1, ctx, stats);
            let nodes = base
                .nodes
                .into_iter()
                .filter(|&v| {
                    stats.counted_check(|s| qual_holds(doc, index, q, &NodeSet::single(v), s))
                })
                .collect();
            let doc_kept = base.doc && qual_holds(doc, index, q, &NodeSet::document(), stats);
            NodeSet { doc: doc_kept, nodes }
        }
    }
}

/// One child-axis step from every context node; `label == None` is `*`.
fn child_step(
    doc: &Document,
    ctx: &NodeSet,
    label: Option<&str>,
    stats: &mut EvalStats,
) -> NodeSet {
    let mut out = NodeSet::empty();
    stats.nodes_touched += ctx.nodes.len() as u64;
    // Resolve the label to its interned id once; per-child tests below
    // are then integer compares. A label absent from the document's
    // symbol table matches nothing.
    let want = match label {
        None => None,
        Some(l) => match doc.label_id(l) {
            Some(id) => Some(id),
            None => return out,
        },
    };
    if ctx.doc {
        if let Some(root) = doc.root_opt() {
            if want.is_none_or(|l| doc.label_id_of(root) == Some(l)) {
                out.nodes.insert(root);
            }
        }
    }
    for &v in &ctx.nodes {
        for &c in doc.children(v) {
            match (want, doc.label_id_of(c)) {
                (None, Some(_)) => {
                    out.nodes.insert(c);
                }
                (Some(l), Some(cl)) if l == cl => {
                    out.nodes.insert(c);
                }
                _ => {}
            }
        }
    }
    out
}

/// Structural fast path for `//p1`: handles the shapes where the first
/// step can be answered by interval lookup (`//l…`, `//*…`, `//text()`,
/// filters and unions thereof). Returns `None` to fall back to the scan.
fn indexed_descendant(
    doc: &Document,
    idx: &DocIndex,
    p1: &Path,
    ctx: &NodeSet,
    stats: &mut EvalStats,
) -> Option<NodeSet> {
    // Resolve the effective context roots (the document node expands to
    // the root element's subtree plus the root itself as a `//` child).
    let mut roots: Vec<NodeId> = ctx.nodes.iter().copied().collect();
    if ctx.doc {
        // descendant-or-self of the doc node = every tree node; a child
        // step from those = everything including the root element. The
        // interval of the root element covers all but the root itself, so
        // handle the root separately below via `include_self_of_doc`.
        roots.clear();
        roots.push(doc.root_opt()?);
    }
    let include_root_match = ctx.doc;
    match p1 {
        Path::Label(l) => {
            let mut out = NodeSet::empty();
            for &v in &roots {
                let hits = idx.labelled_descendants(l, v);
                stats.index_lookups += 1;
                stats.nodes_touched += hits.len() as u64;
                out.nodes.extend(hits.iter().copied());
                if include_root_match && doc.label_opt(v) == Some(l) {
                    out.nodes.insert(v);
                }
            }
            Some(out)
        }
        Path::Wildcard => {
            let mut out = NodeSet::empty();
            for &v in &roots {
                let end = idx.subtree_end(v);
                stats.index_lookups += 1;
                for i in v.index() + 1..=end.index() {
                    let id = NodeId::from_index(i);
                    if doc.is_element(id) {
                        out.nodes.insert(id);
                    }
                }
                stats.nodes_touched += (end.index() - v.index()) as u64;
                if include_root_match {
                    out.nodes.insert(v);
                }
            }
            Some(out)
        }
        Path::Text => {
            let mut out = NodeSet::empty();
            for &v in &roots {
                let hits = idx.text_descendants(v);
                stats.index_lookups += 1;
                stats.nodes_touched += hits.len() as u64;
                out.nodes.extend(hits.iter().copied());
            }
            Some(out)
        }
        Path::Step(a, b) => {
            let first = indexed_descendant(doc, idx, a, ctx, stats)?;
            Some(eval_impl(doc, Some(idx), b, &first, stats))
        }
        Path::Union(a, b) => {
            let mut out = indexed_descendant(doc, idx, a, ctx, stats)?;
            out.union_with(indexed_descendant(doc, idx, b, ctx, stats)?);
            Some(out)
        }
        Path::Filter(base, q) => {
            let base_set = indexed_descendant(doc, idx, base, ctx, stats)?;
            let nodes = base_set
                .nodes
                .into_iter()
                .filter(|&v| {
                    stats.counted_check(|s| qual_holds(doc, Some(idx), q, &NodeSet::single(v), s))
                })
                .collect();
            Some(NodeSet { doc: false, nodes })
        }
        // ε / nested // / ∅ / Doc: fall back to the generic scan.
        _ => None,
    }
}

fn qual_holds(
    doc: &Document,
    index: Option<&DocIndex>,
    q: &Qualifier,
    ctx: &NodeSet,
    stats: &mut EvalStats,
) -> bool {
    match q {
        Qualifier::True => true,
        Qualifier::False => false,
        Qualifier::Path(p) => !eval_impl(doc, index, p, ctx, stats).is_empty(),
        Qualifier::Eq(p, c) => {
            let result = eval_impl(doc, index, p, ctx, stats);
            match index {
                // Memoized string values: one O(log n) slice of the
                // index's text buffer per candidate instead of an
                // O(|subtree|) walk-and-concatenate.
                Some(idx) => result.nodes.iter().any(|&n| {
                    stats.index_lookups += 1;
                    idx.string_value(n) == *c
                }),
                None => result.nodes.iter().any(|&n| doc.string_value(n) == *c),
            }
        }
        Qualifier::Attr(name) => {
            ctx.nodes.iter().next().map(|&v| doc.attribute(v, name).is_some()).unwrap_or(false)
        }
        Qualifier::AttrEq(name, value) => ctx
            .nodes
            .iter()
            .next()
            .map(|&v| doc.attribute(v, name) == Some(value.as_str()))
            .unwrap_or(false),
        Qualifier::And(a, b) => {
            qual_holds(doc, index, a, ctx, stats) && qual_holds(doc, index, b, ctx, stats)
        }
        Qualifier::Or(a, b) => {
            qual_holds(doc, index, a, ctx, stats) || qual_holds(doc, index, b, ctx, stats)
        }
        Qualifier::Not(inner) => !qual_holds(doc, index, inner, ctx, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sxv_xml::parse as parse_xml;

    fn labels(doc: &Document, ids: &[NodeId]) -> Vec<String> {
        ids.iter()
            .map(|&i| doc.label_opt(i).map(str::to_string).unwrap_or_else(|| "#text".into()))
            .collect()
    }

    fn hospital() -> Document {
        parse_xml(
            r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo>
        <patient><name>Ann</name><wardNo>6</wardNo></patient>
      </patientInfo>
    </clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo></patient>
      <patient><name>Cat</name><wardNo>7</wardNo></patient>
    </patientInfo>
  </dept>
</hospital>"#,
        )
        .unwrap()
    }

    #[test]
    fn label_step() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("dept").unwrap());
        assert_eq!(labels(&d, &r), ["dept"]);
        let none = eval_at_root(&d, &parse("patient").unwrap());
        assert!(none.is_empty());
    }

    #[test]
    fn stats_reset_absorb_and_counted_check() {
        let mut a = EvalStats { nodes_touched: 3, qualifier_checks: 1, ..EvalStats::default() };
        let b = EvalStats { nodes_touched: 2, index_lookups: 5, ..EvalStats::default() };
        a.absorb(b);
        assert_eq!((a.nodes_touched, a.qualifier_checks, a.index_lookups), (5, 1, 5));
        // counted_check counts exactly one qualifier evaluation and hands
        // the same counters to the nested check.
        let hit = a.counted_check(|s| {
            s.index_lookups += 1;
            true
        });
        assert!(hit);
        assert_eq!((a.qualifier_checks, a.index_lookups), (2, 6));
        a.reset();
        assert_eq!(a, EvalStats::default());
    }

    #[test]
    fn path_composition() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("dept/patientInfo/patient").unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn descendant_finds_all() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("//patient").unwrap());
        assert_eq!(r.len(), 3);
        // The paper's Example 1.1 inference pair:
        let p1 = eval_at_root(&d, &parse("//dept//patientInfo/patient/name").unwrap());
        let p2 = eval_at_root(&d, &parse("//dept/patientInfo/patient/name").unwrap());
        assert_eq!(p1.len(), 3, "all patients");
        assert_eq!(p2.len(), 2, "only non-trial patients");
    }

    #[test]
    fn descendant_is_a_child_step_from_descendants_or_self() {
        // `//l` ≡ descendant-or-self::node()/child::l, so `//hospital` at the
        // hospital element matches nothing (no node has a hospital *child*),
        // while at the document node it matches the root element.
        let d = hospital();
        assert!(eval_at_root(&d, &parse("//hospital").unwrap()).is_empty());
        assert_eq!(eval_at_document(&d, &parse("//hospital").unwrap()).len(), 1);
        // `//.` at the context includes the context itself.
        let selfs = eval_at_root(&d, &parse("//.").unwrap());
        assert!(selfs.contains(&d.root().unwrap()));
    }

    #[test]
    fn wildcard() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("dept/*").unwrap());
        assert_eq!(labels(&d, &r), ["clinicalTrial", "patientInfo"]);
    }

    #[test]
    fn union_dedups() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("dept | dept").unwrap());
        assert_eq!(r.len(), 1);
        let r2 = eval_at_root(&d, &parse("(clinicalTrial | .)/patientInfo").unwrap());
        // over dept context this would be 2; at root, only via '.' → none.
        assert!(r2.is_empty());
        let depts = eval_at_root(&d, &parse("dept").unwrap());
        let r3 = eval(&d, &parse("(clinicalTrial | .)/patientInfo").unwrap(), &depts);
        assert_eq!(r3.len(), 2, "patientInfo both under dept and under its clinicalTrial");
    }

    #[test]
    fn qualifier_existence() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("//patient[name]").unwrap());
        assert_eq!(r.len(), 3);
        let none = eval_at_root(&d, &parse("//patient[treatment]").unwrap());
        assert!(none.is_empty());
    }

    #[test]
    fn qualifier_equality() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("//patient[wardNo='6']").unwrap());
        assert_eq!(r.len(), 2);
        let r7 = eval_at_root(&d, &parse("//patient[wardNo='7']/name").unwrap());
        assert_eq!(r7.len(), 1);
    }

    #[test]
    fn qualifier_boolean_ops() {
        let d = hospital();
        let both = eval_at_root(&d, &parse("//patient[name and wardNo]").unwrap());
        assert_eq!(both.len(), 3);
        let not6 = eval_at_root(&d, &parse("//patient[not(wardNo='6')]").unwrap());
        assert_eq!(not6.len(), 1);
        let either = eval_at_root(&d, &parse("//patient[wardNo='6' or wardNo='7']").unwrap());
        assert_eq!(either.len(), 3);
    }

    #[test]
    fn attribute_qualifiers() {
        let mut d = parse_xml("<r><a/><a/></r>").unwrap();
        let first = d.children(d.root().unwrap())[0];
        d.set_attribute(first, "accessibility", "1").unwrap();
        let r = eval_at_root(&d, &parse("a[@accessibility='1']").unwrap());
        assert_eq!(r, vec![first]);
        let has = eval_at_root(&d, &parse("a[@accessibility]").unwrap());
        assert_eq!(has, vec![first]);
        let eq0 = eval_at_root(&d, &parse("a[@accessibility='0']").unwrap());
        assert!(eq0.is_empty());
    }

    #[test]
    fn absolute_path_at_document() {
        let d = hospital();
        let r = eval_at_document(&d, &parse("/hospital/dept").unwrap());
        assert_eq!(r.len(), 1);
        let wrong = eval_at_document(&d, &parse("/dept").unwrap());
        assert!(wrong.is_empty());
        // // at document node reaches everything.
        let all = eval_at_document(&d, &parse("//patient").unwrap());
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_set_query() {
        let d = hospital();
        assert!(eval_at_root(&d, &Path::EmptySet).is_empty());
        assert!(eval_at_root(&d, &parse("∅").unwrap()).is_empty());
    }

    #[test]
    fn empty_path_is_identity() {
        let d = hospital();
        let root = d.root().unwrap();
        assert_eq!(eval(&d, &Path::Empty, &[root]), vec![root]);
    }

    #[test]
    fn epsilon_qualifier() {
        let d = hospital();
        let depts = eval_at_root(&d, &parse("dept").unwrap());
        let with = eval(&d, &parse(".[clinicalTrial]").unwrap(), &depts);
        assert_eq!(with, depts);
        let without = eval(&d, &parse(".[missing]").unwrap(), &depts);
        assert!(without.is_empty());
    }

    #[test]
    fn results_in_document_order() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("//patient/name").unwrap());
        let mut sorted = r.clone();
        sorted.sort();
        assert_eq!(r, sorted);
        let values: Vec<String> = r.iter().map(|&n| d.string_value(n)).collect();
        assert_eq!(values, ["Ann", "Bob", "Cat"]);
    }

    #[test]
    fn descendant_into_qualifier() {
        let d = hospital();
        let r = eval_at_root(&d, &parse("dept[//wardNo='7']").unwrap());
        assert_eq!(r.len(), 1);
        let none = eval_at_root(&d, &parse("dept[//wardNo='9']").unwrap());
        assert!(none.is_empty());
    }

    #[test]
    fn text_nodes_reachable_via_descendant() {
        let d = parse_xml("<r><a>hello</a></r>").unwrap();
        let all = eval_at_root(&d, &parse("//.").unwrap());
        // root, a, text
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn text_selector_selects_text_children() {
        let d = parse_xml("<r><a>x</a><b><c>y</c></b>tail</r>").unwrap();
        let direct = eval_at_root(&d, &parse("text()").unwrap());
        assert_eq!(direct.len(), 1, "only the root's own text child");
        assert_eq!(d.text(direct[0]).unwrap(), "tail");
        let a_text = eval_at_root(&d, &parse("a/text()").unwrap());
        assert_eq!(a_text.len(), 1);
        assert_eq!(d.text(a_text[0]).unwrap(), "x");
        let all = eval_at_root(&d, &parse("//text()").unwrap());
        assert_eq!(all.len(), 3);
        // text nodes have no children: further steps yield nothing.
        assert!(eval_at_root(&d, &parse("a/text()/a").unwrap()).is_empty());
        // Eq on the text itself.
        let x = eval_at_root(&d, &parse("//text()[.='y']").unwrap());
        assert_eq!(x.len(), 1);
    }

    #[test]
    fn indexed_evaluation_matches_scan() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        for q in [
            "//patient",
            "//patient/name",
            "//dept//patientInfo/patient/name",
            "//patient[wardNo='6']",
            "//name | //wardNo",
            "//text()",
            "//*",
            "dept//patient",
            "//patientInfo//name",
            "//.",
            "//dept/*",
        ] {
            let p = parse(q).unwrap();
            assert_eq!(eval_at_root(&d, &p), eval_at_root_indexed(&d, &idx, &p), "{q}");
        }
    }

    #[test]
    fn indexed_evaluation_touches_fewer_nodes() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let p = parse("//wardNo").unwrap();
        let (r1, scan) = eval_at_root_with_stats(&d, &p);
        let mut stats = EvalStats::default();
        let ctx = NodeSet::single(d.root().unwrap());
        let r2 = eval_impl(&d, Some(&idx), &p, &ctx, &mut stats);
        assert_eq!(r1, r2.nodes.into_iter().collect::<Vec<_>>());
        assert!(
            stats.nodes_touched < scan.nodes_touched,
            "indexed {} vs scan {}",
            stats.nodes_touched,
            scan.nodes_touched
        );
    }

    #[test]
    fn stats_count_work() {
        let d = hospital();
        let (r, cheap) = eval_at_root_with_stats(&d, &parse("dept/patientInfo/patient").unwrap());
        assert_eq!(r.len(), 2);
        let (r2, expensive) = eval_at_root_with_stats(&d, &parse("//patient[name]").unwrap());
        assert_eq!(r2.len(), 3);
        assert!(
            expensive.nodes_touched > cheap.nodes_touched,
            "descendant scan touches more nodes ({} vs {})",
            expensive.nodes_touched,
            cheap.nodes_touched
        );
        assert!(expensive.qualifier_checks >= 3);
        assert_eq!(cheap.qualifier_checks, 0);
    }

    #[test]
    fn closure_walks_recursive_nesting() {
        // part ▷ part ▷ part: `(part)*` from the root element reaches the
        // root itself (zero steps) and every nested part.
        let d = parse_xml(
            "<part><name>x</name><part><name>y</name><part><name>z</name></part></part></part>",
        )
        .unwrap();
        let all = eval_at_root(&d, &parse("(part)*").unwrap());
        assert_eq!(all.len(), 3, "root + two nested parts");
        let names = eval_at_root(&d, &parse("(part)*/name").unwrap());
        assert_eq!(names.len(), 3);
        // Closure of a two-step body skips a level per iteration.
        let every_other = eval_at_root(&d, &parse("(part/part)*").unwrap());
        assert_eq!(every_other.len(), 2, "root and the grandchild");
        // Closure of something absent = just the context (reflexivity).
        let none = eval_at_root(&d, &parse("(missing)*").unwrap());
        assert_eq!(none.len(), 1);
        // Closure under a filter and in a qualifier.
        let filtered = eval_at_root(&d, &parse("(part)*[name='y']").unwrap());
        assert_eq!(filtered.len(), 1);
        let via_qual = eval_at_root(&d, &parse(".[(part)*/name='z']").unwrap());
        assert_eq!(via_qual.len(), 1);
    }

    #[test]
    fn closure_matches_descendant_of_wildcard_closure() {
        // `(*)*` ≡ `//.` over element nodes (text excluded: `*` is an
        // element step).
        let d = hospital();
        let stars = eval_at_root(&d, &parse("(*)*").unwrap());
        let descs = eval_at_root(&d, &parse("//.").unwrap());
        let elements: Vec<_> = descs.into_iter().filter(|&n| d.is_element(n)).collect();
        assert_eq!(stars, elements);
    }

    #[test]
    fn equality_on_element_string_value() {
        // string value concatenates nested text.
        let d = parse_xml("<r><a><b>x</b><c>y</c></a></r>").unwrap();
        let r = eval_at_root(&d, &parse(".[a='xy']").unwrap());
        assert_eq!(r.len(), 1);
    }
}
