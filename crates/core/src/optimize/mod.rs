//! Algorithm `optimize` — §5.2, Fig. 10 of the paper.
//!
//! Rewrites an XPath query into an equivalent but cheaper query over
//! instances of a document DTD, by "evaluating" the query over the DTD
//! graph (cases 1–7 of Fig. 10). That evaluation is `rewrite`'s
//! per-target dynamic program (see the `crate::rewrite` module docs),
//! run over the document-DTD graph, whose σ edges are the child labels
//! themselves; this module supplies the rules where Fig. 10 departs
//! from Fig. 6:
//!
//! * qualifiers simplify against co-existence / exclusive / non-existence
//!   constraints (case 7, [`constraints::QualEval::evaluate`] — the §6
//!   example Q3 drops its qualifier entirely, and Q4 collapses to the
//!   empty query via the exclusive constraint);
//! * union arms that are (approximately but soundly) contained in their
//!   sibling are dropped (case 6), using the Prop. 5.1 simulation on
//!   image graphs;
//! * attribute tests stay as written, since every declared attribute is
//!   visible over the document;
//! * `//` unions the alternatives that reach one target in visit order.
//!
//! The shared cases do the rest: dead labels prune to `∅`
//! (non-existence constraints), and wildcards and `//` expand into the
//! precise label paths the DTD allows (`recProc`). Before the DP runs,
//! every filter `p[q]` is rewritten to `p/ε[q]`, so the shared filter
//! case meets qualifiers only at `ε`, the form case 7 is stated for.
//!
//! Recursive document DTDs are outside Fig. 10's DAG setting (§5.1
//! restricts to non-recursive DTDs and refers back to §4.2), but the
//! shared `recProc` now falls back to Kleene state elimination on
//! cyclic graphs, so [`optimize`] handles them directly — `//` expands
//! into `(…)*` closure expressions instead of requiring an unfolding
//! height. [`optimize_with_height`] (the §4.2 unfolding) is retained as
//! a differential-testing oracle. The Prop. 5.1 containment test
//! ([`approx_contained`]) stays DAG-only: its image-graph simulation is
//! sound but conservative, and simply declines to certify on recursion
//! (and on closure-bearing queries), so union reduction never fires
//! unsoundly there.

pub mod constraints;
pub mod image;
pub mod simulate;

use crate::error::Result;
use crate::rewrite::{merge_tables, Rules, Table, ViewGraph};
use constraints::QualEval;
use sxv_dtd::{Dtd, DtdGraph};
use sxv_xpath::{Path, Qualifier};

/// Optimize `p` for evaluation at the root of instances of `dtd`.
/// Recursive DTDs are handled directly: `//` expands through Kleene
/// closures instead of requiring a height-bounded unfolding.
pub fn optimize(dtd: &Dtd, p: &Path) -> Result<Path> {
    Ok(optimize_over(dtd, &ViewGraph::from_dtd(dtd), p))
}

/// Optimize over a recursive document DTD by unfolding it to the height
/// of the concrete document (§4.2 applied to the optimization side).
/// Kept as a differential-testing oracle for the direct closure-based
/// expansion; also valid for DAG DTDs, where it bounds path lengths.
pub fn optimize_with_height(dtd: &Dtd, p: &Path, height: usize) -> Result<Path> {
    Ok(optimize_over(dtd, &ViewGraph::from_dtd_unfolded(dtd, height)?, p))
}

/// Approximate XPath containment in the presence of a (DAG) DTD —
/// Prop. 5.1 as a standalone test: `true` certifies `p1 ⊆ p2` at the DTD
/// root over every instance; `false` means "not certified" (the test is
/// sound but incomplete, as Example 5.3 illustrates).
pub fn approx_contained(dtd: &Dtd, p1: &Path, p2: &Path) -> bool {
    if DtdGraph::new(dtd).is_recursive() {
        return false;
    }
    let graph = ViewGraph::from_dtd(dtd);
    let eval = QualEval { graph: &graph, dtd };
    eval.contained_in(p1, p2, graph.root_node())
}

/// Optimize `p` over `graph`, the document-DTD graph of `dtd`. The engine
/// passes the graph it built once, so `recProc` tables carry over from
/// one query to the next; [`optimize`] passes a fresh one.
pub(crate) fn optimize_over(dtd: &Dtd, graph: &ViewGraph, p: &Path) -> Path {
    graph.translate(&normalize_filters(p), &Fig10(QualEval { graph, dtd }))
}

/// Rewrite `p[q]` (general base) to `p/ε[q]`, so the DP only meets
/// qualifiers at `ε` (Fig. 10 case 7 is stated for `ε[q]`).
fn normalize_filters(p: &Path) -> Path {
    match p {
        Path::Empty | Path::EmptySet | Path::Doc | Path::Label(_) | Path::Wildcard | Path::Text => {
            p.clone()
        }
        Path::Step(a, b) => Path::step(normalize_filters(a), normalize_filters(b)),
        Path::Descendant(inner) => Path::descendant(normalize_filters(inner)),
        Path::Closure(inner) => Path::closure(normalize_filters(inner)),
        Path::Union(a, b) => Path::union(normalize_filters(a), normalize_filters(b)),
        Path::Filter(base, q) => {
            let nq = normalize_qual(q);
            match &**base {
                Path::Empty => Path::filter(Path::Empty, nq),
                _ => Path::step(
                    normalize_filters(base),
                    Path::Filter(Box::new(Path::Empty), Box::new(nq)),
                ),
            }
        }
    }
}

fn normalize_qual(q: &Qualifier) -> Qualifier {
    match q {
        Qualifier::Path(p) => Qualifier::path(normalize_filters(p)),
        Qualifier::Eq(p, c) => Qualifier::Eq(normalize_filters(p), c.clone()),
        Qualifier::And(a, b) => Qualifier::and(normalize_qual(a), normalize_qual(b)),
        Qualifier::Or(a, b) => Qualifier::or(normalize_qual(a), normalize_qual(b)),
        Qualifier::Not(inner) => Qualifier::not(normalize_qual(inner)),
        other => other.clone(),
    }
}

/// Fig. 10 over a document-DTD graph: `//` unions its alternatives in
/// visit order, case (6) drops a union arm contained in its sibling,
/// attribute tests stay as written (every declared attribute is visible
/// over the document), and case (7) decides each qualifier against the
/// DTD's constraints.
struct Fig10<'a>(QualEval<'a>);

impl Rules for Fig10<'_> {
    fn descendant(&self, alternatives: Vec<Path>) -> Path {
        Path::union_all(alternatives)
    }

    fn union(&self, t1: Table, t2: Table, node: usize) -> Table {
        let o1 = Path::union_all(t1.values().cloned());
        let o2 = Path::union_all(t2.values().cloned());
        if self.0.contained_in(&o1, &o2, node) {
            t2
        } else if self.0.contained_in(&o2, &o1, node) {
            t1
        } else {
            merge_tables(t1, t2)
        }
    }

    fn keeps_attribute(&self, _: usize, _: &str) -> bool {
        true
    }

    /// `evaluate` re-runs truth analysis on the *original* shape too —
    /// co-existence facts are easier to see before path expansion — so
    /// try both and prefer a definite answer.
    fn decide(&self, q: &Qualifier, translated: Qualifier, node: usize) -> Qualifier {
        match self.0.truth(q, node) {
            Some(true) => Qualifier::True,
            Some(false) => Qualifier::False,
            None => self.0.evaluate(&translated, node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;
    use sxv_xpath::{eval_at_root, parse};

    fn fig9_dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT a (b, c)><!ELEMENT b (d)><!ELEMENT c (d)>\
             <!ELEMENT d (e, f)><!ELEMENT e (g)><!ELEMENT f (g)><!ELEMENT g EMPTY>",
            "a",
        )
        .unwrap()
    }

    #[test]
    fn wildcards_expand_to_labels() {
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("*/d").unwrap()).unwrap();
        let s = o.to_string();
        assert!(s.contains('b') && s.contains('c'), "{s}");
        assert!(!s.contains('*'), "{s}");
    }

    #[test]
    fn dead_labels_prune_to_empty() {
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("b/zzz").unwrap()).unwrap();
        assert!(o.is_empty_set());
        let o2 = optimize(&dtd, &parse("(b/zzz | c)/d").unwrap()).unwrap();
        assert_eq!(o2.to_string(), "c/d");
    }

    /// Example 5.4's shape: a union where one side is contained in the
    /// other collapses to the container.
    #[test]
    fn union_containment_reduction() {
        let dtd = fig9_dtd();
        let p = parse("*/d | b/d[e]").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        // b/d[e] ⊆ */d, and [e] is forced true at d anyway (co-existence).
        let doc = parse_xml(
            "<a><b><d><e><g/></e><f><g/></f></d></b><c><d><e><g/></e><f><g/></f></d></c></a>",
        )
        .unwrap();
        assert_eq!(eval_at_root(&doc, &o), eval_at_root(&doc, &p), "optimized ≠ original: {o}");
        let s = o.to_string();
        assert!(!s.contains('['), "qualifier eliminated: {s}");
    }

    /// §6's Q3 pattern: co-existence drops the qualifier.
    #[test]
    fn coexistence_drops_qualifier() {
        let dtd = parse_dtd(
            "<!ELEMENT adex (head)><!ELEMENT head (buyer-info)>\
             <!ELEMENT buyer-info (company-id, contact-info)>\
             <!ELEMENT company-id (#PCDATA)><!ELEMENT contact-info (#PCDATA)>",
            "adex",
        )
        .unwrap();
        let p = parse("head/buyer-info[company-id and contact-info]").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        assert_eq!(o.to_string(), "head/buyer-info");
    }

    /// §6's Q4 pattern: the exclusive constraint empties the query.
    #[test]
    fn exclusive_constraint_empties_query() {
        let dtd = parse_dtd(
            "<!ELEMENT real-estate (house | apartment)>\
             <!ELEMENT house (price)><!ELEMENT apartment (unit)>\
             <!ELEMENT price (#PCDATA)><!ELEMENT unit (#PCDATA)>",
            "real-estate",
        )
        .unwrap();
        let p = parse(".[house/price and apartment/unit]").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        assert!(o.is_empty_set(), "got {o}");
    }

    #[test]
    fn descendant_expands_precisely() {
        let dtd = parse_dtd(
            "<!ELEMENT adex (head, body)><!ELEMENT head (buyer-info)>\
             <!ELEMENT body (#PCDATA)>\
             <!ELEMENT buyer-info (contact-info)><!ELEMENT contact-info (#PCDATA)>",
            "adex",
        )
        .unwrap();
        // Q1 pattern: //buyer-info/contact-info → head/buyer-info/contact-info.
        let o = optimize(&dtd, &parse("//buyer-info/contact-info").unwrap()).unwrap();
        assert_eq!(o.to_string(), "head/buyer-info/contact-info");
    }

    #[test]
    fn equivalence_preserved_on_samples() {
        let dtd = fig9_dtd();
        let doc = parse_xml(
            "<a><b><d><e><g/></e><f><g/></f></d></b><c><d><e><g/></e><f><g/></f></d></c></a>",
        )
        .unwrap();
        for q in [
            "//g",
            "*/d/*/g",
            "b/d/e/g | b/d/f/g",
            ".[b]/c/d",
            "b[d]/d/e",
            "//d[e and f]",
            "//*",
            "b/d | c/d",
            ".[b and c]/b",
        ] {
            let p = parse(q).unwrap();
            let o = optimize(&dtd, &p).unwrap();
            assert_eq!(
                eval_at_root(&doc, &p),
                eval_at_root(&doc, &o),
                "{q} optimized to {o} changed semantics"
            );
        }
    }

    #[test]
    fn recursive_dtd_optimized_directly_with_closure() {
        // a → a | b: `//b` expands through the cycle as a closure and
        // stays correct at any instance depth (no height parameter).
        let dtd = parse_dtd("<!ELEMENT a (a | b)><!ELEMENT b EMPTY>", "a").unwrap();
        let p = parse("//b").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        assert!(o.to_string().contains(")*"), "cycle optimized to a closure: {o}");
        for doc_src in
            ["<a><b/></a>", "<a><a><a><b/></a></a></a>", "<a><a><a><a><a><b/></a></a></a></a></a>"]
        {
            let doc = parse_xml(doc_src).unwrap();
            assert_eq!(eval_at_root(&doc, &p), eval_at_root(&doc, &o), "{doc_src}: {o}");
        }
        // Dead labels still prune on recursive DTDs.
        assert!(optimize(&dtd, &parse("//zzz").unwrap()).unwrap().is_empty_set());
        // Exclusive-choice qualifiers still evaluate at cyclic nodes.
        let excl = optimize(&dtd, &parse("//.[a and b]").unwrap()).unwrap();
        assert!(excl.is_empty_set(), "{excl}");
    }

    #[test]
    fn recursive_dtd_union_arms_survive_optimization() {
        // Regression: over a recursive DTD, the per-label image graphs
        // conflate the two `part` occurrences of the longer arm, so the
        // Prop. 5.1 simulation would certify the shorter arm as contained
        // and union reduction would drop its (real) answers. Containment
        // must decline on cyclic graphs and keep both arms.
        let dtd = parse_dtd(
            "<!ELEMENT bom (assembly*)><!ELEMENT assembly (part*)>\
             <!ELEMENT part (partno, subpart)><!ELEMENT subpart (part*)>\
             <!ELEMENT partno (#PCDATA)>",
            "bom",
        )
        .unwrap();
        let p = parse("assembly/part/partno | assembly/part/subpart/part/partno").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        let doc = parse_xml(
            "<bom><assembly><part><partno>p1</partno><subpart>\
             <part><partno>p2</partno><subpart/></part>\
             </subpart></part></assembly></bom>",
        )
        .unwrap();
        let direct = eval_at_root(&doc, &p);
        assert_eq!(direct.len(), 2, "both depths match");
        assert_eq!(direct, eval_at_root(&doc, &o), "union arm dropped: {o}");
        // Qualifier implication likewise declines on cyclic graphs: in
        // the collapsed image, [partno] would falsely imply
        // [subpart/part/partno] (the image of the longer path gains a
        // direct part → partno edge), and And-reduction would drop the
        // stronger conjunct. Both conjuncts must survive.
        let q = parse("//part[partno and subpart/part/partno]/partno").unwrap();
        let oq = optimize(&dtd, &q).unwrap();
        let shallow =
            parse_xml("<bom><assembly><part><partno>p1</partno><subpart/></part></assembly></bom>")
                .unwrap();
        for d in [&doc, &shallow] {
            assert_eq!(eval_at_root(d, &q), eval_at_root(d, &oq), "qualifier weakened: {oq}");
        }
    }

    #[test]
    fn closure_query_optimized_on_dag() {
        // A user-written closure over a DAG DTD: `(b)*` from the root
        // can iterate at most once (no b → b edge), so the optimizer
        // unrolls it into `ε ∪ b` — no closure survives.
        let dtd = fig9_dtd();
        let p = parse("(b)*/d").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        assert!(!o.to_string().contains(")*"), "DAG closure unrolled: {o}");
        let doc = parse_xml(
            "<a><b><d><e><g/></e><f><g/></f></d></b><c><d><e><g/></e><f><g/></f></d></c></a>",
        )
        .unwrap();
        assert_eq!(eval_at_root(&doc, &p), eval_at_root(&doc, &o), "{o}");
    }

    #[test]
    fn recursive_dtd_optimized_with_height() {
        // a → a | b: //b over an instance of height ≤ 3 expands into the
        // bounded chains, and dead labels still prune.
        let dtd = parse_dtd("<!ELEMENT a (a | b)><!ELEMENT b EMPTY>", "a").unwrap();
        let doc = parse_xml("<a><a><a><b/></a></a></a>").unwrap();
        let p = parse("//b").unwrap();
        let o = optimize_with_height(&dtd, &p, doc.height()).unwrap();
        assert_eq!(eval_at_root(&doc, &p), eval_at_root(&doc, &o), "optimized ≠ original: {o}");
        let dead = optimize_with_height(&dtd, &parse("//zzz").unwrap(), doc.height()).unwrap();
        assert!(dead.is_empty_set());
        // Qualifier simplification works at unfolded nodes too: a's
        // production is a disjunction, so [a and b] is false everywhere.
        let excl = optimize_with_height(&dtd, &parse("//.[a and b]").unwrap(), doc.height());
        assert!(excl.unwrap().is_empty_set());
    }

    #[test]
    fn absolute_queries_optimized() {
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("/a/b/d").unwrap()).unwrap();
        let doc = parse_xml(
            "<a><b><d><e><g/></e><f><g/></f></d></b><c><d><e><g/></e><f><g/></f></d></c></a>",
        )
        .unwrap();
        use sxv_xpath::eval_at_document;
        assert_eq!(eval_at_document(&doc, &o), eval_at_document(&doc, &parse("/a/b/d").unwrap()));
    }

    /// Prop. 5.1 as a public API, on Example 5.2's queries.
    #[test]
    fn approx_containment_public_api() {
        let dtd = fig9_dtd();
        let p1 = parse("*/d/*/g").unwrap();
        let p3 = parse("b/d/e/g | b/d/f/g").unwrap();
        assert!(approx_contained(&dtd, &p3, &p1));
        assert!(!approx_contained(&dtd, &p1, &p3));
        // Sound but incomplete: recursive DTDs are never certified.
        let rec = parse_dtd("<!ELEMENT a (a | b)><!ELEMENT b EMPTY>", "a").unwrap();
        assert!(!approx_contained(&rec, &parse("b").unwrap(), &parse("b").unwrap()));
    }

    /// Recursive-DTD bound: Prop. 5.1 assumes a DAG, so recursion refuses
    /// certification for *every* pair — even syntactically identical or
    /// text-targeted ones (the `p1 == p2` shortcut is DAG-only).
    #[test]
    fn approx_containment_recursive_dtd_bounds() {
        let rec = parse_dtd(
            "<!ELEMENT part (part-id, sub-parts)><!ELEMENT sub-parts (part*)>\
             <!ELEMENT part-id (#PCDATA)>",
            "part",
        )
        .unwrap();
        for q in ["part-id", "//part-id", "//text()", "sub-parts/part | //part"] {
            let p = parse(q).unwrap();
            assert!(!approx_contained(&rec, &p, &p), "recursive DTD certified {q}");
        }
    }

    /// `text()` targets fall back to syntactic equality (image graphs are
    /// element-only, so the simulation cannot speak for text nodes).
    #[test]
    fn approx_containment_text_targets() {
        let dtd = fig9_dtd();
        assert!(approx_contained(&dtd, &parse("//text()").unwrap(), &parse("//text()").unwrap()));
        // Semantically b/d//text() ⊆ //text(), but text targets are only
        // certified when identical — sound, not complete.
        assert!(!approx_contained(
            &dtd,
            &parse("b/d//text()").unwrap(),
            &parse("//text()").unwrap()
        ));
        // A text-bearing qualifier keeps the *path* certifiable…
        assert!(!approx_contained(&dtd, &parse("//text()").unwrap(), &parse("//*").unwrap()));
    }

    /// Qualifier-bearing arms: narrowing a path with `[q]` keeps it
    /// contained; the reverse only holds when the DTD forces `q`.
    #[test]
    fn approx_containment_qualifier_arms() {
        // `a`'s content is a *choice*, so [c] is genuinely uncertain at `a`.
        let dtd = parse_dtd(
            "<!ELEMENT r (a*)><!ELEMENT a (c | d)>\
             <!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA)>",
            "r",
        )
        .unwrap();
        let a = parse("a").unwrap();
        let a_c = parse("a[c]").unwrap();
        let a_c1 = parse("a[c='1']").unwrap();
        let a_c2 = parse("a[c='2']").unwrap();
        assert!(approx_contained(&dtd, &a_c, &a), "a[c] ⊆ a");
        assert!(!approx_contained(&dtd, &a, &a_c), "a ⊄ a[c]: the choice may pick d");
        assert!(approx_contained(&dtd, &a_c1, &a_c), "a[c='1'] ⊆ a[c]");
        assert!(!approx_contained(&dtd, &a_c1, &a_c2), "different constants");
        // Incompleteness bound: in Fig. 9 every `b` has a `d` child, so
        // semantically b ⊆ b[d] — but the simulation compares qualifier
        // sets structurally and does not discharge [d] against the DTD.
        let fig9 = fig9_dtd();
        assert!(!approx_contained(&fig9, &parse("b").unwrap(), &parse("b[d]").unwrap()));
    }

    /// Union arms on both sides of the containment.
    #[test]
    fn approx_containment_union_arms() {
        let fig9 = fig9_dtd();
        assert!(approx_contained(&fig9, &parse("b/d | c/d").unwrap(), &parse("*/d").unwrap()));
        // Incompleteness bound (the Example 5.3 shape): each left branch
        // must be simulated by a *single* right branch, so `*/d` — whose
        // one image spans both b/d and c/d — is not certified against the
        // union even though the containment holds semantically.
        assert!(!approx_contained(&fig9, &parse("*/d").unwrap(), &parse("b/d | c/d").unwrap()));
        assert!(!approx_contained(&fig9, &parse("b/d | c/d").unwrap(), &parse("b/d").unwrap()));
        // A qualifier-bearing arm inside a union.
        assert!(approx_contained(&fig9, &parse("b/d[e] | c/d").unwrap(), &parse("*/d").unwrap()));
    }

    #[test]
    fn wildcard_at_text_element_prunes() {
        // g has (#PCDATA)-like EMPTY content: */anything below it is dead.
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("b/d/e/g/*").unwrap()).unwrap();
        assert!(o.is_empty_set());
    }

    #[test]
    fn eq_on_dead_path_prunes() {
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("b[zzz='1']").unwrap()).unwrap();
        assert!(o.is_empty_set());
        // Eq on a live path stays.
        let o2 = optimize(&dtd, &parse("b[d='1']").unwrap()).unwrap();
        assert!(o2.to_string().contains("d='1'"), "{o2}");
    }

    #[test]
    fn opaque_boolean_qualifiers_preserved() {
        let dtd = fig9_dtd();
        let p = parse("b[not(d/e)]").unwrap();
        let o = optimize(&dtd, &p).unwrap();
        // d/e always exists (co-existence chain) ⇒ not(d/e) is false ⇒ ∅.
        assert!(o.is_empty_set(), "{o}");
        // A genuinely unknown negation survives.
        let dtd2 = parse_dtd("<!ELEMENT a (b*)><!ELEMENT b EMPTY>", "a").unwrap();
        let o2 = optimize(&dtd2, &parse(".[not(b)]").unwrap()).unwrap();
        assert!(o2.to_string().contains("not"), "{o2}");
    }

    #[test]
    fn text_selector_optimizes_equivalently() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (c)><!ELEMENT c (#PCDATA)>",
            "r",
        )
        .unwrap();
        let doc = parse_xml("<r><a>x</a><b><c>y</c></b></r>").unwrap();
        for q in ["//text()", "a/text()", "//c/text()", "b/text()", ".[a/text()='x']/b"] {
            let p = parse(q).unwrap();
            let o = optimize(&dtd, &p).unwrap();
            assert_eq!(eval_at_root(&doc, &p), eval_at_root(&doc, &o), "{q} → {o}");
        }
        // text() at an element-content node prunes.
        let dead = optimize(&dtd, &parse("b/text()").unwrap()).unwrap();
        assert!(dead.is_empty_set(), "{dead}");
    }

    #[test]
    fn union_of_identical_arms_collapses() {
        let dtd = fig9_dtd();
        let o = optimize(&dtd, &parse("b/d | b/d").unwrap()).unwrap();
        assert_eq!(o.to_string(), "b/d");
    }

    #[test]
    fn nested_qualifier_paths_pruned() {
        let dtd = fig9_dtd();
        // [b/zzz or c] → [c] (zzz cannot exist).
        let o = optimize(&dtd, &parse(".[b/zzz or c]/b").unwrap()).unwrap();
        // c is forced by co-existence: whole qualifier true.
        assert_eq!(o.to_string(), "b");
    }
}
