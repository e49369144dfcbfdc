//! Property-based tests for the security-view machinery (proptest):
//!
//! * **Soundness & completeness** (Theorem 3.2): for random access
//!   specifications over the hospital DTD and random conforming
//!   documents, the materialized view's real-labelled nodes are exactly
//!   the accessible nodes.
//! * **Rewrite equivalence** (Theorem 4.1): for random fragment-`C`
//!   queries, `p(T_v) = p_t(T)` under the view→source mapping.
//! * **Optimize equivalence** (§5): `optimize(p)(T) = p(T)` for random
//!   queries over random instances.
//! * **No leaks**: every node returned by a translated query is either
//!   accessible or the (label-hidden) source of a dummy.

use proptest::prelude::*;
use secure_xml_views::core::{
    accessibility, build_access_view, compute_accessibility, derive_view, materialize, optimize,
    rewrite, AccessSpec, Annotation, Approach, NaiveBaseline, SecureEngine,
};
use secure_xml_views::dtd::{parse_dtd, Dtd};
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::{DocIndex, Document, NodeId};
use secure_xml_views::xpath::{
    certify, certify_traced, compile, compile_annotate, eval_at_root, eval_qualifier, CostModel,
    Path, PlanPolicy, Qualifier,
};

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");

fn hospital_dtd() -> Dtd {
    parse_dtd(HOSPITAL_DTD, "hospital").unwrap()
}

fn hospital_doc(seed: u64, branch: usize) -> Document {
    let config = GenConfig::seeded(seed)
        .with_max_branch(branch)
        .with_max_depth(32)
        .with_values("wardNo", ["6", "7"])
        .with_values("name", ["ann", "bob", "cat"])
        .with_values("bill", ["10", "20"]);
    Generator::for_dtd(&hospital_dtd(), config).generate().expect("consistent DTD")
}

/// Annotatable non-root edges of the hospital DTD (parent, child).
const EDGES: [(&str, &str); 12] = [
    ("dept", "clinicalTrial"),
    ("dept", "patientInfo"),
    ("dept", "staffInfo"),
    ("clinicalTrial", "patientInfo"),
    ("clinicalTrial", "test"),
    ("patient", "treatment"),
    ("treatment", "trial"),
    ("treatment", "regular"),
    ("trial", "bill"),
    ("regular", "bill"),
    ("regular", "medication"),
    ("staff", "nurse"),
];

/// A random specification: 0 = inherit, 1 = allow, 2 = deny per edge,
/// plus an optional conditional on the (hospital, dept) star edge.
fn spec_strategy() -> impl Strategy<Value = AccessSpec> {
    (proptest::collection::vec(0u8..3, EDGES.len()), proptest::option::of(0u8..2)).prop_map(
        |(choices, dept_cond)| {
            let dtd = hospital_dtd();
            let mut builder = AccessSpec::builder(&dtd);
            for (&(parent, child), &choice) in EDGES.iter().zip(&choices) {
                builder = match choice {
                    1 => builder.allow(parent, child),
                    2 => builder.deny(parent, child),
                    _ => builder,
                };
            }
            if let Some(w) = dept_cond {
                let ward = if w == 0 { "6" } else { "7" };
                builder = builder
                    .cond_str("hospital", "dept", &format!("*/patient/wardNo='{ward}'"))
                    .expect("valid qualifier");
            }
            builder.build().expect("edges are valid")
        },
    )
}

/// §3.2 for one node, read off the definition: walk `v`'s root path by
/// name, look each edge up in the spec and decide every qualifier with the
/// reference interpreter. Deliberately shares no code with the
/// accessibility passes it checks.
fn accessible_by_definition(spec: &AccessSpec, doc: &Document, v: NodeId) -> bool {
    let Some(parent) = doc.parent(v) else {
        // The root is annotated Y by default.
        return true;
    };
    if doc.label_opt(v).is_none() {
        // A text node inherits its element's accessibility.
        return accessible_by_definition(spec, doc, parent);
    }
    // ann(u) of a non-root element `u`, looked up by name.
    let ann = |u: NodeId| spec.annotation(doc.label_opt(doc.parent(u)?)?, doc.label_opt(u)?);
    // Rule 1's second half: every ancestor's qualifier holds.
    let ancestor_qualifiers_hold =
        std::iter::successors(Some(parent), |&u| doc.parent(u)).all(|u| match ann(u) {
            Some(Annotation::Cond(q)) => eval_qualifier(doc, q, u),
            _ => true,
        });
    match ann(v) {
        Some(Annotation::Allow) => ancestor_qualifiers_hold,
        Some(Annotation::Cond(q)) => eval_qualifier(doc, q, v) && ancestor_qualifiers_hold,
        Some(Annotation::Deny) => false,
        // Rule 2: no explicit annotation, so `v` inherits from its parent.
        None => accessible_by_definition(spec, doc, parent),
    }
}

/// Check both accessibility passes against [`accessible_by_definition`]
/// on every node of `doc`.
fn check_accessibility_definition(spec: &AccessSpec, doc: &Document) {
    let expected: Vec<NodeId> =
        doc.all_ids().filter(|&v| accessible_by_definition(spec, doc, v)).collect();
    let index = DocIndex::new(doc).unwrap();
    assert_eq!(accessibility::compute(spec, doc).accessible_ids().collect::<Vec<_>>(), expected);
    for index in [None, Some(&index)] {
        let serving = compute_accessibility(spec, doc, index).to_ids();
        assert_eq!(serving, expected, "indexed: {}", index.is_some());
    }
}

/// The nurse policy of Example 3.1 for both wards, and a policy whose
/// conditionals nest (a false qualifier on `dept` or `patient` must
/// poison the allowed regions below it), against the node-by-node
/// reading of §3.2 on generated hospitals.
#[test]
fn nurse_accessibility_matches_the_definition() {
    let dtd = hospital_dtd();
    let nurse = include_str!("../assets/hospital_nurse.spec");
    let nested = "ann(hospital, dept) = [*/patient/wardNo=$wardNo]\n\
                  ann(patientInfo, patient) = [name='ann' or name='bob']\n\
                  ann(patient, treatment) = [*/bill='10']\n\
                  ann(treatment, trial) = N\n\
                  ann(trial, bill) = Y\n";
    for (text, ward) in [(nurse, "6"), (nurse, "7"), (nested, "6")] {
        let spec = AccessSpec::parse(&dtd, text, &[("wardNo", ward)]).unwrap();
        for seed in 0..12 {
            for branch in 1..5 {
                check_accessibility_definition(&spec, &hospital_doc(seed, branch));
            }
        }
    }
}

/// Labels usable in generated queries: document labels plus dummies the
/// derivation may mint.
const QUERY_LABELS: [&str; 15] = [
    "hospital",
    "dept",
    "clinicalTrial",
    "patientInfo",
    "patient",
    "name",
    "wardNo",
    "treatment",
    "bill",
    "medication",
    "staffInfo",
    "staff",
    "nurse",
    "dummy1",
    "dummy2",
];

/// Leaf labels safe for `= c` comparisons (their string value is their
/// own text, identical in view and document).
const LEAF_LABELS: [&str; 4] = ["name", "wardNo", "bill", "medication"];

fn label_strategy() -> impl Strategy<Value = Path> {
    proptest::sample::select(&QUERY_LABELS[..]).prop_map(Path::label)
}

fn eq_qual_strategy() -> impl Strategy<Value = Qualifier> {
    (
        proptest::sample::select(&LEAF_LABELS[..]),
        proptest::sample::select(vec!["6", "7", "ann", "10", "zzz"]),
        proptest::bool::ANY,
    )
        .prop_map(|(label, value, deep)| {
            let p = if deep { Path::descendant(Path::label(label)) } else { Path::label(label) };
            Qualifier::Eq(p, value.to_string())
        })
}

/// Does `p` match the empty path (so `//p` would select text nodes
/// positionally — inexpressible in fragment C and excluded from
/// generation; the explicit `text()` selector covers str data)?
fn nullable(p: &Path) -> bool {
    match p {
        Path::Empty => true,
        Path::Step(a, b) => nullable(a) && nullable(b),
        Path::Descendant(i) => nullable(i),
        Path::Union(a, b) => nullable(a) || nullable(b),
        Path::Filter(base, _) => nullable(base),
        _ => false,
    }
}

fn path_strategy() -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        4 => label_strategy(),
        1 => Just(Path::Wildcard),
        1 => Just(Path::Empty),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let qual = prop_oneof![
            3 => inner.clone().prop_map(Qualifier::path),
            2 => eq_qual_strategy(),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Qualifier::and(Qualifier::path(a), Qualifier::path(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Qualifier::or(Qualifier::path(a), Qualifier::path(b))),
            1 => inner.clone().prop_map(|p| Qualifier::not(Qualifier::path(p))),
        ];
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::step(a, b)),
            // Descendant of a non-ε step (bare `//.` would select text
            // nodes positionally, which fragment C cannot re-select; the
            // explicit text() selector covers the str-data case instead).
            2 => inner.clone().prop_map(|p| {
                if nullable(&p) {
                    Path::descendant(Path::Wildcard)
                } else {
                    Path::descendant(p)
                }
            }),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::union(a, b)),
            2 => (inner.clone(), qual).prop_map(|(p, q)| Path::filter(p, q)),
            // text() tails: p/text().
            1 => inner.prop_map(|p| Path::step(p, Path::Text)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Theorem 3.2: sound and complete when materialization succeeds.
    #[test]
    fn view_is_sound_and_complete(spec in spec_strategy(), seed in 0u64..1000, branch in 1usize..5) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(m) = materialize(&spec, &view, &doc) else {
            // Materialization may abort for specs with no sound & complete
            // view on this instance (Thm 3.2 is an iff); nothing to check.
            return Ok(());
        };
        use std::collections::BTreeSet;
        let mut sources = BTreeSet::new();
        for id in m.doc.all_ids() {
            let dummy = m.doc.label_opt(id).map(|l| l.starts_with("dummy")).unwrap_or(false);
            if !dummy {
                sources.insert(m.source_of(id));
            }
        }
        let access = accessibility::compute(&spec, &doc);
        let accessible: BTreeSet<_> = access.accessible_ids().collect();
        prop_assert_eq!(sources, accessible);
    }

    /// §3.2 read node by node: the serving pass (with and without an
    /// index) and the reference pass agree with a definition that shares
    /// no code with them.
    #[test]
    fn accessibility_matches_the_definition(
        spec in spec_strategy(),
        seed in 0u64..1000,
        branch in 1usize..5,
    ) {
        check_accessibility_definition(&spec, &hospital_doc(seed, branch));
    }

    /// Theorem 4.1: p(T_v) = p_t(T) for random queries and specs.
    #[test]
    fn rewrite_is_equivalent(
        spec in spec_strategy(),
        p in path_strategy(),
        seed in 0u64..500,
        branch in 1usize..5,
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(m) = materialize(&spec, &view, &doc) else { return Ok(()) };
        let pt = rewrite(&view, &p).unwrap();
        // Fragment C has no text() selector, so DTD-graph-based
        // translations are element-only; queries like `//(. | l)` that put
        // text nodes in their result are outside the fragment's scope
        // (DESIGN.md §7). Compare element results.
        // Answers are node *sets* (Thm 4.1); view pre-order can interleave
        // differently from document order when compaction merges starred
        // groups, so compare sorted. Text results are included — the
        // text() selector makes them first-class.
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        over_view.sort();
        over_view.dedup();
        let over_doc = eval_at_root(&doc, &pt);
        prop_assert_eq!(over_view, over_doc, "query {} rewritten to {}", p, pt);
    }

    /// The annotate approach is equivalent to both the rewrite approach
    /// and the materialized baseline: for random (spec, doc, query)
    /// triples where materialization succeeds, executing the view query
    /// through the accessibility artifact returns exactly the source
    /// nodes the materialized view would — under all three plan
    /// policies, indexed and unindexed.
    #[test]
    fn annotate_is_equivalent(
        spec in spec_strategy(),
        p in path_strategy(),
        seed in 0u64..500,
        branch in 1usize..5,
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(m) = materialize(&spec, &view, &doc) else { return Ok(()) };
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        over_view.sort();
        over_view.dedup();
        let pt = rewrite(&view, &p).unwrap();
        let over_doc = eval_at_root(&doc, &pt);
        prop_assert_eq!(&over_view, &over_doc, "rewrite baseline diverged for {}", &p);
        let index = DocIndex::new(&doc);
        let access = build_access_view(&spec, &view, &doc, index.as_ref());
        for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto] {
            let plan = compile_annotate(&p, policy, &CostModel::uninformed());
            for idx in [None, index.as_ref()] {
                let (ans, _) = plan.execute_with_access(&doc, idx, Some(&access));
                prop_assert_eq!(
                    &ans, &over_view,
                    "query {} under {:?} (indexed={})", &p, policy, idx.is_some()
                );
            }
        }
    }

    /// §5: optimize preserves semantics over conforming instances.
    #[test]
    fn optimize_is_equivalent(p in path_strategy(), seed in 0u64..500, branch in 1usize..6) {
        let dtd = hospital_dtd();
        let doc = hospital_doc(seed, branch);
        let o = optimize(&dtd, &p).unwrap();
        prop_assert_eq!(
            eval_at_root(&doc, &p),
            eval_at_root(&doc, &o),
            "query {} optimized to {}", p, o
        );
    }

    /// The §6 naive baseline agrees with rewriting on the query class the
    /// paper benchmarks: descendant-rooted label chains over views whose
    /// structure collapses no levels that the widened query could cross
    /// incorrectly. We pin the guarantee the baseline actually gives:
    /// naive answers are always a subset of accessible nodes, and on
    /// label-chain queries they contain every rewrite answer that is
    /// accessible (dummy-renamed placeholders are invisible to naive).
    #[test]
    fn naive_baseline_relationships(
        spec in spec_strategy(),
        seed in 0u64..300,
        branch in 1usize..4,
        start in proptest::sample::select(&QUERY_LABELS[..13]),
        next in proptest::sample::select(&QUERY_LABELS[..13]),
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(_) = materialize(&spec, &view, &doc) else { return Ok(()) };
        let p = Path::step(
            Path::descendant(Path::label(start)),
            Path::descendant(Path::label(next)),
        );
        let annotated = NaiveBaseline::annotate(&spec, &doc);
        let naive_ans = eval_at_root(&annotated, &NaiveBaseline::rewrite(&p));
        let access = accessibility::compute(&spec, &doc);
        // Soundness of the baseline: only accessible nodes.
        for &n in &naive_ans {
            prop_assert!(access.is_accessible(n), "naive leaked node {}", n);
        }
        // Rewrite answers restricted to accessible nodes are found by
        // naive too (naive over-approximates the path structure).
        let pt = rewrite(&view, &p).unwrap();
        for n in eval_at_root(&doc, &pt) {
            if access.is_accessible(n) {
                prop_assert!(
                    naive_ans.contains(&n),
                    "naive missed accessible node {} for //{}//{}", n, start, next
                );
            }
        }
    }

    /// Security: every node a translated query returns is accessible, or
    /// is the hidden source of a dummy-labelled view node.
    #[test]
    fn no_inaccessible_node_leaks(
        spec in spec_strategy(),
        p in path_strategy(),
        seed in 0u64..500,
        branch in 1usize..5,
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(m) = materialize(&spec, &view, &doc) else { return Ok(()) };
        use std::collections::BTreeSet;
        let dummy_sources: BTreeSet<_> = m
            .doc
            .all_ids()
            .filter(|&id| m.doc.label_opt(id).map(|l| l.starts_with("dummy")).unwrap_or(false))
            .map(|id| m.source_of(id))
            .collect();
        let access = accessibility::compute(&spec, &doc);
        let pt = rewrite(&view, &p).unwrap();
        for node in eval_at_root(&doc, &pt) {
            prop_assert!(
                access.is_accessible(node) || dummy_sources.contains(&node),
                "query {} translated to {} leaked node {} (<{}>)",
                p, pt, node, doc.label_opt(node).unwrap_or("#text")
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Static certification is sound for the secure pipeline: every
    /// plan it compiles (rewrite/optimize/annotate × every policy)
    /// carries a clean certificate, and the certificate's final
    /// abstract state really over-approximates the concrete answer —
    /// each element the executor returns has its label in the emitted
    /// type set (or stands behind a dummy the certificate records), and
    /// text answers require the emitted text marker. The engine's cached
    /// certificate equals a fresh untraced one and the verdict of a
    /// traced one.
    #[test]
    fn pipeline_plans_certify_and_overapproximate_answers(
        spec in spec_strategy(),
        p in path_strategy(),
        seed in 0u64..300,
        branch in 1usize..4,
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        if materialize(&spec, &view, &doc).is_err() {
            return Ok(());
        }
        let engine = SecureEngine::new(&spec, &view);
        let ctx = engine.certify_context();
        let hideable = &ctx.sets().hideable;
        for approach in [Approach::Rewrite, Approach::Optimize, Approach::Annotate] {
            for policy in PlanPolicy::ALL {
                let (planned, _) = engine.plan_certified(&p, approach, policy);
                let Ok(planned) = planned else { continue };
                let fresh = certify(&planned.plan, ctx);
                prop_assert_eq!(&fresh, &*planned.cert, "{:?}/{:?} {}", approach, policy, p);
                prop_assert_eq!(&certify_traced(&planned.plan, ctx).cert, &fresh);
                prop_assert!(
                    planned.cert.certified(),
                    "{:?}/{:?} plan for {} is uncertified: {:?}",
                    approach, policy, p, planned.cert.findings
                );
                let Ok((nodes, _)) =
                    engine.answer_report_policy(&doc, None, &p, approach, policy)
                else { continue };
                for node in nodes {
                    match doc.label_opt(node) {
                        None => prop_assert!(
                            planned.cert.emitted.text,
                            "{:?}/{:?} {} emitted a text node outside its certificate",
                            approach, policy, p
                        ),
                        Some(label) => prop_assert!(
                            planned.cert.emitted.types.contains(label)
                                || (!planned.cert.emitted.dummies.is_empty()
                                    && hideable.contains(label)),
                            "{:?}/{:?} {} emitted <{}> outside its certificate {}",
                            approach, policy, p, label, planned.cert.emitted.render()
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every compiled plan answers like the reference: for random (spec,
    /// doc, query) triples, every approach × plan policy × indexed /
    /// unindexed execution returns exactly what the reference interpreter
    /// returns for the plan's translation (over the annotated copy for
    /// naive), and every annotate plan returns exactly the §3.3
    /// materialization's answer. `Auto` plans carry fused scans and
    /// schema slices (lowered against the DTD by the engine, and against
    /// the document's own label graph as one more input), so this pins
    /// fusion and the lowering against the reference.
    #[test]
    fn plans_match_the_reference(
        spec in spec_strategy(),
        p in path_strategy(),
        seed in 0u64..400,
        branch in 1usize..5,
    ) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let Ok(m) = materialize(&spec, &view, &doc) else { return Ok(()) };
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        over_view.sort();
        over_view.dedup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc);
        let annotated = NaiveBaseline::annotate(&spec, &doc);
        let access = build_access_view(&spec, &view, &doc, index.as_ref());
        let approaches =
            [Approach::Naive, Approach::Rewrite, Approach::Optimize, Approach::Annotate];
        for approach in approaches {
            for policy in PlanPolicy::ALL {
                let (planned, _) = engine.plan_certified(&p, approach, policy);
                let Ok(planned) = planned else { continue };
                let mut plans = vec![planned.plan.as_ref().clone()];
                if let (PlanPolicy::Auto, false, Some(idx)) =
                    (policy, approach == Approach::Annotate, index.as_ref())
                {
                    let cost = CostModel::from_index(idx);
                    plans.push(compile(&planned.plan.translated, policy, &cost));
                }
                for plan in &plans {
                    // The naive baseline evaluates over the annotated copy
                    // (never indexed); annotate needs the accessibility
                    // artifact and answers the view query itself.
                    let (exec_doc, acc, want) = match approach {
                        Approach::Naive => {
                            (&annotated, None, eval_at_root(&annotated, &plan.translated))
                        }
                        Approach::Annotate => (&doc, Some(&access), over_view.clone()),
                        _ => (&doc, None, eval_at_root(&doc, &plan.translated)),
                    };
                    for idx in [None, index.as_ref()] {
                        let exec_idx = if approach == Approach::Naive { None } else { idx };
                        let (got, _) = plan.execute_with_access(exec_doc, exec_idx, acc);
                        prop_assert_eq!(
                            &got, &want,
                            "{:?}/{:?} (indexed={}) plan diverged from the reference for {}",
                            approach, policy, idx.is_some(), &p
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Recursive views: rewrite-with-unfolding matches the materialization
    /// oracle on random recursive documents and label queries.
    #[test]
    fn recursive_rewrite_is_equivalent(
        seed in 0u64..300,
        depth in 2usize..7,
        start in proptest::sample::select(vec!["part", "part-id", "sub-parts", "serial"]),
        deep in proptest::bool::ANY,
    ) {
        use secure_xml_views::core::rewrite_with_height;
        let dtd = parse_dtd(
            "<!ELEMENT part (part-id, serial, sub-parts)>\
             <!ELEMENT sub-parts (part*)>\
             <!ELEMENT part-id (#PCDATA)>\
             <!ELEMENT serial (#PCDATA)>",
            "part",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("part", "serial").build().unwrap();
        let view = derive_view(&spec).unwrap();
        prop_assume!(view.is_recursive());
        let config = GenConfig::seeded(seed).with_max_branch(2).with_max_depth(depth);
        let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
        let m = materialize(&spec, &view, &doc).unwrap();
        let p = if deep {
            Path::descendant(Path::label(start))
        } else {
            Path::step(Path::descendant(Path::label("part")), Path::label(start))
        };
        let pt = rewrite_with_height(&view, &p, doc.height()).unwrap();
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        over_view.sort();
        over_view.dedup();
        prop_assert_eq!(over_view, eval_at_root(&doc, &pt), "query {} → {}", p, pt);
    }

    /// `optimize_with_height` preserves semantics over recursive DTDs.
    #[test]
    fn recursive_optimize_is_equivalent(
        seed in 0u64..300,
        depth in 2usize..7,
        label in proptest::sample::select(vec!["part", "part-id", "sub-parts", "serial", "zzz"]),
    ) {
        use secure_xml_views::core::optimize_with_height;
        let dtd = parse_dtd(
            "<!ELEMENT part (part-id, serial, sub-parts)>\
             <!ELEMENT sub-parts (part*)>\
             <!ELEMENT part-id (#PCDATA)>\
             <!ELEMENT serial (#PCDATA)>",
            "part",
        )
        .unwrap();
        let config = GenConfig::seeded(seed).with_max_branch(2).with_max_depth(depth);
        let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
        let p = Path::descendant(Path::label(label));
        let o = optimize_with_height(&dtd, &p, doc.height()).unwrap();
        prop_assert_eq!(
            eval_at_root(&doc, &p),
            eval_at_root(&doc, &o),
            "query {} optimized to {}", p, o
        );
    }

    /// Recursive views served *without* unfolding: for random recursive
    /// specs and documents nesting deeper than any fixed unfold height,
    /// the direct Kleene-closure translation agrees with the
    /// height-bounded §4.2 unfolding oracle and the materialization
    /// oracle — and the serving engine returns the same answer under
    /// every approach (rewrite/optimize/annotate) × plan policy
    /// (walk/join/auto), all through the height-free plan cache.
    #[test]
    fn closure_matches_unfolding(
        seed in 0u64..300,
        depth in 8usize..16,
        serial_denied in proptest::bool::ANY,
        cond in proptest::option::of(0u8..2),
        shape in 0usize..5,
    ) {
        use secure_xml_views::core::rewrite_with_height;
        let dtd = parse_dtd(
            "<!ELEMENT part (part-id, serial, sub-parts)>\
             <!ELEMENT sub-parts (part*)>\
             <!ELEMENT part-id (#PCDATA)>\
             <!ELEMENT serial (#PCDATA)>",
            "part",
        )
        .unwrap();
        let mut builder = AccessSpec::builder(&dtd);
        if serial_denied {
            builder = builder.deny("part", "serial");
        }
        if let Some(c) = cond {
            let v = if c == 0 { "p1" } else { "p2" };
            builder = builder
                .cond_str("sub-parts", "part", &format!("part-id='{v}'"))
                .expect("valid qualifier");
        }
        let spec = builder.build().unwrap();
        let view = derive_view(&spec).unwrap();
        prop_assume!(view.is_recursive());
        let config = GenConfig::seeded(seed)
            .with_max_branch(2)
            .with_min_branch(1)
            .with_max_depth(depth)
            .with_values("part-id", ["p1", "p2"]);
        let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
        prop_assume!(doc.height() >= 6);
        let Ok(m) = materialize(&spec, &view, &doc) else { return Ok(()) };
        let p = match shape {
            0 => Path::descendant(Path::label("part")),
            1 => Path::descendant(Path::label("part-id")),
            2 => Path::step(Path::descendant(Path::label("part")), Path::label("part-id")),
            3 => Path::step(
                Path::descendant(Path::label("sub-parts")),
                Path::descendant(Path::label("part-id")),
            ),
            _ => Path::step(
                Path::filter(
                    Path::descendant(Path::label("part")),
                    Qualifier::Eq(Path::label("part-id"), "p1".to_string()),
                ),
                Path::label("part-id"),
            ),
        };
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        over_view.sort();
        over_view.dedup();
        // The direct closure translation — no height anywhere.
        let direct = rewrite(&view, &p).unwrap();
        prop_assert_eq!(&over_view, &eval_at_root(&doc, &direct), "direct {} for {}", &direct, &p);
        let optimized = optimize(spec.dtd(), &direct).unwrap();
        prop_assert_eq!(
            &over_view, &eval_at_root(&doc, &optimized),
            "optimized {} for {}", &optimized, &p
        );
        // The §4.2 unfolding oracle, given a height sufficient for this
        // document (the serving path never needs one).
        let unfolded = rewrite_with_height(&view, &p, doc.height()).unwrap();
        prop_assert_eq!(
            &over_view, &eval_at_root(&doc, &unfolded),
            "unfolded {} for {}", &unfolded, &p
        );
        // Auto plans lowered against the document's own label graph.
        let index = DocIndex::new(&doc);
        if let Some(idx) = index.as_ref() {
            for translated in [&direct, &optimized] {
                let plan = compile(translated, PlanPolicy::Auto, &CostModel::from_index(idx));
                prop_assert_eq!(
                    &over_view, &plan.execute(&doc, Some(idx)).0,
                    "lowered {} for {}", plan.explain_text(), &p
                );
            }
        }
        // The serving engine, across every approach × plan policy.
        let engine = SecureEngine::new(&spec, &view);
        for approach in [Approach::Rewrite, Approach::Optimize, Approach::Annotate] {
            for policy in PlanPolicy::ALL {
                let (ans, _) = engine
                    .answer_report_policy(&doc, index.as_ref(), &p, approach, policy)
                    .unwrap();
                prop_assert_eq!(
                    &over_view, &ans,
                    "{:?}/{:?} diverged for {}", approach, policy, &p
                );
            }
        }
    }
}

/// The checked-in `property_security.proptest-regressions` seeds,
/// promoted to deterministic tests. Each reproduces the exact shrunk
/// case upstream proptest recorded (the ASTs are built from raw enum
/// variants so smart-constructor normalization cannot mask the bug),
/// so the regressions stay covered independently of any RNG stream.
mod promoted_seeds {
    use super::*;
    use secure_xml_views::core::rewrite;

    fn empty_spec() -> AccessSpec {
        AccessSpec::builder(&hospital_dtd()).build().unwrap()
    }

    /// The body of `rewrite_is_equivalent` for a pinned case.
    fn check_rewrite_equivalent(spec: &AccessSpec, p: &Path, seed: u64, branch: usize) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(spec).unwrap();
        let Ok(m) = materialize(spec, &view, &doc) else {
            return;
        };
        let pt = rewrite(&view, p).unwrap();
        let mut over_view = m.sources_of(&eval_at_root(&m.doc, p));
        over_view.sort();
        over_view.dedup();
        let over_doc = eval_at_root(&doc, &pt);
        assert_eq!(over_view, over_doc, "query {p} rewritten to {pt}");
    }

    /// The body of `optimize_is_equivalent` for a pinned case.
    fn check_optimize_equivalent(p: &Path, seed: u64, branch: usize) {
        let dtd = hospital_dtd();
        let doc = hospital_doc(seed, branch);
        let o = optimize(&dtd, p).unwrap();
        assert_eq!(eval_at_root(&doc, p), eval_at_root(&doc, &o), "query {p} optimized to {o}");
    }

    /// The body of `no_inaccessible_node_leaks` for a pinned case.
    fn check_no_leaks(spec: &AccessSpec, p: &Path, seed: u64, branch: usize) {
        let doc = hospital_doc(seed, branch);
        let view = derive_view(spec).unwrap();
        let Ok(m) = materialize(spec, &view, &doc) else {
            return;
        };
        use std::collections::BTreeSet;
        let dummy_sources: BTreeSet<_> = m
            .doc
            .all_ids()
            .filter(|&id| m.doc.label_opt(id).map(|l| l.starts_with("dummy")).unwrap_or(false))
            .map(|id| m.source_of(id))
            .collect();
        let access = accessibility::compute(spec, &doc);
        let pt = rewrite(&view, p).unwrap();
        for node in eval_at_root(&doc, &pt) {
            assert!(
                access.is_accessible(node) || dummy_sources.contains(&node),
                "query {p} translated to {pt} leaked node {node}"
            );
        }
    }

    fn label(l: &str) -> Path {
        Path::Label(l.to_string())
    }

    /// `//(hospital | (ε | hospital))` at seed 8, branch 1 (cc c3c76…).
    #[test]
    fn optimize_descendant_union_with_nested_empty_branch() {
        let p = Path::Descendant(Box::new(Path::Union(
            Box::new(label("hospital")),
            Box::new(Path::Union(Box::new(Path::Empty), Box::new(label("hospital")))),
        )));
        check_optimize_equivalent(&p, 8, 1);
    }

    /// `(//(ε | hospital)) | hospital` under the empty annotation at
    /// seed 41, branch 2 (cc c693d…).
    #[test]
    fn rewrite_union_of_descendant_with_empty_branch() {
        let p = Path::Union(
            Box::new(Path::Descendant(Box::new(Path::Union(
                Box::new(Path::Empty),
                Box::new(label("hospital")),
            )))),
            Box::new(label("hospital")),
        );
        check_rewrite_equivalent(&empty_spec(), &p, 41, 2);
    }

    /// `//*` with `ann = {(dept, clinicalTrial): N,
    /// (clinicalTrial, patientInfo): Y, (clinicalTrial, test): Y}` at
    /// seed 196, branch 1 (cc 430f6…) — exercises Proc_InAcc's
    /// short-cut/dummy handling under a full wildcard sweep.
    #[test]
    fn rewrite_descendant_wildcard_under_denied_clinical_trial() {
        let spec = AccessSpec::builder(&hospital_dtd())
            .deny("dept", "clinicalTrial")
            .allow("clinicalTrial", "patientInfo")
            .allow("clinicalTrial", "test")
            .build()
            .unwrap();
        let p = Path::Descendant(Box::new(Path::Wildcard));
        check_rewrite_equivalent(&spec, &p, 196, 1);
        check_no_leaks(&spec, &p, 196, 1);
    }

    /// `//(hospital | ε)` under the empty annotation at seed 1, branch 1
    /// (cc c8898…).
    #[test]
    fn rewrite_descendant_union_with_empty_branch() {
        let p = Path::Descendant(Box::new(Path::Union(
            Box::new(label("hospital")),
            Box::new(Path::Empty),
        )));
        check_rewrite_equivalent(&empty_spec(), &p, 1, 1);
    }

    /// `//(hospital | ε)` at seed 196, branch 1 (cc 6f49b…).
    #[test]
    fn optimize_descendant_union_with_empty_branch() {
        let p = Path::Descendant(Box::new(Path::Union(
            Box::new(label("hospital")),
            Box::new(Path::Empty),
        )));
        check_optimize_equivalent(&p, 196, 1);
    }
}
