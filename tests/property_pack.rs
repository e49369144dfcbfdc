//! Property test for the `.sxvpkg` pack→load roundtrip: for random
//! access specifications over the hospital DTD and random conforming
//! documents, an engine rebuilt from a loaded package must answer every
//! random fragment-`C` query **byte-identically** to the engine built
//! in memory — across all approaches (naive, rewrite, optimize,
//! annotate) and all plan policies (force-walk, force-join, auto).
//!
//! "Byte-identical" means the formatted answer lines `sxv query`
//! prints, not just the node-id sets: label text and string values flow
//! through the package's zero-copy columns (labels, child CSR, text
//! blob), so comparing the rendered output exercises every column a
//! real query touches.

use proptest::prelude::*;
use secure_xml_views::core::{
    answer_line, build_access_view, derive_view, AccessSpec, Approach, PlanPolicy, SecureEngine,
};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::pack::{load_package_bytes, package_to_bytes, RoleArtifacts};
use secure_xml_views::xml::{DocIndex, Document, NodeId};
use secure_xml_views::xpath::{Path, Qualifier};
use std::sync::Arc;

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");

fn hospital_doc(seed: u64, branch: usize) -> Document {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital").unwrap();
    let config = GenConfig::seeded(seed)
        .with_max_branch(branch)
        .with_max_depth(32)
        .with_values("wardNo", ["6", "7"])
        .with_values("name", ["ann", "bob", "cat"])
        .with_values("bill", ["10", "20"]);
    Generator::for_dtd(&dtd, config).generate().expect("consistent DTD")
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

/// A random specification as *source text* (0 = inherit, 1 = allow,
/// 2 = deny per edge, plus an optional ward conditional) — text form,
/// because a package ships the spec as text and the loaded engine
/// re-parses it, so the roundtrip must start from the same syntax.
fn spec_text_strategy() -> impl Strategy<Value = String> {
    (proptest::collection::vec(0u8..3, EDGES.len()), proptest::option::of(0u8..2)).prop_map(
        |(choices, dept_cond)| {
            let mut text = String::new();
            for (&(parent, child), &choice) in EDGES.iter().zip(&choices) {
                match choice {
                    1 => text.push_str(&format!("ann({parent}, {child}) = Y\n")),
                    2 => text.push_str(&format!("ann({parent}, {child}) = N\n")),
                    _ => {}
                }
            }
            if let Some(w) = dept_cond {
                let ward = if w == 0 { "6" } else { "7" };
                text.push_str(&format!("ann(hospital, dept) = [*/patient/wardNo='{ward}']\n"));
            }
            text
        },
    )
}

const QUERY_LABELS: [&str; 13] = [
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
];

fn path_strategy() -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        4 => proptest::sample::select(&QUERY_LABELS[..]).prop_map(Path::label),
        1 => Just(Path::Wildcard),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        let qual = prop_oneof![
            3 => inner.clone().prop_map(Qualifier::path),
            1 => (proptest::sample::select(&["wardNo", "name", "bill"][..]),
                  proptest::sample::select(vec!["6", "ann", "10", "zzz"]))
                .prop_map(|(l, v)| Qualifier::Eq(Path::label(l), v.to_string())),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Qualifier::and(Qualifier::path(a), Qualifier::path(b))),
        ];
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::step(a, b)),
            2 => inner.clone().prop_map(Path::descendant),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::union(a, b)),
            2 => (inner, qual).prop_map(|(p, q)| Path::filter(p, q)),
        ]
    })
}

/// Format answers exactly like `sxv query` stdout.
fn format_answers(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    nodes.iter().map(|&node| answer_line(doc, node)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Pack→load roundtrip equivalence: a packaged engine answers every
    /// query byte-identically to the in-memory build, for every
    /// approach × plan policy.
    #[test]
    fn packaged_answers_are_byte_identical(
        spec_text in spec_text_strategy(),
        p in path_strategy(),
        seed in 0u64..500,
        branch in 1usize..4,
    ) {
        // --- in-memory build (the parse path) ---
        let dtd = parse_dtd(HOSPITAL_DTD, "hospital").unwrap();
        let spec = AccessSpec::parse(&dtd, &spec_text, &[]).unwrap();
        let doc = hospital_doc(seed, branch);
        let view = derive_view(&spec).unwrap();
        let index = DocIndex::new(&doc).expect("non-empty generated doc");
        let access = build_access_view(&spec, &view, &doc, Some(&index));
        let engine = SecureEngine::new(&spec, &view);
        engine.preload_access_view(doc.doc_id(), Arc::new(access.clone()));

        // --- pack, then load (the package path) ---
        let roles = [RoleArtifacts {
            name: "prop",
            spec_text: &spec_text,
            binds: &[],
            access: &access,
        }];
        let bytes = package_to_bytes(HOSPITAL_DTD, "hospital", &doc, &index, &roles).unwrap();
        let pkg = load_package_bytes(&bytes).unwrap();
        prop_assert_eq!(pkg.roles.len(), 1);
        let role = &pkg.roles[0];
        prop_assert_eq!(role.spec_text.as_str(), spec_text.as_str());

        // Rebuild the engine the way `sxv query --package` does: DTD and
        // spec from the packaged text, artifact preloaded.
        let pkg_dtd = parse_dtd(&pkg.dtd_text, &pkg.root_name).unwrap();
        let pkg_spec = AccessSpec::parse(&pkg_dtd, &role.spec_text, &[]).unwrap();
        let pkg_view = derive_view(&pkg_spec).unwrap();
        let pkg_engine = SecureEngine::new(&pkg_spec, &pkg_view);
        pkg_engine.preload_access_view(pkg.doc.doc_id(), role.access.clone());

        for approach in [Approach::Naive, Approach::Rewrite, Approach::Optimize, Approach::Annotate] {
            for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto] {
                let mem = engine
                    .answer_report_policy(&doc, Some(&index), &p, approach, policy)
                    .map(|(nodes, _)| format_answers(&doc, &nodes));
                let packed = pkg_engine
                    .answer_report_policy(&pkg.doc, Some(&pkg.index), &p, approach, policy)
                    .map(|(nodes, _)| format_answers(&pkg.doc, &nodes));
                match (mem, packed) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b,
                        "answers diverge for {} under {:?}/{:?}", &p, approach, policy
                    ),
                    // Both paths must fail identically too (e.g. specs
                    // with no sound & complete view on this instance).
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
                    (a, b) => prop_assert!(
                        false,
                        "one path errored for {} under {:?}/{:?}: mem={:?} pkg={:?}",
                        &p, approach, policy, a.is_ok(), b.is_ok()
                    ),
                }
            }
        }
    }
}
