//! Golden-file snapshots of `sxv explain` over the paper's Table 1
//! queries (§6) under the Adex policy of `assets/adex_section6.spec`,
//! the recursive BOM contractor view, and the hospital nurse view, of
//! the `sxv rewrite` translations of the five shipped policies, and of
//! the plan executor's work counters.
//!
//! Explain prints the engine's cached `auto` plan, the one every serving
//! surface runs. It is costed from DTD-derived expected cardinalities,
//! which are deterministic for a fixed DTD — so the full text dump
//! (operators, per-operator `est_rows`) is stable and any planner change
//! shows up as a readable diff. Regenerate after an intentional change
//! with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots
//! ```

use secure_xml_views::core::{
    certify_traced, derive_view, dtd_cost_model, AccessSpec, Approach, NaiveBaseline, PlanPolicy,
    SecureEngine,
};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::DocIndex;
use secure_xml_views::xpath::{
    compile, compile_annotate, parse as parse_xpath, CostModel, EQUIVALENCE_QUERIES,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Table 1's queries (kept in sync with `sxv_bench::TABLE1_QUERIES`).
const TABLE1: [(&str, &str); 4] = [
    ("q1", "//buyer-info/contact-info"),
    ("q2", "//house/r-e.warranty | //apartment/r-e.warranty"),
    ("q3", "//buyer-info[//company-id and //contact-info]"),
    ("q4", "//real-estate[//r-e.asking-price and //r-e.unit-type]"),
];

/// Queries over the recursive BOM contractor view (kept in sync with
/// `sxv_bench::BOM_QUERIES`): the part → subpart → part cycle makes the
/// view recursive, so these translate into Kleene-closure expressions
/// and compile to closure-expand operators.
const BOM: [(&str, &str); 3] =
    [("b1", "//partno"), ("b2", "//part/name"), ("b3", "assembly/part/subpart//partno")];

/// `--verify` queries over the paper's nurse view (§3) for ward 6. The
/// Adex and BOM certificates show no dummy label, error finding, probe
/// warning or `eq` probe line; these pin each. Entries: snapshot name,
/// query, approach, extra flags, and explain's exit code (1 when the
/// plan is not certified).
const NURSE: [(&str, &str, &str, &[&str], i32); 5] = [
    ("nurse_all_annotate_verify.txt", "//*", "annotate", &[], 0),
    ("nurse_test_naive_verify.txt", "//test", "naive", &[], 1),
    ("nurse_dept_probe_naive_verify.txt", "//dept[.//test]", "naive", &[], 0),
    ("nurse_patient_eq_rewrite_verify.txt", "//patient[wardNo='6']", "rewrite", &[], 0),
    ("nurse_treatment_annotate_verify.json", "//treatment/*", "annotate", &["--format", "json"], 0),
];

const NURSE_POLICY: [&str; 3] = ["assets/hospital.dtd", "hospital", "assets/hospital_nurse.spec"];

/// The five shipped policies and their queries (kept in sync with
/// `scripts/parity.sh`): `sxv rewrite` flags, then queries.
const TRANSLATED: [(&[&str], &[&str]); 5] = [
    (
        &["--dtd", "assets/adex.dtd", "--root", "adex", "--spec", "assets/adex_section6.spec"],
        &[
            "//buyer-info/contact-info",
            "//house/r-e.warranty | //apartment/r-e.warranty",
            "//buyer-info[//company-id and //contact-info]",
            "//real-estate[//r-e.asking-price and //r-e.unit-type]",
            "//*",
            "head/*",
            "//ad-instance[real-estate]",
        ],
    ),
    (
        &[
            "--dtd",
            "assets/hospital.dtd",
            "--root",
            "hospital",
            "--spec",
            "assets/hospital_nurse.spec",
            "--bind",
            "wardNo=6",
        ],
        &[
            "//bill",
            "//patient/name",
            "//patient[wardNo='6']",
            "//dept/patientInfo",
            "//treatment/*",
            "//test",
            "dept",
            "//*",
        ],
    ),
    (
        &[
            "--dtd",
            "assets/hospital.dtd",
            "--root",
            "hospital",
            "--spec",
            "assets/hospital_doctor.spec",
        ],
        &["//bill", "//patient/name", "//treatment", "//test", "dept", "//*"],
    ),
    (
        &["--dtd", "assets/auction.dtd", "--root", "site", "--spec", "assets/auction_bidder.spec"],
        &[
            "//open-auction/current",
            "//bid/amount",
            "//closed-auction/final-price",
            "//category/cat-name",
            "//*",
        ],
    ),
    (
        &["--dtd", "assets/bom.dtd", "--root", "bom", "--spec", "assets/bom_contractor.spec"],
        &["//partno", "//part/name", "assembly/part/subpart//partno", "//part[name]/partno", "//*"],
    ),
];

fn explain_policy(policy: [&str; 3], query: &str, extra: &[&str], code: i32) -> String {
    let [dtd, root, spec] = policy;
    let out = Command::new(env!("CARGO_BIN_EXE_sxv"))
        .args(["explain", "--dtd", dtd, "--root", root, "--spec", spec, "--query", query])
        .args(extra)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(code),
        "explain {query:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 plan dump")
}

fn explain(query: &str, extra: &[&str]) -> String {
    explain_policy(["assets/adex.dtd", "adex", "assets/adex_section6.spec"], query, extra, 0)
}

fn explain_bom(query: &str, extra: &[&str]) -> String {
    explain_policy(["assets/bom.dtd", "bom", "assets/bom_contractor.spec"], query, extra, 0)
}

fn check_snapshot(name: &str, got: &str) {
    let path = PathBuf::from("tests/snapshots").join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: plan drifted; if intentional, regenerate with \
         UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots"
    );
}

#[test]
fn table1_text_plans_match_snapshots() {
    for (name, query) in TABLE1 {
        check_snapshot(&format!("explain_{name}.txt"), &explain(query, &[]));
    }
}

#[test]
fn table1_rewrite_plans_match_snapshots() {
    // The un-optimized rewrite keeps Q4's dead qualifier, so these pin
    // the qualifier-probe rendering too.
    for (name, query) in TABLE1 {
        check_snapshot(
            &format!("explain_{name}_rewrite.txt"),
            &explain(query, &["--approach", "rewrite"]),
        );
    }
}

#[test]
fn q1_json_plan_matches_snapshot() {
    check_snapshot("explain_q1.json", &explain(TABLE1[0].1, &["--format", "json"]));
}

#[test]
fn table1_annotate_plans_match_snapshots() {
    // Annotate plans serve the view query itself: the snapshots pin the
    // bitmap-filter / view-child / view-descendant operator rendering.
    for (name, query) in TABLE1 {
        check_snapshot(
            &format!("explain_{name}_annotate.txt"),
            &explain(query, &["--approach", "annotate"]),
        );
    }
}

#[test]
fn table1_rewrite_verify_traces_match_snapshots() {
    // `--verify` appends the static certificate (verdict, abstract
    // emitted/probed states, per-operator trace) to the text dump. The
    // certifier consults only the DTD and the policy, so the trace is
    // exactly as deterministic as the plan itself; snapshotting it pins
    // both the abstract transfer functions and the rendering.
    for (name, query) in TABLE1 {
        check_snapshot(
            &format!("explain_{name}_rewrite_verify.txt"),
            &explain(query, &["--approach", "rewrite", "--verify"]),
        );
    }
}

#[test]
fn table1_annotate_verify_traces_match_snapshots() {
    // Annotate plans run view operators; their certificates show the
    // bitmap-guarded confinement to accessible-or-dummy states.
    for (name, query) in TABLE1 {
        check_snapshot(
            &format!("explain_{name}_annotate_verify.txt"),
            &explain(query, &["--approach", "annotate", "--verify"]),
        );
    }
}

#[test]
fn q2_annotate_json_plan_matches_snapshot() {
    check_snapshot(
        "explain_q2_annotate.json",
        &explain(TABLE1[1].1, &["--approach", "annotate", "--format", "json"]),
    );
}

#[test]
fn bom_recursive_text_plans_match_snapshots() {
    // The recursive contractor view serves every query through the
    // direct closure translation — these pin the `(…)*` expression
    // rendering and the closure-expand operator in the plan dump.
    for (name, query) in BOM {
        check_snapshot(&format!("explain_{name}.txt"), &explain_bom(query, &[]));
    }
}

#[test]
fn bom_recursive_rewrite_plans_match_snapshots() {
    // The un-optimized rewrite keeps the raw Kleene elimination output.
    for (name, query) in BOM {
        check_snapshot(
            &format!("explain_{name}_rewrite.txt"),
            &explain_bom(query, &["--approach", "rewrite"]),
        );
    }
}

#[test]
fn b1_rewrite_verify_trace_matches_snapshot() {
    // `--verify` on a closure plan pins the certifier's fixpoint
    // transfer rendering: the closure-expand trace line shows the
    // saturated abstract state, not a height-bounded unfolding.
    check_snapshot(
        "explain_b1_rewrite_verify.txt",
        &explain_bom(BOM[0].1, &["--approach", "rewrite", "--verify"]),
    );
}

#[test]
fn b1_json_plan_matches_snapshot() {
    check_snapshot("explain_b1.json", &explain_bom(BOM[0].1, &["--format", "json"]));
}

#[test]
fn translations_match_snapshot() {
    // `sxv rewrite` prints the free `rewrite` and `optimize` functions'
    // translations, which no plan snapshot reaches: every policy × query,
    // optimized and `--no-optimize`, then the recursive BOM view through
    // the §4.2 unfolding oracle (`--height`).
    let mut runs: Vec<Vec<&str>> = Vec::new();
    for (policy, queries) in TRANSLATED {
        for &query in queries {
            for extra in [&[][..], &["--no-optimize"]] {
                runs.push([policy, &["--query", query], extra].concat());
            }
        }
    }
    let (bom, bom_queries) = TRANSLATED[4];
    for &query in bom_queries {
        for extra in [&[][..], &["--no-optimize"]] {
            runs.push([bom, &["--query", query, "--height", "8"], extra].concat());
        }
    }
    let mut transcript = String::new();
    for args in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_sxv"))
            .arg("rewrite")
            .args(&args)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "rewrite {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        transcript.push_str(&format!("## rewrite {}\n", args.join(" ")));
        transcript.push_str(std::str::from_utf8(&out.stdout).expect("utf-8 translation"));
    }
    check_snapshot("translations.txt", &transcript);
}

#[test]
fn nurse_verify_traces_match_snapshots() {
    for (name, query, approach, extra, code) in NURSE {
        let flags = [&["--bind", "wardNo=6", "--approach", approach, "--verify"], extra].concat();
        check_snapshot(
            &format!("explain_{name}"),
            &explain_policy(NURSE_POLICY, query, &flags, code),
        );
    }
}

#[test]
fn explain_prints_the_plan_the_engine_serves() {
    // `sxv explain --verify` must print exactly the plan the engine
    // caches for serving, not a plan of its own, and its certificate.
    let nurse: Vec<(&str, &str)> = NURSE.iter().map(|&(name, query, ..)| (name, query)).collect();
    let policies = [
        ("assets/adex.dtd", "adex", "assets/adex_section6.spec", &[][..], &TABLE1[..]),
        ("assets/bom.dtd", "bom", "assets/bom_contractor.spec", &[], &BOM[..]),
        ("assets/hospital.dtd", "hospital", "assets/hospital_nurse.spec", &["wardNo=6"], &nurse),
    ];
    for (dtd_path, root, spec_path, binds, queries) in policies {
        let dtd = parse_dtd(&std::fs::read_to_string(dtd_path).unwrap(), root).unwrap();
        let params: Vec<(&str, &str)> =
            binds.iter().map(|b| b.split_once('=').expect("k=v binding")).collect();
        let spec =
            AccessSpec::parse(&dtd, &std::fs::read_to_string(spec_path).unwrap(), &params).unwrap();
        let view = derive_view(&spec).unwrap();
        let engine = SecureEngine::new(&spec, &view);
        for (name, query) in queries {
            for approach_name in ["naive", "rewrite", "optimize", "annotate"] {
                let approach: Approach = approach_name.parse().unwrap();
                let (planned, _) =
                    engine.plan_certified(&parse_xpath(query).unwrap(), approach, PlanPolicy::Auto);
                let planned = planned.unwrap();
                let context = format!("{name} ({approach_name})");
                // The engine caches certificates without traces; a traced
                // certification of its plan has the cached verdict.
                let traced = certify_traced(&planned.plan, engine.certify_context());
                assert_eq!(traced.cert, *planned.cert, "{context}");
                let want = format!(
                    "translated query: {}\n{}{}",
                    planned.plan.translated,
                    planned.plan.explain_text(),
                    traced.to_text()
                );
                let out = Command::new(env!("CARGO_BIN_EXE_sxv"))
                    .args(["explain", "--dtd", dtd_path, "--root", root, "--spec", spec_path])
                    .args(["--query", query, "--approach", approach_name, "--verify"])
                    .args(binds.iter().flat_map(|b| ["--bind", b]))
                    .output()
                    .expect("binary runs");
                assert_eq!(String::from_utf8(out.stdout).unwrap(), want, "{context}");
                let code = if planned.cert.certified() { 0 } else { 1 };
                assert_eq!(out.status.code(), Some(code), "{context}");
            }
        }
    }
}

/// The approaches the counters snapshot runs, by their CLI names.
const APPROACHES: [&str; 4] = ["naive", "rewrite", "optimize", "annotate"];

/// Append one counters line per cell for `queries` under one policy,
/// over a document generated from `config`: each approach's translation
/// compiled under every planner policy with the DTD and the index cost
/// model, then executed with and without an index. Naive plans run over
/// the annotated copy (and its own index), annotate plans filter the
/// document through its access view.
fn counter_lines(
    policy: [&str; 3],
    binds: &[(&str, &str)],
    queries: &[&str],
    config: GenConfig,
    out: &mut String,
) {
    let [dtd_path, root, spec_path] = policy;
    let dtd = parse_dtd(&std::fs::read_to_string(dtd_path).unwrap(), root).unwrap();
    let spec =
        AccessSpec::parse(&dtd, &std::fs::read_to_string(spec_path).unwrap(), binds).unwrap();
    let view = derive_view(&spec).unwrap();
    let engine = SecureEngine::new(&spec, &view);
    let doc = Generator::for_dtd(&dtd, config).generate().expect("consistent DTD");
    let annotated = NaiveBaseline::annotate(&spec, &doc);
    let (index, annotated_index) =
        (DocIndex::new(&doc).unwrap(), DocIndex::new(&annotated).unwrap());
    let access = engine.access_view(&doc, Some(&index));
    let dtd_cost = dtd_cost_model(spec.dtd(), true);
    let _ = writeln!(out, "## {spec_path}: {} nodes", doc.len());
    for query in queries {
        let p = parse_xpath(query).unwrap();
        for name in APPROACHES {
            let approach: Approach = name.parse().unwrap();
            let translated = match engine.translate(&p, approach) {
                Ok(t) => t,
                Err(e) => {
                    let _ = writeln!(out, "{query} | {name}: error {e}");
                    continue;
                }
            };
            let (d, idx, av) = match approach {
                Approach::Naive => (&annotated, &annotated_index, None),
                Approach::Annotate => (&doc, &index, Some(&*access)),
                Approach::Rewrite | Approach::Optimize => (&doc, &index, None),
            };
            let costs = [("dtd", &dtd_cost), ("index", &CostModel::from_index(idx))];
            for plan_policy in PlanPolicy::ALL {
                for (cost_name, cost) in costs {
                    let plan = if approach == Approach::Annotate {
                        compile_annotate(&translated, plan_policy, cost)
                    } else {
                        compile(&translated, plan_policy, cost)
                    };
                    for (run, with) in [("idx", Some(idx)), ("scan", None)] {
                        let (answer, s) = plan.execute_with_access(d, with, av);
                        let _ = writeln!(
                            out,
                            "{query} | {name} {plan_policy} {cost_name} {run}: answers={} \
                             touched={} quals={} lookups={} merges={} probes={}",
                            answer.len(),
                            s.nodes_touched,
                            s.qualifier_checks,
                            s.index_lookups,
                            s.merge_steps,
                            s.interval_probes
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn executor_counters_match_snapshot() {
    // The plan executor's answer counts and work counters, per cell:
    // bench-smoke's counter gate sees only indexed Adex rows, so this
    // pins the unindexed paths (every naive cell serves that way) and
    // annotate plans over the view tree as well.
    let mut transcript = String::new();
    counter_lines(
        NURSE_POLICY,
        &[("wardNo", "6")],
        EQUIVALENCE_QUERIES,
        GenConfig::seeded(7)
            .with_max_branch(4)
            .with_max_depth(32)
            .with_values("wardNo", ["6", "7"])
            .with_values("name", ["Ann", "Bob", "Cat"]),
        &mut transcript,
    );
    counter_lines(
        ["assets/adex.dtd", "adex", "assets/adex_section6.spec"],
        &[],
        &TABLE1.map(|(_, q)| q),
        GenConfig::seeded(11).with_max_branch(6).with_min_branch(3).with_max_depth(64),
        &mut transcript,
    );
    counter_lines(
        ["assets/bom.dtd", "bom", "assets/bom_contractor.spec"],
        &[],
        &BOM.map(|(_, q)| q),
        GenConfig::seeded(13)
            .with_max_branch(2)
            .with_min_branch(1)
            .with_max_depth(12)
            .with_values("partno", ["p-100", "p-200"]),
        &mut transcript,
    );
    check_snapshot("counters.txt", &transcript);
}
