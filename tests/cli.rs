//! Integration tests for the `sxv` command-line front end, driving the
//! real binary over the shipped assets.

use std::io::Write;
use std::process::Command;

fn sxv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sxv"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = sxv().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`run`] but exposing the exact exit code (`sxv lint` uses 0/1/2).
fn run_code(args: &[&str]) -> (String, String, i32) {
    let out = sxv().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("no signal"),
    )
}

const DTD_ARGS: [&str; 4] = ["--dtd", "assets/hospital.dtd", "--root", "hospital"];

#[test]
fn derive_prints_view_dtd_without_sigma() {
    let mut args = vec!["derive"];
    args.extend(DTD_ARGS);
    args.extend(["--spec", "assets/hospital_nurse.spec", "--bind", "wardNo=6"]);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("hospital -> dept*"), "{stdout}");
    assert!(stdout.contains("dummy1"), "{stdout}");
    assert!(!stdout.contains("clinicalTrial"), "hidden label leaked:\n{stdout}");
    assert!(!stdout.contains("σ("), "σ printed without --show-sigma:\n{stdout}");

    args.push("--show-sigma");
    let (with_sigma, _, ok) = run(&args);
    assert!(ok);
    assert!(with_sigma.contains("σ(hospital, dept) = dept[*/patient/wardNo='6']"), "{with_sigma}");
}

#[test]
fn derive_refuses_deeply_nested_dtd_groups() {
    // A 100 000-deep content model (~200 KB) used to overflow the DTD
    // parser's stack and abort the process.
    let dir = std::env::temp_dir().join(format!("sxv-cli-deep-dtd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = 100_000;
    let dtd = format!("<!ELEMENT a {}b{}>\n<!ELEMENT b EMPTY>\n", "(".repeat(n), ")".repeat(n));
    let (dtd_path, spec_path) = (dir.join("deep.dtd"), dir.join("a.spec"));
    std::fs::write(&dtd_path, dtd).unwrap();
    std::fs::write(&spec_path, "ann(a, b) = Y\n").unwrap();
    let (dtd_str, spec_str) = (dtd_path.to_str().unwrap(), spec_path.to_str().unwrap());
    let (stdout, stderr, code) =
        run_code(&["derive", "--dtd", dtd_str, "--root", "a", "--spec", spec_str]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("DTD content model nests deeper than 128 groups"), "{stderr}");
}

#[test]
fn diamond_chain_query_explains_to_one_schema_slice() {
    // Over 16 DTD diamonds (`s_i → (a_i | b_i)`, both to `s_{i+1}`)
    // `//s17` reaches `s17` along 2^16 label paths. The optimized
    // translation shares them, so the plan is one schema slice, not an
    // op per path.
    let dir = std::env::temp_dir().join(format!("sxv-cli-diamonds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut dtd = String::from("<!ELEMENT r (s1)>\n<!ELEMENT s17 EMPTY>\n");
    for i in 1..=16 {
        let j = i + 1;
        dtd += &format!(
            "<!ELEMENT s{i} (a{i} | b{i})>\n<!ELEMENT a{i} (s{j})>\n<!ELEMENT b{i} (s{j})>\n"
        );
    }
    let (dtd_path, spec_path) = (dir.join("chain.dtd"), dir.join("empty.spec"));
    std::fs::write(&dtd_path, dtd).unwrap();
    std::fs::write(&spec_path, "").unwrap();
    let (dtd_str, spec_str) = (dtd_path.to_str().unwrap(), spec_path.to_str().unwrap());
    let (stdout, stderr, ok) = run(&[
        "explain",
        "--dtd",
        dtd_str,
        "--root",
        "r",
        "--spec",
        spec_str,
        "--approach",
        "optimize",
        "--query",
        "//s17",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("plan (policy=auto, ops[schema:1] "), "{stdout}");
}

#[test]
fn rewrite_translates_and_optimizes() {
    let mut args = vec!["rewrite"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//clinicalTrial",
    ]);
    let (stdout, _, ok) = run(&args);
    assert!(ok);
    assert_eq!(stdout.trim(), "∅", "hidden label must translate to the empty query");

    let mut args2 = vec!["rewrite"];
    args2.extend(DTD_ARGS);
    args2.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//patient/name",
        "--no-optimize",
    ]);
    let (raw, _, ok) = run(&args2);
    assert!(ok);
    assert!(raw.contains("patient/name"), "{raw}");
}

#[test]
fn generate_validate_query_pipeline() {
    let dir = std::env::temp_dir().join(format!("sxv-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("hospital.xml");

    let mut gen_args = vec!["generate"];
    gen_args.extend(DTD_ARGS);
    gen_args.extend(["--branch", "3", "--seed", "11"]);
    let (xml, stderr, ok) = run(&gen_args);
    assert!(ok, "{stderr}");
    std::fs::File::create(&doc_path).unwrap().write_all(xml.as_bytes()).unwrap();

    let doc_str = doc_path.to_str().unwrap();
    let mut val_args = vec!["validate"];
    val_args.extend(DTD_ARGS);
    val_args.extend(["--doc", doc_str]);
    let (v_out, v_err, ok) = run(&val_args);
    assert!(ok, "{v_err}");
    assert!(v_out.contains("valid"), "{v_out}");

    let mut q_args = vec!["query"];
    q_args.extend(DTD_ARGS);
    q_args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--doc",
        doc_str,
        "--query",
        "//test",
    ]);
    let (q_out, q_err, ok) = run(&q_args);
    assert!(ok, "{q_err}");
    assert!(q_err.contains("0 result(s)"), "hidden test data leaked: {q_out}{q_err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_stats_reports_cache_and_eval_counters() {
    let dir = std::env::temp_dir().join(format!("sxv-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("h.xml");
    std::fs::write(
        &doc_path,
        "<hospital><dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial>\
         <patientInfo><patient><name>A</name><wardNo>6</wardNo>\
         <treatment><trial><bill>9</bill></trial></treatment></patient></patientInfo>\
         <staffInfo/></dept></hospital>",
    )
    .unwrap();
    let doc_str = doc_path.to_str().unwrap();
    let base = [
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--doc",
        doc_str,
        "--query",
        "//patient/name",
        "--stats",
        "--repeat",
        "3",
    ];
    let mut args = vec!["query"];
    args.extend(DTD_ARGS);
    args.extend(base);
    let (_, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("translated query:"), "{stderr}");
    assert!(stderr.contains("nodes_touched="), "{stderr}");
    assert!(stderr.contains("plan (auto policy): ops="), "{stderr}");
    assert!(stderr.contains("est_rows≈"), "{stderr}");
    assert!(stderr.contains("hits=2 misses=1"), "three repeats = 1 miss + 2 hits: {stderr}");
    assert!(stderr.contains("hit_rate=66.7%"), "{stderr}");
    assert!(stderr.contains("plans_compiled=1"), "repeats must reuse the cached plan: {stderr}");
    assert!(stderr.contains("last query: hit"), "{stderr}");
    assert!(stderr.contains("1 result(s)"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeats_agree_and_retired_flags_are_refused() {
    let dir = std::env::temp_dir().join(format!("sxv-cli-repeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("h.xml");
    std::fs::write(
        &doc_path,
        "<hospital><dept><patientInfo><patient><name>A</name><wardNo>6</wardNo>\
         <treatment><trial><bill>9</bill></trial></treatment></patient></patientInfo>\
         <patientInfo><patient><name>B</name><wardNo>7</wardNo>\
         <treatment><trial><bill>3</bill></trial></treatment></patient></patientInfo>\
         <staffInfo/></dept></hospital>",
    )
    .unwrap();
    let doc_str = doc_path.to_str().unwrap();
    let base = [
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--doc",
        doc_str,
        "--query",
        "//patient/name",
        "--stats",
    ];
    let mut one_args = vec!["query"];
    one_args.extend(DTD_ARGS);
    one_args.extend(base);
    let (one_out, one_err, ok) = run(&one_args);
    assert!(ok, "{one_err}");

    // Repeat copies answer from the cached plan: same answer.
    let mut repeat_args = one_args.clone();
    repeat_args.extend(["--repeat", "6"]);
    let (repeat_out, repeat_err, ok) = run(&repeat_args);
    assert!(ok, "{repeat_err}");
    assert_eq!(one_out, repeat_out, "repeated answer differs from one run");
    // The ward qualifier guards the dept edge, so both patients in the
    // qualifying dept are visible.
    assert!(repeat_err.contains("2 result(s)"), "{repeat_err}");

    // A zero repeat count is a usage error, not a silent clamp: the
    // message must name the flag and the minimum.
    let mut zero = one_args.clone();
    zero.extend(["--repeat", "0"]);
    let (_, zero_err, ok) = run(&zero);
    assert!(!ok);
    assert!(zero_err.contains("--repeat"), "{zero_err}");
    assert!(zero_err.contains("at least 1"), "{zero_err}");

    // Every plan is the engine's indexed `auto` plan, run on the
    // calling thread: the flags that used to pick another plan or fan
    // repeats across worker threads are refused with exit 1, the flag
    // named and the usage printed, rather than ignored or eating the
    // next flag.
    let mut explain_args = vec!["explain"];
    explain_args.extend(DTD_ARGS);
    explain_args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//patient/name",
    ]);
    let retired: [(&Vec<&str>, &[&str], &str); 6] = [
        (&one_args, &["--backend", "join"], "--backend"),
        (&one_args, &["--indexed", "--stats"], "--indexed"),
        (&one_args, &["--threads", "3"], "--threads"),
        (&explain_args, &["--policy", "walk"], "--policy"),
        (&explain_args, &["--doc", doc_str], "--doc"),
        (&explain_args, &["--height", "3"], "--height"),
    ];
    for (args, extra, flag) in retired {
        let mut args = args.clone();
        args.extend(extra);
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{stdout}");
        assert!(stderr.contains(&format!("does not take {flag}")), "{stderr}");
        assert!(stderr.contains(&format!("usage: sxv {}", args[0])), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_refuses_deeply_nested_queries() {
    // 50 000 nested parentheses used to overflow the parser's stack.
    let deep = format!("{}dept{}", "(".repeat(50_000), ")".repeat(50_000));
    let mut args = vec!["explain"];
    args.extend(DTD_ARGS);
    args.extend(["--spec", "assets/hospital_nurse.spec", "--bind", "wardNo=6", "--query", &deep]);
    let (stdout, stderr, code) = run_code(&args);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("XPath query nests deeper than 128 levels"), "{stderr}");
}

#[test]
fn explain_renders_plans_text_and_json() {
    let mut args = vec!["explain"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//patient/name",
    ]);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("translated query:"), "{stdout}");
    assert!(stdout.contains("plan (policy=auto"), "{stdout}");
    assert!(stdout.contains("est_rows≈"), "{stdout}");

    let mut json_args = args.clone();
    json_args.extend(["--format", "json"]);
    let (json, j_err, ok) = run(&json_args);
    assert!(ok, "{j_err}");
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"policy\": \"auto\""), "{json}");
    assert!(json.contains("\"ops\":"), "{json}");
    assert!(json.contains("\"est_rows\":"), "{json}");

    // The naive translation is `//`-heavy: the fusion pass collapses the
    // trailing slice → qualifier chain into one streaming fused scan
    // instead of materializing per-operator sets.
    let mut naive = args.clone();
    naive.extend(["--approach", "naive"]);
    let (naive_plan, _, ok) = run(&naive);
    assert!(ok);
    assert!(naive_plan.contains("descendant-slice"), "{naive_plan}");
    assert!(naive_plan.contains("fused-scan"), "{naive_plan}");

    // Bad values are rejected with the choices listed.
    let mut bad = args.clone();
    bad.extend(["--approach", "turbo"]);
    let (_, bad_err, ok) = run(&bad);
    assert!(!ok);
    assert!(bad_err.contains("unknown approach"), "{bad_err}");
    assert!(bad_err.contains("valid values: naive, rewrite, optimize, annotate"), "{bad_err}");
}

#[test]
fn materialize_strips_hidden_content() {
    let dir = std::env::temp_dir().join(format!("sxv-cli-mat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("h.xml");
    std::fs::write(
        &doc_path,
        "<hospital><dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial>\
         <patientInfo><patient><name>A</name><wardNo>6</wardNo>\
         <treatment><trial><bill>9</bill></trial></treatment></patient></patientInfo>\
         <staffInfo/></dept></hospital>",
    )
    .unwrap();
    let mut args = vec!["materialize"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--doc",
        doc_path.to_str().unwrap(),
    ]);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("<dummy1>"), "{stdout}");
    assert!(!stdout.contains("trial"), "hidden label leaked:\n{stdout}");
    assert!(!stdout.contains("<test>"), "hidden element leaked:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_reports_errors() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    let (_, stderr, ok) = run(&["derive", "--dtd", "assets/hospital.dtd"]);
    assert!(!ok);
    assert!(stderr.contains("--root"), "{stderr}");
    let (_, stderr, ok) = run(&["derive", "--dtd", "/nonexistent", "--root", "x", "--spec", "y"]);
    assert!(!ok);
    assert!(stderr.contains("/nonexistent"), "{stderr}");
}

#[test]
fn missing_flag_errors_name_the_subcommand() {
    // The error must say which subcommand is incomplete and print that
    // subcommand's usage line, not the global help.
    let (_, stderr, ok) = run(&["derive", "--dtd", "assets/hospital.dtd"]);
    assert!(!ok);
    assert!(stderr.contains("`sxv derive` is missing required --root"), "{stderr}");
    assert!(stderr.contains("usage: sxv derive --dtd FILE --root NAME --spec FILE"), "{stderr}");
    assert!(!stderr.contains("materialize"), "global help leaked into the message: {stderr}");

    let mut args = vec!["query"];
    args.extend(DTD_ARGS);
    args.extend(["--spec", "assets/hospital_nurse.spec", "--bind", "wardNo=6"]);
    let (_, stderr, ok) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("`sxv query` is missing required --doc"), "{stderr}");
    assert!(stderr.contains("usage: sxv query"), "{stderr}");
}

const LEAKY_ARGS: [&str; 6] =
    ["--dtd", "examples/lint/leaky.dtd", "--root", "record", "--spec", "examples/lint/leaky.spec"];

#[test]
fn explain_verify_prints_certificate_and_flags_leaks() {
    let mut args = vec!["explain"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//bill",
        "--verify",
    ]);
    let (stdout, stderr, code) = run_code(&args);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("certificate: certified"), "{stdout}");
    assert!(stdout.contains("emitted:"), "{stdout}");
    assert!(stdout.contains("trace:"), "{stdout}");

    // JSON mode nests the plan and the certificate side by side.
    let mut json_args = args.clone();
    json_args.extend(["--format", "json"]);
    let (json, j_err, code) = run_code(&json_args);
    assert_eq!(code, 0, "{j_err}");
    assert!(json.contains("\"plan\":"), "{json}");
    assert!(json.contains("\"certificate\":"), "{json}");
    assert!(json.contains("\"certified\": true"), "{json}");

    // A naive plan emitting the hidden `test` type is uncertified and
    // turns the exit code to 1 so CI pipelines can gate on it.
    let mut bad = vec!["explain"];
    bad.extend(DTD_ARGS);
    bad.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//test",
        "--approach",
        "naive",
        "--verify",
    ]);
    let (stdout, _, code) = run_code(&bad);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("NOT CERTIFIED"), "{stdout}");
    assert!(stdout.contains("emitted type `test`"), "{stdout}");

    // Without --verify the same plan explains fine: no certificate, exit 0.
    bad.pop();
    let (stdout, _, code) = run_code(&bad);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("certificate"), "{stdout}");
}

#[test]
fn query_verify_refuses_uncertified_plans() {
    let dir = std::env::temp_dir().join(format!("sxv-cli-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("h.xml");
    std::fs::write(
        &doc_path,
        "<hospital><dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial>\
         <patientInfo><patient><name>A</name><wardNo>6</wardNo>\
         <treatment><trial><bill>9</bill></trial></treatment></patient></patientInfo>\
         <staffInfo/></dept></hospital>",
    )
    .unwrap();
    let doc_str = doc_path.to_str().unwrap();
    let base = ["--spec", "assets/hospital_nurse.spec", "--bind", "wardNo=6", "--doc", doc_str];

    // An uncertified naive plan is refused outright under --verify —
    // the engine never executes it.
    let mut bad = vec!["query"];
    bad.extend(DTD_ARGS);
    bad.extend(base);
    bad.extend(["--query", "//test", "--approach", "naive", "--verify"]);
    let (_, stderr, ok) = run(&bad);
    assert!(!ok, "uncertified plan must be refused: {stderr}");
    assert!(stderr.contains("failed static certification"), "{stderr}");
    assert!(stderr.contains("test"), "{stderr}");

    // The certified pipeline keeps serving under --verify, and --stats
    // surfaces the certifier counters.
    let mut good = vec!["query"];
    good.extend(DTD_ARGS);
    good.extend(base);
    good.extend(["--query", "//bill", "--verify", "--stats"]);
    let (_, stderr, ok) = run(&good);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("certifier: plans_certified=1"), "{stderr}");
    assert!(stderr.contains("last plan: certified"), "{stderr}");
    assert!(stderr.contains("verify on"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_plans_passes_the_pipeline_and_rejects_leaky_views() {
    // The derived nurse pipeline certifies across every approach and
    // policy: --plans adds no diagnostics even under --deny-warnings.
    let mut args = vec!["lint"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "//bill",
        "--query",
        "//patient/name",
        "--plans",
        "--allow",
        "SXV005",
        "--allow",
        "SXV107",
        "--deny-warnings",
    ]);
    let (stdout, stderr, code) = run_code(&args);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");

    // A hand-authored view that σ-selects denied data produces plans
    // that emit the hidden type: SXV301 + SXV303 per plan, exit 2.
    let mut bad = vec!["lint"];
    bad.extend(LEAKY_ARGS);
    bad.extend(["--view", "examples/lint/leaky.view", "--query", "//salary", "--plans"]);
    let (stdout, _, code) = run_code(&bad);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("error[SXV301]"), "{stdout}");
    assert!(stdout.contains("error[SXV303]"), "{stdout}");
    assert!(stdout.contains("salary"), "{stdout}");
}

#[test]
fn lint_exit_code_0_on_clean_policy() {
    let (stdout, stderr, code) = run_code(&[
        "lint",
        "--dtd",
        "assets/auction.dtd",
        "--root",
        "site",
        "--spec",
        "assets/auction_bidder.spec",
        "--deny-warnings",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn lint_exit_code_1_on_warnings_with_deny_warnings() {
    // The nurse policy of the paper carries two real warnings: a
    // redundant annotation and the Example 1.1 dummy-choice channel.
    let mut args = vec!["lint"];
    args.extend(DTD_ARGS);
    args.extend(["--spec", "assets/hospital_nurse.spec", "--bind", "wardNo=6"]);
    let (stdout, _, code) = run_code(&args);
    assert_eq!(code, 0, "warnings alone must not fail without --deny-warnings: {stdout}");
    assert!(stdout.contains("SXV005"), "{stdout}");
    assert!(stdout.contains("SXV107"), "{stdout}");

    args.push("--deny-warnings");
    let (stdout, _, code) = run_code(&args);
    assert_eq!(code, 1, "{stdout}");
}

#[test]
fn lint_exit_code_2_on_seeded_leaky_view() {
    // e2e leakage audit: a hand-authored view exposing a denied type is
    // rejected with the σ-leak error and exit code 2.
    let mut args = vec!["lint"];
    args.extend(LEAKY_ARGS);
    args.extend(["--view", "examples/lint/leaky.view"]);
    let (stdout, stderr, code) = run_code(&args);
    assert_eq!(code, 2, "{stdout}{stderr}");
    assert!(stdout.contains("error[SXV101]"), "{stdout}");
    assert!(stdout.contains("σ(record, salary)"), "{stdout}");
    // The derived view for the same policy is sound: exit 0.
    let mut ok_args = vec!["lint"];
    ok_args.extend(LEAKY_ARGS);
    ok_args.push("--deny-warnings");
    let (stdout, _, code) = run_code(&ok_args);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn lint_flags_statically_empty_query() {
    // `staffInfo/patient` speaks view vocabulary but is provably empty
    // on every conforming document — SXV202, a warning.
    let mut args = vec!["lint"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--query",
        "staffInfo/patient",
        "--allow",
        "SXV005",
        "--allow",
        "SXV107",
    ]);
    let (stdout, _, code) = run_code(&args);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("warning[SXV202]"), "{stdout}");
    assert!(stdout.contains("staffInfo/patient"), "{stdout}");
    args.push("--deny-warnings");
    let (stdout, _, code) = run_code(&args);
    assert_eq!(code, 1, "SXV202 must fail the build under --deny-warnings: {stdout}");
}

#[test]
fn lint_levels_and_json_output() {
    // --deny escalates a warning code to an error (exit 2); --format
    // json renders machine-readable diagnostics.
    let mut args = vec!["lint"];
    args.extend(DTD_ARGS);
    args.extend([
        "--spec",
        "assets/hospital_nurse.spec",
        "--bind",
        "wardNo=6",
        "--deny",
        "SXV107",
        "--allow",
        "SXV005",
        "--format",
        "json",
    ]);
    let (stdout, _, code) = run_code(&args);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("\"code\":\"SXV107\""), "{stdout}");
    assert!(stdout.contains("\"severity\":\"error\""), "{stdout}");
    assert!(!stdout.contains("SXV005"), "allowed code must be dropped: {stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");

    // Unknown codes are rejected as usage errors (generic exit 1).
    let mut bad = vec!["lint"];
    bad.extend(LEAKY_ARGS);
    bad.extend(["--allow", "SXV999"]);
    let (_, stderr, code) = run_code(&bad);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("SXV999"), "{stderr}");
}
