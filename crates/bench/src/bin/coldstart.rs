//! Cold-start bench: time-to-first-answer and peak RSS, parse-path vs
//! package-path, across the Adex datasets D1–D7.
//!
//! ```text
//! cargo run -p sxv-bench --bin coldstart --release [-- --smoke]
//!     [--trials N] [--json FILE] [--dir DIR] [--keep] [--only D4,D5]
//! ```
//!
//! Each dataset is stream-generated to disk (never materialized in this
//! process), packed once into a `.sxvpkg`, then measured in fresh probe
//! subprocesses (`coldstart --probe …` re-execs this binary) so every
//! trial starts from a genuinely cold process and `/proc/self/status
//! VmHWM` reports that trial's own peak RSS:
//!
//! * **parse path** — read the XML, parse, build the [`DocIndex`], parse
//!   DTD + spec, derive the view, answer Q1: what every process start
//!   pays without a package;
//! * **package path** — load the `.sxvpkg` (document + index + access
//!   artifacts, bulk word decode), parse DTD + spec from the packaged
//!   text, answer Q1.
//!
//! Both paths must produce byte-identical answers (checked via an FNV
//! hash of the formatted answer lines — the same text `sxv query`
//! prints); any divergence aborts the bench. Results land in
//! `BENCH_coldstart.json`.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use sxv_bench::{json_escape, AdexWorkload, ADEX_SECTION6_SPEC, DATASETS, DATASETS_XL};
use sxv_core::{
    answer_line, build_access_view, derive_view, AccessSpec, Approach, PlanPolicy, SecureEngine,
};
use sxv_dtd::parse_dtd;
use sxv_pack::{load_package_file, write_package_file, RoleArtifacts};
use sxv_xml::{parse as parse_xml, DocIndex, Document};
use sxv_xpath::parse as parse_xpath;

/// First query of Table 1 — the "first answer" both probes must reach.
const QUERY: &str = "//buyer-info/contact-info";
const ROLE: &str = "analyst";

struct Args {
    smoke: bool,
    trials: usize,
    json_path: String,
    dir: PathBuf,
    keep: bool,
    only: Option<Vec<String>>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).cloned();
    let smoke = argv.iter().any(|a| a == "--smoke");
    Args {
        smoke,
        trials: get("--trials").map(|v| v.parse().expect("--trials")).unwrap_or(if smoke {
            1
        } else {
            2
        }),
        json_path: get("--json").unwrap_or_else(|| "BENCH_coldstart.json".to_string()),
        dir: get("--dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("sxv_coldstart")),
        keep: argv.iter().any(|a| a == "--keep"),
        only: get("--only").map(|v| v.split(',').map(str::to_string).collect()),
    }
}

/// Peak resident set size of this process so far, in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// FNV-1a over the answer lines — the byte-identity fingerprint.
fn answers_hash(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &b in line.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ b'\n' as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Answer Q1 via [`Approach::Annotate`] — the approach that consumes the
/// materialized accessibility artifact (§3.3). That is the structure the
/// package persists, so the parse path pays the access-view build it
/// would pay in production and the package path exercises its preloaded
/// copy; `Optimize` would let the parse path skip materialization
/// entirely and compare the wrong things.
fn answer_q1(engine: &SecureEngine<'_>, doc: &Document, index: &DocIndex) -> Vec<String> {
    let q = parse_xpath(QUERY).expect("Q1 parses");
    let (nodes, _) = engine
        .answer_report_policy(doc, Some(index), &q, Approach::Annotate, PlanPolicy::Auto)
        .expect("Q1 answers");
    nodes.into_iter().map(|node| answer_line(doc, node)).collect()
}

/// `--probe pack --xml F --out P`: parse + index + access view + write
/// the package. Reports the one-time packing cost.
fn probe_pack(xml_path: &Path, out_path: &Path) {
    let started = Instant::now();
    let xml = std::fs::read_to_string(xml_path).expect("read xml");
    let doc = parse_xml(&xml).expect("xml parses");
    drop(xml);
    let index = DocIndex::new(&doc).expect("non-empty document");
    let dtd = parse_dtd(sxv_bench::ADEX_DTD, "adex").expect("dtd parses");
    let spec = AccessSpec::parse(&dtd, ADEX_SECTION6_SPEC, &[]).expect("spec parses");
    let view = derive_view(&spec).expect("derives");
    let access = build_access_view(&spec, &view, &doc, Some(&index));
    let roles =
        [RoleArtifacts { name: ROLE, spec_text: ADEX_SECTION6_SPEC, binds: &[], access: &access }];
    write_package_file(out_path, sxv_bench::ADEX_DTD, "adex", &doc, &index, &roles)
        .expect("package writes");
    let elapsed_us = started.elapsed().as_micros();
    let bytes = std::fs::metadata(out_path).expect("package exists").len();
    println!(
        "PROBE {{\"elapsed_us\": {elapsed_us}, \"peak_rss_kb\": {}, \"nodes\": {}, \
         \"pkg_bytes\": {bytes}}}",
        peak_rss_kb(),
        doc.len(),
    );
}

/// `--probe parse --xml F`: the no-package cold start.
fn probe_parse(xml_path: &Path) {
    let started = Instant::now();
    let xml = std::fs::read_to_string(xml_path).expect("read xml");
    let doc = parse_xml(&xml).expect("xml parses");
    drop(xml);
    let index = DocIndex::new(&doc).expect("non-empty document");
    let setup_us = started.elapsed().as_micros();
    let dtd = parse_dtd(sxv_bench::ADEX_DTD, "adex").expect("dtd parses");
    let spec = AccessSpec::parse(&dtd, ADEX_SECTION6_SPEC, &[]).expect("spec parses");
    let view = derive_view(&spec).expect("derives");
    let engine = SecureEngine::new(&spec, &view);
    let answers = answer_q1(&engine, &doc, &index);
    let first_answer_us = started.elapsed().as_micros();
    println!(
        "PROBE {{\"first_answer_us\": {first_answer_us}, \"setup_us\": {setup_us}, \
         \"peak_rss_kb\": {}, \"answers\": {}, \"hash\": {}}}",
        peak_rss_kb(),
        answers.len(),
        answers_hash(&answers),
    );
}

/// `--probe package --pkg P`: the packaged cold start.
fn probe_package(pkg_path: &Path) {
    let started = Instant::now();
    let pkg = load_package_file(pkg_path).expect("package loads");
    let load_us = started.elapsed().as_micros();
    let dtd = parse_dtd(&pkg.dtd_text, &pkg.root_name).expect("packaged dtd parses");
    let role = &pkg.roles[0];
    let binds: Vec<(&str, &str)> =
        role.binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let spec = AccessSpec::parse(&dtd, &role.spec_text, &binds).expect("packaged spec parses");
    let view = derive_view(&spec).expect("derives");
    let engine = SecureEngine::new(&spec, &view);
    engine.preload_access_view(pkg.doc.doc_id(), role.access.clone());
    let answers = answer_q1(&engine, &pkg.doc, &pkg.index);
    let first_answer_us = started.elapsed().as_micros();
    println!(
        "PROBE {{\"first_answer_us\": {first_answer_us}, \"load_us\": {load_us}, \
         \"peak_rss_kb\": {}, \"answers\": {}, \"hash\": {}}}",
        peak_rss_kb(),
        answers.len(),
        answers_hash(&answers),
    );
}

/// Extract `"key": <u128>` from a probe line (no JSON parser in-tree).
fn field(line: &str, key: &str) -> u128 {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat).unwrap_or_else(|| panic!("probe line lacks {key}: {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("probe field {key}: {e}"))
}

/// Re-exec this binary in probe mode and return its PROBE line.
fn run_probe(args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(&exe).args(args).output().expect("probe spawns");
    assert!(
        out.status.success(),
        "probe {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("probe stdout is UTF-8")
        .lines()
        .find(|l| l.starts_with("PROBE "))
        .unwrap_or_else(|| panic!("probe {args:?} printed no PROBE line"))
        .to_string()
}

struct PathStats {
    first_answer_us: u128,
    phase_us: u128, // setup_us (parse) / load_us (package)
    peak_rss_kb: u64,
    answers: u64,
    hash: u64,
}

/// Run one probe `trials` times; keep the fastest first-answer trial.
fn measure(args: &[&str], phase_key: &str, trials: usize) -> PathStats {
    let mut best: Option<PathStats> = None;
    for _ in 0..trials {
        let line = run_probe(args);
        let s = PathStats {
            first_answer_us: field(&line, "first_answer_us"),
            phase_us: field(&line, phase_key),
            peak_rss_kb: field(&line, "peak_rss_kb") as u64,
            answers: field(&line, "answers") as u64,
            hash: field(&line, "hash") as u64,
        };
        if let Some(b) = &best {
            assert_eq!(b.hash, s.hash, "answers diverge across trials");
        }
        if best.as_ref().is_none_or(|b| s.first_answer_us < b.first_answer_us) {
            best = Some(s);
        }
    }
    best.expect("trials >= 1")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--probe") {
        let mode = argv.get(i + 1).expect("--probe MODE").as_str();
        let get =
            |flag: &str| argv.iter().position(|a| a == flag).and_then(|j| argv.get(j + 1)).cloned();
        match mode {
            "pack" => probe_pack(
                Path::new(&get("--xml").expect("--xml")),
                Path::new(&get("--out").expect("--out")),
            ),
            "parse" => probe_parse(Path::new(&get("--xml").expect("--xml"))),
            "package" => probe_package(Path::new(&get("--pkg").expect("--pkg"))),
            other => panic!("unknown probe mode {other}"),
        }
        return;
    }

    let args = parse_args();
    let mut datasets: Vec<(&str, usize)> = if args.smoke {
        DATASETS[..2].to_vec()
    } else {
        DATASETS.iter().chain(DATASETS_XL.iter()).copied().collect()
    };
    if let Some(only) = &args.only {
        datasets.retain(|(name, _)| only.iter().any(|o| o == name));
        assert!(!datasets.is_empty(), "--only matched no dataset");
    }
    std::fs::create_dir_all(&args.dir).expect("bench dir");
    let workload = AdexWorkload::new();

    println!(
        "{:<4} {:>10} {:>9} {:>10} {:>12} {:>12} {:>8} {:>11} {:>11}",
        "set",
        "nodes",
        "xml_mb",
        "pkg_mb",
        "parse_ms",
        "package_ms",
        "speedup",
        "parse_rss",
        "pkg_rss"
    );
    let mut rows: Vec<String> = Vec::new();
    for &(name, branch) in &datasets {
        let xml_path = args.dir.join(format!("adex_{name}.xml"));
        let pkg_path = args.dir.join(format!("adex_{name}.sxvpkg"));

        // Stream-generate to disk; this process never holds the document.
        let gen_started = Instant::now();
        let nodes = {
            let file = std::fs::File::create(&xml_path).expect("create xml");
            let mut w = BufWriter::new(file);
            let n = workload.dataset_to(branch, 7, &mut w).expect("generation succeeds");
            w.flush().expect("flush xml");
            n
        };
        let gen_us = gen_started.elapsed().as_micros();
        let xml_bytes = std::fs::metadata(&xml_path).expect("xml exists").len();

        let xml_s = xml_path.to_str().expect("utf-8 path");
        let pkg_s = pkg_path.to_str().expect("utf-8 path");
        let pack_line = run_probe(&["--probe", "pack", "--xml", xml_s, "--out", pkg_s]);
        let pack_us = field(&pack_line, "elapsed_us");
        let pack_rss_kb = field(&pack_line, "peak_rss_kb") as u64;
        let pkg_bytes = field(&pack_line, "pkg_bytes") as u64;
        assert_eq!(field(&pack_line, "nodes") as u64, nodes, "{name}: packed node count");

        let parse = measure(&["--probe", "parse", "--xml", xml_s], "setup_us", args.trials);
        let pkg = measure(&["--probe", "package", "--pkg", pkg_s], "load_us", args.trials);
        assert_eq!(
            parse.hash, pkg.hash,
            "{name}: parse-path and package-path answers diverge ({} vs {} answers)",
            parse.answers, pkg.answers,
        );

        let speedup = parse.first_answer_us as f64 / pkg.first_answer_us.max(1) as f64;
        println!(
            "{name:<4} {nodes:>10} {:>9.1} {:>10.1} {:>12.1} {:>12.1} {speedup:>7.1}x {:>10}k {:>10}k",
            xml_bytes as f64 / 1e6,
            pkg_bytes as f64 / 1e6,
            parse.first_answer_us as f64 / 1e3,
            pkg.first_answer_us as f64 / 1e3,
            parse.peak_rss_kb,
            pkg.peak_rss_kb,
        );
        rows.push(format!(
            "{{\"dataset\": \"{}\", \"branch\": {branch}, \"nodes\": {nodes}, \
             \"xml_bytes\": {xml_bytes}, \"pkg_bytes\": {pkg_bytes}, \"gen_us\": {gen_us}, \
             \"pack_us\": {pack_us}, \"pack_peak_rss_kb\": {pack_rss_kb}, \
             \"parse\": {{\"first_answer_us\": {}, \"setup_us\": {}, \"peak_rss_kb\": {}}}, \
             \"package\": {{\"first_answer_us\": {}, \"load_us\": {}, \"peak_rss_kb\": {}}}, \
             \"speedup\": {speedup:.2}, \"answers\": {}, \"byte_identical\": true}}",
            json_escape(name),
            parse.first_answer_us,
            parse.phase_us,
            parse.peak_rss_kb,
            pkg.first_answer_us,
            pkg.phase_us,
            pkg.peak_rss_kb,
            parse.answers,
        ));

        if !args.keep {
            let _ = std::fs::remove_file(&xml_path);
            let _ = std::fs::remove_file(&pkg_path);
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"coldstart\",");
    let _ = writeln!(out, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(out, "  \"query\": \"{}\",", json_escape(QUERY));
    let _ = writeln!(out, "  \"role\": \"{}\",", json_escape(ROLE));
    let _ = writeln!(out, "  \"trials\": {},", args.trials);
    let _ = writeln!(out, "  \"datasets\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(&args.json_path, out).expect("write JSON artifact");
    println!();
    println!("wrote {}", args.json_path);
}
