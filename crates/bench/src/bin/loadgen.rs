//! Load generator for the `sxv serve` daemon: boots the server
//! in-process, replays an open-loop, zipf-weighted mix of the Table 1
//! queries across two Adex roles and several documents, and writes a
//! `BENCH_serve.json` artifact with per-tenant latency percentiles and
//! the server's own `/stats` snapshot.
//!
//! ```text
//! cargo run -p sxv-bench --bin loadgen --release [-- --smoke]
//!     [--rate N] [--requests N] [--clients N] [--workers N]
//!     [--branch N] [--seed N] [--json FILE] [--package]
//! ```
//!
//! Open loop: request *i* is scheduled at `start + i/rate` regardless of
//! how previous requests fared, and latency is measured from the
//! scheduled arrival — so server-side queueing under overload shows up
//! in the percentiles instead of being hidden by client backpressure.
//! Before any timing, every `(role, query, doc)` combination is checked
//! byte-for-byte against a direct in-process engine.
//!
//! Boot-to-ready is always measured both ways — XML files parsed at
//! boot vs `.sxvpkg` packages loaded at boot (per-tenant artifacts
//! preloaded) — and recorded under `"boot"` in `BENCH_serve.json`.
//! `--package` additionally makes the daemon under load the packaged
//! one, so the latency percentiles come from package-served tenants.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sxv_bench::{
    adex_dtd, adex_restricted_spec, adex_spec, json_escape, ADEX_DTD, ADEX_RESTRICTED_SPEC,
    ADEX_SECTION6_SPEC, TABLE1_QUERIES,
};
use sxv_core::{answer_line, build_access_view, derive_view, Approach, PlanPolicy, SecureEngine};
use sxv_gen::{GenConfig, Generator};
use sxv_pack::{load_package_file, write_package_file, RoleArtifacts};
use sxv_serve::http::Client;
use sxv_serve::{parse_answers, query_body, run, ServeConfig};
use sxv_xml::{parse as parse_xml, DocIndex, Document};
use sxv_xpath::parse as parse_xpath;

struct Args {
    smoke: bool,
    rate: f64,
    requests: usize,
    clients: usize,
    workers: usize,
    branch: usize,
    seed: u64,
    json_path: String,
    package: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).cloned();
    let num = |flag: &str, default: f64| -> f64 {
        get(flag).map(|v| v.parse().unwrap_or_else(|e| panic!("{flag}: {e}"))).unwrap_or(default)
    };
    Args {
        smoke,
        rate: num("--rate", if smoke { 400.0 } else { 1500.0 }),
        requests: num("--requests", if smoke { 400.0 } else { 6000.0 }) as usize,
        clients: num("--clients", 8.0) as usize,
        workers: num("--workers", 4.0) as usize,
        branch: num("--branch", if smoke { 8.0 } else { 24.0 }) as usize,
        seed: num("--seed", 0xADE5 as f64) as u64,
        json_path: get("--json").unwrap_or_else(|| "BENCH_serve.json".to_string()),
        package: argv.iter().any(|a| a == "--package"),
    }
}

/// What the one-shot engine answers, formatted exactly like `sxv query`
/// stdout (and therefore exactly like the daemon's `answers` array).
fn direct_answers(engine: &SecureEngine<'_>, doc: &Document, query: &str) -> Vec<String> {
    let q = parse_xpath(query).expect("bench queries parse");
    let (nodes, _) = engine
        .answer_report_policy(doc, None, &q, Approach::Optimize, PlanPolicy::ForceWalk)
        .expect("bench queries answer");
    nodes.into_iter().map(|node| answer_line(doc, node)).collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// One finished request, recorded by a client thread.
struct Sample {
    tenant: usize, // role_idx * docs + doc_idx
    status: u16,
    latency_us: u64,
}

/// Boot a daemon and wait for its ready signal, returning the bound
/// address, the server thread, and boot-to-ready wall time in µs.
fn boot_daemon(config: ServeConfig) -> (String, std::thread::JoinHandle<Result<(), String>>, u128) {
    let started = Instant::now();
    let (ready_tx, ready_rx) = mpsc::channel();
    let server = std::thread::spawn(move || run(config, ready_tx));
    let addr = ready_rx.recv_timeout(Duration::from_secs(60)).expect("server boots").to_string();
    (addr, server, started.elapsed().as_micros())
}

fn shutdown_daemon(addr: &str, server: std::thread::JoinHandle<Result<(), String>>) {
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
    let _ = client.post("/shutdown", "").expect("shutdown");
    server.join().expect("server thread").expect("clean shutdown");
}

/// Tenant state from `.sxvpkg` files: documents, their shipped indexes,
/// and `(role, doc, artifact)` access views ready to preload.
type PackagedTenants = (
    Vec<(String, Document)>,
    Vec<(String, sxv_xml::DocIndex)>,
    Vec<(String, String, std::sync::Arc<sxv_xpath::AccessView>)>,
);

fn load_packaged_tenants(pkg_paths: &[(String, std::path::PathBuf)]) -> PackagedTenants {
    let mut docs = Vec::new();
    let mut indexes = Vec::new();
    let mut views = Vec::new();
    for (name, path) in pkg_paths {
        let pkg = load_package_file(path).expect("package loads");
        for role in &pkg.roles {
            views.push((role.name.clone(), name.clone(), role.access.clone()));
        }
        indexes.push((name.clone(), pkg.index));
        docs.push((name.clone(), pkg.doc));
    }
    (docs, indexes, views)
}

fn main() {
    let args = parse_args();
    let dtd = adex_dtd();
    let role_names = ["analyst", "advertiser"];
    let specs = vec![
        ("analyst".to_string(), adex_spec(&dtd)),
        ("advertiser".to_string(), adex_restricted_spec(&dtd)),
    ];

    // Two documents (different seeds) so the daemon serves 4 tenants.
    let gen_doc = |seed: u64| {
        let config = GenConfig::seeded(seed)
            .with_max_branch(args.branch)
            .with_min_branch(args.branch / 2)
            .with_max_depth(64);
        Generator::for_dtd(&dtd, config).generate().expect("Adex DTD is consistent")
    };
    let doc_names = ["adex1", "adex2"];
    let docs = vec![
        ("adex1".to_string(), gen_doc(args.seed)),
        ("adex2".to_string(), gen_doc(args.seed + 1)),
    ];
    let n_docs = docs.len();
    for (name, doc) in &docs {
        println!("{name}: {} nodes (branch {})", doc.len(), args.branch);
    }

    // Derive each role's view once (packaging + correctness gate).
    let views: Vec<_> =
        specs.iter().map(|(_, s)| derive_view(s).expect("derivation succeeds")).collect();

    // --- boot-to-ready: parse path vs package path ---------------------
    // Stage both on-disk tenant forms: the XML files `sxv serve --doc`
    // boots from (stream-generated: same seed ⇒ byte-identical document)
    // and one `.sxvpkg` per document carrying both roles' artifacts.
    let stage = std::env::temp_dir().join("sxv_loadgen");
    std::fs::create_dir_all(&stage).expect("stage dir");
    let spec_texts = [ADEX_SECTION6_SPEC, ADEX_RESTRICTED_SPEC];
    let mut xml_paths: Vec<(String, std::path::PathBuf)> = Vec::new();
    let mut pkg_paths: Vec<(String, std::path::PathBuf)> = Vec::new();
    let mut pack_us = 0u128;
    for (i, (name, doc)) in docs.iter().enumerate() {
        let xml_path = stage.join(format!("{name}.xml"));
        {
            let mut w =
                std::io::BufWriter::new(std::fs::File::create(&xml_path).expect("xml file"));
            let cfg = GenConfig::seeded(args.seed + i as u64)
                .with_max_branch(args.branch)
                .with_min_branch(args.branch / 2)
                .with_max_depth(64);
            Generator::for_dtd(&dtd, cfg)
                .generate_to(&mut w)
                .expect("stream generation")
                .expect("Adex DTD is consistent");
            use std::io::Write as _;
            w.flush().expect("flush xml");
        }
        let pkg_path = stage.join(format!("{name}.sxvpkg"));
        let packed = Instant::now();
        let index = DocIndex::new(doc).expect("non-empty document");
        let accesses: Vec<_> = specs
            .iter()
            .zip(&views)
            .map(|((_, spec), view)| build_access_view(spec, view, doc, Some(&index)))
            .collect();
        let role_artifacts: Vec<RoleArtifacts<'_>> = specs
            .iter()
            .zip(&spec_texts)
            .zip(&accesses)
            .map(|(((role, _), text), access)| RoleArtifacts {
                name: role,
                spec_text: text,
                binds: &[],
                access,
            })
            .collect();
        write_package_file(&pkg_path, ADEX_DTD, "adex", doc, &index, &role_artifacts)
            .expect("package writes");
        pack_us += packed.elapsed().as_micros();
        xml_paths.push((name.clone(), xml_path));
        pkg_paths.push((name.clone(), pkg_path));
    }

    let serving_knobs = |mut config: ServeConfig| {
        config.workers = args.workers;
        config.queue_capacity = 256;
        config.timeout_ms = 5_000;
        config.stats_interval_secs = 0;
        config
    };

    // Parse path: read + parse every tenant XML inside the timed boot.
    let parse_boot_us = {
        let started = Instant::now();
        let parsed: Vec<(String, Document)> = xml_paths
            .iter()
            .map(|(name, p)| {
                let xml = std::fs::read_to_string(p).expect("read xml");
                (name.clone(), parse_xml(&xml).expect("xml parses"))
            })
            .collect();
        let (addr, server, _) = boot_daemon(serving_knobs(ServeConfig::new(specs.clone(), parsed)));
        let us = started.elapsed().as_micros();
        shutdown_daemon(&addr, server);
        us
    };

    // Package path: load every `.sxvpkg` inside the timed boot; indexes
    // attach and access artifacts preload, so tenants are query-ready.
    let package_boot_us = {
        let started = Instant::now();
        let (pdocs, pidx, pviews) = load_packaged_tenants(&pkg_paths);
        let mut config = serving_knobs(ServeConfig::new(specs.clone(), pdocs));
        config.indexes = pidx;
        config.preloaded_views = pviews;
        let (addr, server, _) = boot_daemon(config);
        let us = started.elapsed().as_micros();
        shutdown_daemon(&addr, server);
        us
    };
    println!(
        "boot-to-ready: parse {:.1}ms, package {:.1}ms ({:.1}x); one-time pack {:.1}ms",
        parse_boot_us as f64 / 1e3,
        package_boot_us as f64 / 1e3,
        parse_boot_us as f64 / package_boot_us.max(1) as f64,
        pack_us as f64 / 1e3,
    );

    // Boot the daemon under load: packaged tenants with --package,
    // in-memory documents otherwise.
    let mut config = serving_knobs(ServeConfig::new(
        specs.clone(),
        docs.iter().map(|(n, d)| (n.clone(), d.clone())).collect(),
    ));
    if args.package {
        let (pdocs, pidx, pviews) = load_packaged_tenants(&pkg_paths);
        config.docs = pdocs;
        config.indexes = pidx;
        config.preloaded_views = pviews;
    }
    let (addr, server, _) = boot_daemon(config);
    println!(
        "daemon up at {addr} ({} workers{})",
        args.workers,
        if args.package { ", packaged tenants" } else { "" },
    );

    // Correctness gate before any timing: every (role, query, doc) must
    // answer byte-identically over HTTP and in-process.
    let engines: Vec<_> =
        specs.iter().zip(&views).map(|((_, s), v)| SecureEngine::new(s, v)).collect();
    let mut checked = 0;
    {
        let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
        for (role_idx, role) in role_names.iter().enumerate() {
            for (doc_name, doc) in &docs {
                for &(_, query) in &TABLE1_QUERIES {
                    let (status, body) =
                        client.post("/query", &query_body(role, doc_name, query)).expect("query");
                    assert_eq!(status, 200, "{body}");
                    let got = parse_answers(&body).expect("answers");
                    let want = direct_answers(&engines[role_idx], doc, query);
                    assert_eq!(got, want, "{role}/{doc_name} {query}: HTTP answers diverge");
                    checked += 1;
                }
            }
        }
    }
    println!("correctness gate: {checked} (role, doc, query) combinations byte-identical");

    // Zipf-weighted item mix over (role × query); documents alternate.
    // Weight 1/(rank+1) — Q1 for the analyst dominates, tail queries
    // still appear, as in skewed production mixes.
    let items: Vec<(usize, &str)> = role_names
        .iter()
        .enumerate()
        .flat_map(|(role_idx, _)| TABLE1_QUERIES.iter().map(move |&(_, query)| (role_idx, query)))
        .collect();
    let weights: Vec<f64> = (0..items.len()).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total_weight;
            Some(*acc)
        })
        .collect();

    // Pre-draw the request schedule so client threads do no RNG work.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let schedule: Vec<(usize, usize, f64)> = (0..args.requests)
        .map(|i| {
            let u: f64 = rng.gen_range(0..1_000_000u64) as f64 / 1e6;
            let item = cdf.iter().position(|&c| u < c).unwrap_or(items.len() - 1);
            let doc_idx = rng.gen_range(0..n_docs);
            (item, doc_idx, i as f64 / args.rate)
        })
        .collect();

    // Open-loop replay: `clients` persistent connections, request i
    // handled by connection i % clients at its scheduled time.
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let schedule = &schedule;
                let items = &items;
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::connect(&addr, Duration::from_secs(30)).expect("connect");
                    let mut out = Vec::new();
                    for (i, &(item, doc_idx, at)) in schedule.iter().enumerate() {
                        if i % args.clients != c {
                            continue;
                        }
                        let scheduled = started + Duration::from_secs_f64(at);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let (role_idx, query) = items[item];
                        let body = query_body(role_names[role_idx], doc_names[doc_idx], query);
                        let sent = Instant::now().max(scheduled);
                        let (status, _) = client.post("/query", &body).expect("request");
                        let latency_us =
                            u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                        out.push(Sample {
                            tenant: role_idx * n_docs + doc_idx,
                            status,
                            latency_us,
                        });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed();

    // Server-side stats snapshot, then shut down.
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    let (_, server_stats) = client.get("/stats").expect("stats");
    let (_, _) = client.post("/shutdown", "").expect("shutdown");
    server.join().expect("server thread").expect("clean shutdown");

    // Per-tenant aggregation.
    let mut by_tenant: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for s in &samples {
        by_tenant.entry(s.tenant).or_default().push(s);
    }
    let achieved_rate = samples.len() as f64 / wall.as_secs_f64();
    println!();
    println!(
        "{} requests in {:.2}s (target {:.0}/s, achieved {:.0}/s)",
        samples.len(),
        wall.as_secs_f64(),
        args.rate,
        achieved_rate,
    );
    println!(
        "{:<12} {:<7} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9}",
        "role", "doc", "sent", "ok", "503", "504", "p50(us)", "p95(us)", "p99(us)"
    );
    let mut tenant_rows: Vec<String> = Vec::new();
    for (&tenant, group) in &by_tenant {
        let role = role_names[tenant / n_docs];
        let doc = doc_names[tenant % n_docs];
        let ok = group.iter().filter(|s| s.status == 200).count();
        let rejected = group.iter().filter(|s| s.status == 503).count();
        let timed_out = group.iter().filter(|s| s.status == 504).count();
        let mut lats: Vec<u64> =
            group.iter().filter(|s| s.status == 200).map(|s| s.latency_us).collect();
        lats.sort_unstable();
        let (p50, p95, p99) =
            (percentile(&lats, 0.50), percentile(&lats, 0.95), percentile(&lats, 0.99));
        println!(
            "{role:<12} {doc:<7} {:>6} {ok:>6} {rejected:>5} {timed_out:>5} \
             {p50:>9} {p95:>9} {p99:>9}",
            group.len(),
        );
        tenant_rows.push(format!(
            "{{\"role\": \"{}\", \"doc\": \"{}\", \"sent\": {}, \"ok\": {ok}, \
             \"rejected\": {rejected}, \"timed_out\": {timed_out}, \
             \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}",
            json_escape(role),
            json_escape(doc),
            group.len(),
        ));
    }
    let mut all: Vec<u64> =
        samples.iter().filter(|s| s.status == 200).map(|s| s.latency_us).collect();
    all.sort_unstable();
    let ok_total = all.len();

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"serve\",");
    let _ = writeln!(out, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(
        out,
        "  \"config\": {{\"rate\": {:.0}, \"requests\": {}, \"clients\": {}, \
         \"workers\": {}, \"branch\": {}, \"roles\": {}, \"docs\": {}, \"package\": {}}},",
        args.rate,
        args.requests,
        args.clients,
        args.workers,
        args.branch,
        role_names.len(),
        n_docs,
        args.package,
    );
    let _ = writeln!(out, "  \"correctness\": {{\"checked\": {checked}, \"mismatches\": 0}},");
    let _ = writeln!(
        out,
        "  \"boot\": {{\"parse_boot_us\": {parse_boot_us}, \
         \"package_boot_us\": {package_boot_us}, \"pack_us\": {pack_us}, \
         \"speedup\": {:.2}, \"tenants_under_load\": \"{}\"}},",
        parse_boot_us as f64 / package_boot_us.max(1) as f64,
        if args.package { "package" } else { "memory" },
    );
    let _ = writeln!(
        out,
        "  \"overall\": {{\"sent\": {}, \"ok\": {ok_total}, \"wall_secs\": {:.3}, \
         \"achieved_rate\": {achieved_rate:.1}, \"p50_us\": {}, \"p95_us\": {}, \
         \"p99_us\": {}}},",
        samples.len(),
        wall.as_secs_f64(),
        percentile(&all, 0.50),
        percentile(&all, 0.95),
        percentile(&all, 0.99),
    );
    let _ = writeln!(out, "  \"tenants\": [");
    for (i, row) in tenant_rows.iter().enumerate() {
        let comma = if i + 1 < tenant_rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"server_stats\": {server_stats}");
    let _ = writeln!(out, "}}");
    std::fs::write(&args.json_path, out).expect("write JSON artifact");
    println!();
    println!("wrote {}", args.json_path);
}
