//! `serve-zipf`: a closed loop of one HTTP connection against
//! `sxv_serve::run`, booted in-process from `.sxvpkg` packages of two
//! D1-size Adex documents under two roles (4 tenants). Every plan is
//! cached after warm-up and answers take microseconds, so this workload
//! measures the daemon's wire, JSON, queue handoff and answer formatting.

use std::path::{Path as FsPath, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sxv_bench::{
    adex_dtd, adex_restricted_spec, adex_spec, ADEX_DTD, ADEX_RESTRICTED_SPEC, ADEX_SECTION6_SPEC,
    TABLE1_QUERIES,
};
use sxv_core::{
    build_access_view, derive_view, AccessCacheStats, AccessSpec, CacheStats, PlanPolicy,
    SecureEngine,
};
use sxv_dtd::parse_dtd;
use sxv_gen::Generator;
use sxv_pack::{load_package_file, write_package_file, Package, RoleArtifacts};
use sxv_serve::http::Client;
use sxv_serve::json::Json;
use sxv_serve::{parse_answers, run as serve, ServeConfig};
use sxv_xml::{json_escape, DocIndex};
use sxv_xpath::{parse as parse_xpath, AccessView, EvalStats, Path};

use crate::harness::{self, Latencies, Outcome, Rng, Summary};
use crate::metrics::CacheDelta;
use crate::trace::Tracer;
use crate::workload::{adex_config, answer_line, answers_json, same_nodes, Oracle, APPROACHES};
use crate::{Ctx, Report};

/// Adex branching of the served documents (D1 size, ~18k nodes), fixed
/// so every seed gets about the same size.
const BRANCH: (usize, usize) = (18, 18);
const ROLES: [&str; 2] = ["analyst", "advertiser"];
const DOCS: [&str; 2] = ["adex1", "adex2"];
/// Boots of a traced run, for the per-layer boot and load medians.
const SETUPS: usize = 40;
/// Boots an untraced run adds after every timed round, each stopped
/// again; `setup_s` is the median of its boots.
const SETUPS_BETWEEN_ROUNDS: usize = 3;
/// Requests of the replayed sequence, about a second a round on a 2-core
/// x86-64 VM: short rounds give each position more tries.
const SEQUENCE: usize = 20_000;
/// Requests of the traced pass (a fixed count, so work counters repeat
/// exactly for a seed).
const TRACED_REQUESTS: usize = 20_000;
const TIMEOUT: Duration = Duration::from_secs(30);

/// One request kind: role × Table 1 query × approach.
#[derive(Clone, Copy)]
struct Item {
    role: usize,
    query: usize,
    approach: usize,
}

/// Rank order of the Zipf mix: the default approach first, then by
/// query, alternating roles — so every role, query and approach appears
/// near the head.
fn items() -> Vec<Item> {
    let mut out = Vec::new();
    for approach in 0..APPROACHES.len() {
        for query in 0..TABLE1_QUERIES.len() {
            for role in 0..ROLES.len() {
                out.push(Item { role, query, approach });
            }
        }
    }
    out
}

fn body(item: Item, doc: usize) -> String {
    format!(
        "{{\"role\": \"{}\", \"doc\": \"{}\", \"query\": \"{}\", \"approach\": \"{}\"}}",
        ROLES[item.role],
        DOCS[doc],
        json_escape(TABLE1_QUERIES[item.query].1),
        APPROACHES[item.approach].0,
    )
}

/// The integer after `"key": ` in a reply body.
fn field(body: &str, key: &str) -> Option<u64> {
    let at = body.find(key)? + key.len();
    let digits: String = body[at..]
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Where packages are staged: inside the build directory, which the
/// checkout owns.
fn stage_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    PathBuf::from(base).join(format!("stage-{}", std::process::id()))
}

/// Removes the staged packages however the run ends.
struct Stage(PathBuf);

impl Drop for Stage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate the two documents from the seed and pack each with both
/// roles' artifacts. Returns (package paths, node counts).
fn write_packages(seed: u64, dir: &FsPath) -> Result<(Vec<PathBuf>, Vec<usize>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("stage dir {}: {e}", dir.display()))?;
    let dtd = adex_dtd();
    let specs = [adex_spec(&dtd), adex_restricted_spec(&dtd)];
    let texts = [ADEX_SECTION6_SPEC, ADEX_RESTRICTED_SPEC];
    let views: Vec<_> = specs.iter().map(|s| derive_view(s).expect("Adex view derives")).collect();
    let mut paths = Vec::new();
    let mut sizes = Vec::new();
    for (d, name) in DOCS.iter().enumerate() {
        let doc_seed = Rng::fork(seed, &format!("serve-doc-{d}")).next_u64();
        let config = adex_config(BRANCH, doc_seed);
        let doc = Generator::for_dtd(&dtd, config).generate().expect("Adex DTD is consistent");
        let index = DocIndex::new(&doc).expect("non-empty document");
        let access: Vec<AccessView> = specs
            .iter()
            .zip(&views)
            .map(|(s, v)| build_access_view(s, v, &doc, Some(&index)))
            .collect();
        let roles: Vec<RoleArtifacts<'_>> = (0..ROLES.len())
            .map(|r| RoleArtifacts {
                name: ROLES[r],
                spec_text: texts[r],
                binds: &[],
                access: &access[r],
            })
            .collect();
        let path = dir.join(format!("{name}.sxvpkg"));
        write_package_file(&path, ADEX_DTD, "adex", &doc, &index, &roles)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        paths.push(path);
        sizes.push(doc.len());
    }
    Ok((paths, sizes))
}

/// Load every package: (packages, per-package load µs).
fn load_packages(paths: &[PathBuf], tr: &mut Tracer) -> Result<(Vec<Package>, Vec<f64>), String> {
    let mut pkgs = Vec::new();
    let mut micros = Vec::new();
    for p in paths {
        let t = Instant::now();
        let pkg = tr
            .span("pack.load", 0, |_| load_package_file(p))
            .map_err(|e| format!("load {}: {e}", p.display()))?;
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        pkgs.push(pkg);
    }
    Ok((pkgs, micros))
}

/// Rebuild the roles' specs from the policy text the packages carry.
fn package_specs(pkg: &Package) -> Result<Vec<(String, AccessSpec)>, String> {
    let dtd = parse_dtd(&pkg.dtd_text, &pkg.root_name).map_err(|e| e.to_string())?;
    pkg.roles
        .iter()
        .map(|r| {
            let binds: Vec<(&str, &str)> =
                r.binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            AccessSpec::parse(&dtd, &r.spec_text, &binds)
                .map(|s| (r.name.clone(), s))
                .map_err(|e| format!("role {}: {e}", r.name))
        })
        .collect()
}

struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr, TIMEOUT).map_err(|e| e.to_string())?;
        c.post("/shutdown", "").map_err(|e| e.to_string())?;
        self.thread.join().map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// One full set-up: load the packages, boot the daemon from them and
/// send every distinct request once. Returns the daemon, the boot time
/// (`run` start → ready signal) in ms and the package load times.
fn set_up(
    paths: &[PathBuf],
    bodies: &[Vec<String>],
    tr: &mut Tracer,
) -> Result<(Daemon, f64, Vec<f64>), String> {
    let (pkgs, load_us) = load_packages(paths, tr)?;
    let roles = package_specs(&pkgs[0])?;
    let mut docs = Vec::new();
    let mut indexes = Vec::new();
    let mut views = Vec::new();
    for (name, pkg) in DOCS.iter().zip(pkgs) {
        for r in &pkg.roles {
            views.push((r.name.clone(), name.to_string(), Arc::clone(&r.access)));
        }
        indexes.push((name.to_string(), pkg.index));
        docs.push((name.to_string(), pkg.doc));
    }
    let mut config = ServeConfig::new(roles, docs);
    config.indexes = indexes;
    config.preloaded_views = views;
    config.workers = harness::parallelism();
    config.queue_capacity = 1024;
    config.timeout_ms = 10_000;
    config.stats_interval_secs = 0;
    let booted = Instant::now();
    let (ready_tx, ready_rx) = mpsc::channel();
    let (addr, thread) = tr.span("serve.boot", 0, |_| {
        let thread = std::thread::spawn(move || serve(config, ready_tx));
        (ready_rx.recv_timeout(TIMEOUT), thread)
    });
    let boot_ms = booted.elapsed().as_secs_f64() * 1e3;
    let daemon = match addr {
        Ok(addr) => Daemon { addr: addr.to_string(), thread },
        Err(_) => {
            return Err(match thread.join() {
                Ok(Err(e)) => format!("daemon failed to boot: {e}"),
                _ => "daemon did not signal ready".into(),
            })
        }
    };
    let mut client = Client::connect(&daemon.addr, TIMEOUT).map_err(|e| e.to_string())?;
    for per_doc in bodies {
        for b in per_doc {
            let (status, reply) = client.post("/query", b).map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("warm-up {b} answered {status}: {reply}"));
            }
        }
    }
    Ok((daemon, boot_ms, load_us))
}

/// One request as the client saw it.
struct Sample {
    /// HTTP status; 0 when the connection failed.
    status: u16,
    round_trip_us: f64,
    /// `latency_us` of the reply: admission → reply built.
    server_us: f64,
    bytes: usize,
}

/// The client's one connection; reconnects after a transport error.
struct Conn<'a> {
    addr: &'a str,
    client: Client,
}

impl<'a> Conn<'a> {
    fn open(addr: &'a str) -> Result<Conn<'a>, String> {
        Ok(Conn { addr, client: Client::connect(addr, TIMEOUT).map_err(|e| e.to_string())? })
    }

    /// Post `body` and check the answer count; a wrong count is an `Err`.
    fn send(&mut self, body: &str, expected: u64) -> Result<Sample, String> {
        let sent = Instant::now();
        let reply = self.client.post("/query", body);
        let round_trip_us = sent.elapsed().as_secs_f64() * 1e6;
        let mut s = Sample { status: 0, round_trip_us, server_us: 0.0, bytes: 0 };
        match reply {
            Ok((status, reply)) => {
                s.status = status;
                s.bytes = reply.len();
                if status == 200 {
                    s.server_us = field(&reply, "\"latency_us\"").unwrap_or(0) as f64;
                    let count = field(&reply, "\"count\"");
                    if count != Some(expected) {
                        return Err(format!(
                            "{body} answered {count:?} nodes, expected {expected}"
                        ));
                    }
                }
            }
            Err(_) => {
                self.client = Client::connect(self.addr, TIMEOUT).map_err(|e| e.to_string())?;
            }
        }
        Ok(s)
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(ctx.trace, epoch);
    let workers = harness::parallelism();

    let stage = Stage(stage_dir());
    let (paths, sizes) = write_packages(ctx.seed, &stage.0)?;
    let queries: Vec<Path> =
        TABLE1_QUERIES.iter().map(|(_, q)| parse_xpath(q).expect("Table 1 parses")).collect();
    let items = items();
    let bodies: Vec<Vec<String>> =
        items.iter().map(|&it| (0..DOCS.len()).map(|d| body(it, d)).collect()).collect();

    // --- set-up: the daemon that serves, and more — between the timed
    // rounds, or before the traced pass — for the medians.
    let mut setup_s = Vec::new();
    let mut boot_ms = Vec::new();
    let mut load_us = Vec::new();
    let mut daemon = None;
    for _ in 0..if ctx.trace { SETUPS } else { 1 } {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        let (d, boot, loads) = set_up(&paths, &bodies, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        boot_ms.push(boot);
        load_us.extend(loads);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    // --- correctness gate: oracle vs in-process engine vs HTTP bytes. The
    // in-process twin of the daemon's tenants also serves the traced
    // replay.
    let (pkgs, _) = load_packages(&paths, &mut Tracer::new(false, epoch))?;
    let specs = package_specs(&pkgs[0])?;
    let mut derive_us = Vec::new();
    let views: Vec<_> = specs
        .iter()
        .map(|(_, s)| {
            let t = Instant::now();
            let v = tr.span("core.derive", 0, |_| derive_view(s)).map_err(|e| e.to_string());
            derive_us.push(t.elapsed().as_secs_f64() * 1e6);
            v
        })
        .collect::<Result<_, _>>()?;
    let engines: Vec<SecureEngine<'_>> =
        specs.iter().zip(&views).map(|((_, s), v)| SecureEngine::new(s, v)).collect();
    for pkg in &pkgs {
        for (r, role) in pkg.roles.iter().enumerate() {
            engines[r].preload_access_view(pkg.doc.doc_id(), Arc::clone(&role.access));
        }
    }
    let mut expected = vec![vec![0u64; DOCS.len()]; items.len()];
    let mut conn = Conn::open(&daemon.addr)?;
    // oracles[role][doc][query]: the node set the view semantics defines.
    let mut oracles = Vec::new();
    for ((_, spec), view) in specs.iter().zip(&views) {
        let mut per_doc = Vec::new();
        for pkg in &pkgs {
            let mut oracle = Oracle::new(spec, view);
            let answers: Result<Vec<_>, _> =
                queries.iter().map(|q| oracle.answer(&pkg.doc, q)).collect();
            per_doc.push(answers?);
        }
        oracles.push(per_doc);
    }
    for (k, it) in items.iter().enumerate() {
        for (d, pkg) in pkgs.iter().enumerate() {
            let (nodes, _) = engines[it.role]
                .answer_report_policy(
                    &pkg.doc,
                    Some(&pkg.index),
                    &queries[it.query],
                    APPROACHES[it.approach].1,
                    PlanPolicy::ForceWalk,
                )
                .map_err(|e| format!("{}: {e}", bodies[k][d]))?;
            let want = &oracles[it.role][d][it.query];
            if !same_nodes(&nodes, want) {
                return Err(format!(
                    "{}: engine selects {} nodes, the oracle {}",
                    bodies[k][d],
                    nodes.len(),
                    want.len()
                ));
            }
            let (status, reply) =
                conn.client.post("/query", &bodies[k][d]).map_err(|e| e.to_string())?;
            let got = parse_answers(&reply);
            let lines: Vec<String> = nodes.iter().map(|&n| answer_line(&pkg.doc, n)).collect();
            if status != 200 || got.as_ref() != Ok(&lines) {
                return Err(format!(
                    "{}: HTTP answer ({status}) differs from in-process",
                    bodies[k][d]
                ));
            }
            expected[k][d] = nodes.len() as u64;
        }
    }
    report.note(format!(
        "gate: {} (role, doc, query, approach) answers equal the materialized oracle; HTTP lines byte-identical",
        items.len() * DOCS.len()
    ));
    report.note(format!(
        "loop=closed connections=1 workers={workers} policy=walk docs={sizes:?} nodes tenants={} distinct requests={} (plan cache 64/engine: all cached)",
        ROLES.len() * DOCS.len(),
        items.len() * DOCS.len(),
    ));

    // --- the timed phase: Zipf over request kinds, documents uniform.
    let weights: Vec<f64> = harness::zipf_weights(items.len(), 1.0)
        .into_iter()
        .flat_map(|w| std::iter::repeat_n(w, DOCS.len()))
        .collect();
    let sequence = |len: usize, label: &str| -> Vec<(usize, usize)> {
        harness::exact_mix(&weights, len, &mut Rng::fork(ctx.seed, label))
            .into_iter()
            .map(|k| (k / DOCS.len(), k % DOCS.len()))
            .collect()
    };
    if !ctx.trace {
        let requests = sequence(SEQUENCE, "serve-requests");
        let rounds = harness::replay_rounds(
            ctx.seconds,
            requests.len(),
            |i| {
                let (item, doc) = requests[i];
                let s = conn.send(&bodies[item][doc], expected[item][doc])?;
                Ok(if s.status == 200 { Outcome::Correct } else { Outcome::Failed })
            },
            || {
                for _ in 0..SETUPS_BETWEEN_ROUNDS {
                    let t = Instant::now();
                    let (d, _, _) = set_up(&paths, &bodies, &mut Tracer::new(false, epoch))?;
                    setup_s.push(t.elapsed().as_secs_f64());
                    d.stop()?;
                }
                Ok(())
            },
        )?;
        drop(conn);
        daemon.stop()?;
        report.set_summary(&Summary::new(rounds)?, &setup_s);
        return Ok(report);
    }

    // --- traced: a fixed seeded request sequence over the connection,
    // then an in-process replay of every request (parse → answer →
    // format) to split the server's time.
    let requests = sequence(TRACED_REQUESTS, "serve-trace");
    let stats_before = daemon_stats(&daemon.addr)?;
    let mut samples = Vec::with_capacity(requests.len());
    for (i, &(item, doc)) in requests.iter().enumerate() {
        let s = tr.span("serve.request", i as u64, |_| {
            conn.send(&bodies[item][doc], expected[item][doc])
        })?;
        samples.push(s);
    }
    let stats_after = daemon_stats(&daemon.addr)?;
    drop(conn);
    daemon.stop()?;

    let n = samples.len();
    let ok: Vec<(usize, &Sample)> =
        samples.iter().enumerate().filter(|(_, s)| s.status == 200).collect();
    report.attempted = n as u64;
    report.failed = (n - ok.len()) as u64;
    let server = Latencies::new(ok.iter().map(|(_, s)| s.server_us).collect());
    let wire = Latencies::new(ok.iter().map(|(_, s)| s.round_trip_us - s.server_us).collect());
    report.set("serve.server_p50_us", server.p(50.0));
    report.set("serve.server_p99_us", server.p(99.0));
    report.set("serve.wire_p50_us", wire.p(50.0));
    report.set("serve.wire_p99_us", wire.p(99.0));
    report.set("serve.boot_ms", harness::median(&boot_ms));
    let share = |code: u16| samples.iter().filter(|s| s.status == code).count() as f64 / n as f64;
    report.set("serve.shed_share", share(503));
    report.set("serve.timeout_share", share(504));
    report.set(
        "serve.response_bytes",
        samples.iter().map(|s| s.bytes as f64).sum::<f64>() / n as f64,
    );
    report.set("pack.load_ms", harness::median(&load_us) / 1e3);
    let pkg_bytes: u64 = paths.iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum();
    report.set("pack.bytes_per_node", pkg_bytes as f64 / sizes.iter().sum::<usize>() as f64);
    report.set("core.derive_us", harness::median(&derive_us));
    let mut delta = CacheDelta::default();
    for ((c, a), (c0, a0)) in stats_after.iter().zip(&stats_before) {
        delta.add(c, c0, a, a0);
    }
    report.set_cache_delta(&delta);

    // Replay untraced, then traced: the ratio is the tracing cost. A first
    // pass warms the replica after the HTTP phase.
    let replay = |tr: &mut Tracer,
                  stats: &mut EvalStats,
                  answers: &mut u64|
     -> Result<Vec<f64>, String> {
        let mut replay_us = Vec::with_capacity(requests.len());
        for (i, &(item, d)) in requests.iter().enumerate() {
            let it = items[item];
            let pkg = &pkgs[d];
            let t = Instant::now();
            tr.span("serve.replay", i as u64, |tr| -> Result<(), String> {
                let q = tr
                    .span("xpath.parse", i as u64, |_| parse_xpath(TABLE1_QUERIES[it.query].1))
                    .map_err(|e| e.to_string())?;
                let (nodes, rep) = tr
                    .span("engine.answer", i as u64, |_| {
                        engines[it.role].answer_report_policy(
                            &pkg.doc,
                            Some(&pkg.index),
                            &q,
                            APPROACHES[it.approach].1,
                            PlanPolicy::ForceWalk,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let body = tr.span("xml.format", i as u64, |_| answers_json(&pkg.doc, &nodes));
                std::hint::black_box(body);
                if nodes.len() as u64 != expected[item][d] {
                    return Err(format!("replay of request {i} answered {} nodes", nodes.len()));
                }
                stats.absorb(rep.eval);
                *answers += nodes.len() as u64;
                Ok(())
            })?;
            replay_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(replay_us)
    };
    replay(&mut Tracer::new(false, epoch), &mut EvalStats::default(), &mut 0)?;
    let untraced: f64 =
        replay(&mut Tracer::new(false, epoch), &mut EvalStats::default(), &mut 0)?.iter().sum();
    let mut eval = EvalStats::default();
    let mut answers = 0u64;
    let mut replay_tr = Tracer::new(true, epoch);
    let replay_us = replay(&mut replay_tr, &mut eval, &mut answers)?;
    let traced: f64 = replay_tr.durations("serve.replay", 0).iter().sum();
    report.set("trace.overhead_share", traced / untraced - 1.0);
    let handoff: Vec<f64> = ok.iter().map(|&(i, s)| s.server_us - replay_us[i]).collect();
    report.set("serve.handoff_p50_us", Latencies::new(handoff).p(50.0));
    let answer = Latencies::new(replay_tr.durations("engine.answer", 0));
    report.set("engine.answer_p50_us", answer.p(50.0));
    report.set("engine.answer_p99_us", answer.p(99.0));
    report.set("xpath.parse_us", Latencies::new(replay_tr.durations("xpath.parse", 0)).mean());
    report.set("xml.format_us", Latencies::new(replay_tr.durations("xml.format", 0)).mean());
    report.set_eval_counts(&eval, answers);
    tr.absorb(replay_tr);
    report.set_self_times(&tr);
    Ok(report)
}

/// Each role's plan- and access-cache counters, from `GET /stats`.
fn daemon_stats(addr: &str) -> Result<Vec<(CacheStats, AccessCacheStats)>, String> {
    let mut c = Client::connect(addr, TIMEOUT).map_err(|e| e.to_string())?;
    let (_, body) = c.get("/stats").map_err(|e| e.to_string())?;
    let json = Json::parse(&body)?;
    let Some(Json::Array(roles)) = json.get("roles") else {
        return Err(format!("no roles in /stats: {body}"));
    };
    Ok(roles
        .iter()
        .map(|role| {
            let get = |section: &str, key: &str| {
                role.get(section).and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0)
            };
            let cache = CacheStats {
                hits: get("plan_cache", "hits"),
                misses: get("plan_cache", "misses"),
                entries: get("plan_cache", "entries") as usize,
                plans_compiled: get("plan_cache", "plans_compiled"),
                plans_certified: get("certify", "certified"),
                plans_recompiled: get("plan_cache", "plans_recompiled"),
                certify_failures: get("certify", "failures"),
                certify_micros: get("certify", "micros"),
            };
            let access = AccessCacheStats {
                builds: get("access_cache", "builds"),
                hits: get("access_cache", "hits"),
                entries: get("access_cache", "entries") as usize,
                ..AccessCacheStats::default()
            };
            (cache, access)
        })
        .collect())
}
