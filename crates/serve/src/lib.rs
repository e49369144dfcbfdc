//! `sxv serve` — a persistent multi-tenant secure-query daemon.
//!
//! One process hosts many `(role, document)` tenants over a single warm
//! engine set: every role gets one [`SecureEngine`] (derived view +
//! shared translation-plan and accessibility caches) that survives
//! across requests, so the per-query cost converges to plan-cache-hit +
//! evaluation instead of parse + derive + compile on every call, which
//! is what the one-shot CLI pays. Every request runs the engine's cached
//! `auto` plan over the document's structural index — the plan
//! `sxv explain` prints.
//!
//! The wire protocol is deliberately small — hand-rolled HTTP/1.1 and
//! JSON ([`http`], [`json`]), no dependencies:
//!
//! * `POST /query` `{"role": R, "doc": D, "query": Q}` → `{"answers":
//!   [...]}` where each answer line is byte-identical to the line
//!   `sxv query` would print for the same role/doc/query. The
//!   `rewrite`, `optimize` and `annotate` approaches are checked
//!   against the §3.3 materialized view; `naive`, the §6 baseline, can
//!   answer differently, since its rewrite is sound only for unique
//!   element names (the paper's footnote 3).
//! * `GET /stats` → per-tenant request counts, latency percentiles and
//!   per-role cache hit-rates.
//! * `GET /healthz`, `POST /shutdown`.
//!
//! Admission control: each query executes on its connection's thread
//! once a gate grants it one of `workers` slots; at most `queue_capacity`
//! requests wait for one. A request arriving to a full waiting line sheds
//! with 503 immediately; one whose deadline passes before it gets a slot
//! is answered 504 without doing the work, and one whose execution
//! panics gets 500. Overload degrades into fast explicit failures.

mod gate;
pub mod http;
pub mod json;
pub mod stats;

use crate::gate::{Gate, Refused, Slot};
use crate::http::{read_request, write_json, ReadError, Request};
use crate::json::{json_escape, Json};
use crate::stats::{elapsed_us, TenantStats};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use sxv_core::{
    answer_line, derive_view, AccessSpec, Approach, PlanPolicy, PolicyRegistry, SecureEngine,
};
use sxv_xml::{DocIndex, Document};
use sxv_xpath::{parse as parse_xpath, AccessView};

/// Maximum simultaneously open connections; excess connections get an
/// immediate 503 and close.
const MAX_CONNECTIONS: usize = 256;

/// How long a connection handler blocks in a read before re-checking
/// the shutdown flag (keep-alive connections would otherwise pin the
/// process open forever).
const READ_POLL: Duration = Duration::from_millis(500);

/// Stack of each connection thread, which executes its queries: the 2 MiB the XPath
/// parser's `MAX_DEPTH` is sized for, fixed so `RUST_MIN_STACK` cannot shrink it.
const REQUEST_STACK_BYTES: usize = 2 << 20;

/// Everything the daemon needs to start.
pub struct ServeConfig {
    /// `(role name, access spec)` tenant policies; the security view of
    /// each role is derived at boot and audited by registration.
    pub roles: Vec<(String, AccessSpec)>,
    /// `(doc name, document)` served documents, shared by all roles.
    pub docs: Vec<(String, Document)>,
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Most queries executing at once (≥ 1), each on its connection's thread.
    pub workers: usize,
    /// Most requests waiting for a slot; 0 sheds every request (503).
    pub queue_capacity: usize,
    /// Per-request deadline in ms from admission; without a slot by then, 504.
    pub timeout_ms: u64,
    /// Seconds between periodic per-tenant stats log lines (0 disables).
    pub stats_interval_secs: u64,
    /// Strict verification: every engine refuses plans whose static
    /// certificate has error findings; such requests get 403 instead of
    /// an answer.
    pub verify: bool,
    /// Pre-built structural indexes by doc name (e.g. loaded from an
    /// `.sxvpkg` package). Docs without one are indexed at boot; a stale
    /// name, a document that cannot be indexed, or an index whose node
    /// count differs from its document's ([`ArtifactMismatch`]) is a
    /// boot error.
    pub indexes: Vec<(String, DocIndex)>,
    /// Pre-built `(role name, doc name, artifact)` accessibility views
    /// to seed each role engine's cache with at boot, so the first
    /// annotate-approach query over a packaged document builds nothing.
    /// A view whose node count differs from its document's is a boot
    /// error ([`ArtifactMismatch`]).
    pub preloaded_views: Vec<(String, String, Arc<AccessView>)>,
    /// Queries to pre-compile (and certify) for every role × approach at
    /// boot (`sxv serve --warm FILE`), so the first request for a known
    /// workload never pays translate + compile + certify. A query that
    /// fails to parse — or, under `verify`, fails certification for any
    /// role — is a boot error, surfaced before the listener accepts.
    pub warm_queries: Vec<String>,
}

impl ServeConfig {
    /// A config with serving defaults: 4 workers, queue depth 64,
    /// 2 s deadline, stats every 30 s, ephemeral localhost port.
    pub fn new(roles: Vec<(String, AccessSpec)>, docs: Vec<(String, Document)>) -> ServeConfig {
        ServeConfig {
            roles,
            docs,
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            timeout_ms: 2_000,
            stats_interval_secs: 30,
            verify: false,
            indexes: Vec::new(),
            preloaded_views: Vec::new(),
            warm_queries: Vec::new(),
        }
    }
}

/// A pre-built artifact in a [`ServeConfig`] whose node count differs
/// from that of the document it is attached to: it was built for another
/// document. Serving it answers wrongly or indexes out of bounds, so
/// [`run`] refuses it at boot. (A same-sized artifact of another document
/// still passes; checking structure node by node is a separate, deeper
/// check.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactMismatch {
    /// A structural index from [`ServeConfig::indexes`].
    Index {
        /// The document the index was attached to.
        doc: String,
        /// Nodes in that document.
        doc_nodes: usize,
        /// Nodes the index covers.
        index_nodes: usize,
    },
    /// An access view from [`ServeConfig::preloaded_views`].
    AccessView {
        /// The role the view was preloaded for.
        role: String,
        /// The document the view was attached to.
        doc: String,
        /// Nodes in that document.
        doc_nodes: usize,
        /// Nodes the access view covers.
        view_nodes: usize,
    },
}

impl std::fmt::Display for ArtifactMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactMismatch::Index { doc, doc_nodes, index_nodes } => write!(
                f,
                "index for doc {doc:?} covers {index_nodes} nodes, but the document has \
                 {doc_nodes}: it was built for another document"
            ),
            ArtifactMismatch::AccessView { role, doc, doc_nodes, view_nodes } => write!(
                f,
                "access view for role {role:?} over doc {doc:?} covers {view_nodes} nodes, but \
                 the document has {doc_nodes}: it was built for another document"
            ),
        }
    }
}

impl std::error::Error for ArtifactMismatch {}

/// Shared server state (everything connection handlers touch).
struct ServerState<'a> {
    engines: Vec<SecureEngine<'a>>,
    role_names: Vec<String>,
    role_index: BTreeMap<String, usize>,
    docs: Vec<(String, Document)>,
    doc_index: BTreeMap<String, usize>,
    /// Structural index per doc (aligned with `docs`).
    indexes: Vec<DocIndex>,
    tenants: Vec<TenantStats>, // role-major: role_idx * docs.len() + doc_idx
    /// Admission; closed at shutdown.
    gate: Gate,
    connections: AtomicUsize,
    started: Instant,
    timeout: Duration,
    /// Plans pre-compiled at boot from `--warm` (role × approach × query).
    warmed: usize,
}

impl ServerState<'_> {
    fn tenant(&self, role_idx: usize, doc_idx: usize) -> &TenantStats {
        &self.tenants[role_idx * self.docs.len() + doc_idx]
    }
}

/// Run the daemon until `POST /shutdown`. Sends the bound address on
/// `ready` once the listener is up, so in-process callers (tests, the
/// load generator) can boot the server on a background thread and learn
/// the ephemeral port. Blocks the calling thread for the server's
/// lifetime; returns after a clean shutdown has answered every admitted
/// request and joined every connection thread.
pub fn run(config: ServeConfig, ready: mpsc::Sender<SocketAddr>) -> Result<(), String> {
    if config.roles.is_empty() {
        return Err("serve needs at least one --role".into());
    }
    if config.docs.is_empty() {
        return Err("serve needs at least one --doc".into());
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    // Derive + audit every role's view up front; a bad policy fails the
    // boot, not the first request that touches it.
    let mut registry = PolicyRegistry::new();
    let mut role_names = Vec::new();
    for (name, spec) in config.roles {
        let view = derive_view(&spec).map_err(|e| format!("role {name:?}: {e}"))?;
        registry
            .register_view(name.clone(), spec, view)
            .map_err(|e| format!("role {name:?}: {e}"))?;
        role_names.push(name);
    }
    let engines: Vec<SecureEngine<'_>> = role_names
        .iter()
        .map(|name| {
            let spec = registry.spec(name).expect("registered above");
            let view = registry.view(name).expect("registered above");
            let mut engine = SecureEngine::new(spec, view);
            engine.set_verify(config.verify);
            engine
        })
        .collect();

    let role_index: BTreeMap<String, usize> =
        role_names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
    let doc_index: BTreeMap<String, usize> =
        config.docs.iter().enumerate().map(|(i, (n, _))| (n.clone(), i)).collect();
    let tenant_count = role_names.len() * config.docs.len();

    // Attach pre-built indexes and seed access caches with pre-built
    // artifacts (both typically from `.sxvpkg` packages): the first
    // query over a packaged tenant pays evaluation only. Every other
    // document is indexed here, so every request runs its `Auto` plan
    // over an index.
    let mut indexes: Vec<Option<DocIndex>> = config.docs.iter().map(|_| None).collect();
    for (name, idx) in config.indexes {
        let &i = doc_index.get(&name).ok_or_else(|| format!("index for unknown doc {name:?}"))?;
        let (doc_nodes, index_nodes) = (config.docs[i].1.len(), idx.node_count());
        if index_nodes != doc_nodes {
            return Err(ArtifactMismatch::Index { doc: name, doc_nodes, index_nodes }.to_string());
        }
        indexes[i] = Some(idx);
    }
    let indexes = indexes
        .into_iter()
        .zip(&config.docs)
        .map(|(idx, (name, doc))| {
            idx.or_else(|| DocIndex::new(doc))
                .ok_or_else(|| format!("doc {name:?}: ids are not in document order; cannot index"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Pre-compile the warm-list queries for every role × approach under
    // the serving plan policy, so known workloads start on the cache-hit
    // path. Certification happens as part of planning; under --verify a
    // warm query no role could ever answer fails the boot instead of
    // 403ing its first caller.
    let mut warmed = 0usize;
    for q in &config.warm_queries {
        let parsed = parse_xpath(q).map_err(|e| format!("warm query {q:?}: {e}"))?;
        for (role, engine) in role_names.iter().zip(&engines) {
            for approach in
                [Approach::Naive, Approach::Rewrite, Approach::Optimize, Approach::Annotate]
            {
                let (planned, _) = engine.plan_certified(&parsed, approach, PlanPolicy::Auto);
                let planned =
                    planned.map_err(|e| format!("warm query {q:?} (role {role:?}): {e}"))?;
                if config.verify && !planned.cert.certified() {
                    return Err(format!(
                        "warm query {q:?} fails certification for role {role:?} ({approach:?})"
                    ));
                }
                warmed += 1;
            }
        }
    }

    for (role, doc_name, view) in config.preloaded_views {
        let &r = role_index
            .get(&role)
            .ok_or_else(|| format!("preloaded view for unknown role {role:?}"))?;
        let &d = doc_index
            .get(&doc_name)
            .ok_or_else(|| format!("preloaded view for unknown doc {doc_name:?}"))?;
        let doc = &config.docs[d].1;
        let (doc_nodes, view_nodes) = (doc.len(), view.len());
        if view_nodes != doc_nodes {
            let mismatch =
                ArtifactMismatch::AccessView { role, doc: doc_name, doc_nodes, view_nodes };
            return Err(mismatch.to_string());
        }
        engines[r].preload_access_view(doc.doc_id(), view);
    }

    let state = ServerState {
        engines,
        role_names,
        role_index,
        docs: config.docs,
        doc_index,
        indexes,
        tenants: (0..tenant_count).map(|_| TenantStats::default()).collect(),
        gate: Gate::new(config.workers, config.queue_capacity),
        connections: AtomicUsize::new(0),
        started: Instant::now(),
        timeout: Duration::from_millis(config.timeout_ms),
        warmed,
    };

    eprintln!(
        "sxv serve: listening on {addr} ({} roles × {} docs, {} workers, queue {}, timeout {}ms, \
         {} warmed plans{})",
        state.role_names.len(),
        state.docs.len(),
        config.workers,
        config.queue_capacity,
        config.timeout_ms,
        state.warmed,
        if config.verify { ", verify" } else { "" },
    );
    ready.send(addr).ok();

    std::thread::scope(|scope| {
        if config.stats_interval_secs > 0 {
            scope.spawn(|| stats_logger(&state, config.stats_interval_secs));
        }
        // Accept loop; handlers are scoped threads so shutdown joins
        // everything before `run` returns.
        for conn in listener.incoming() {
            if state.gate.is_closed() {
                break;
            }
            let Ok(stream) = conn else { continue };
            if state.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                let mut stream = stream;
                let _ = write_json(&mut stream, 503, "{\"error\": \"too many connections\"}", true);
                continue;
            }
            state.connections.fetch_add(1, Ordering::SeqCst);
            let handler = || {
                handle_connection(&state, stream, addr);
                state.connections.fetch_sub(1, Ordering::SeqCst);
            };
            let thread = std::thread::Builder::new().stack_size(REQUEST_STACK_BYTES);
            // On failure the unspawned handler drops, closing the stream.
            if let Err(e) = thread.spawn_scoped(scope, handler) {
                eprintln!("sxv serve: cannot start a connection thread: {e}");
                state.connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    });
    eprintln!("sxv serve: shut down after {:?}", state.started.elapsed());
    Ok(())
}

/// One admitted `/query` request.
struct Job<'q> {
    role_idx: usize,
    doc_idx: usize,
    query: &'q str,
    approach: Approach,
    admitted: Instant,
}

/// Execute one admitted query and build the HTTP reply.
fn execute(state: &ServerState<'_>, job: &Job<'_>) -> (u16, String) {
    let tenant = state.tenant(job.role_idx, job.doc_idx);
    let engine = &state.engines[job.role_idx];
    let (doc_name, doc) = &state.docs[job.doc_idx];
    let query = match parse_xpath(job.query) {
        Ok(q) => q,
        Err(e) => {
            tenant.record_error();
            return (400, error_body(&format!("query parse: {e}")));
        }
    };
    let index = Some(&state.indexes[job.doc_idx]);
    match engine.answer_report_policy(doc, index, &query, job.approach, PlanPolicy::Auto) {
        Ok((nodes, report)) => {
            // Answer lines are byte-identical to `sxv query` stdout.
            let answers: Vec<String> = nodes
                .iter()
                .map(|&node| format!("\"{}\"", json_escape(&answer_line(doc, node))))
                .collect();
            let latency_us = elapsed_us(job.admitted);
            tenant.record_ok(latency_us, report.cache_hit, u64::from(report.plan.fused_scan));
            let body = format!(
                "{{\"role\": \"{}\", \"doc\": \"{}\", \"count\": {}, \
                 \"plan_cache_hit\": {}, \"latency_us\": {}, \"answers\": [{}]}}",
                json_escape(&state.role_names[job.role_idx]),
                json_escape(doc_name),
                answers.len(),
                report.cache_hit,
                latency_us,
                answers.join(", "),
            );
            (200, body)
        }
        Err(e) => {
            tenant.record_error();
            // A certification refusal is the policy saying no, not a bad
            // request: surface it as 403 so clients can distinguish it.
            let status = match &e {
                sxv_core::Error::Uncertified { .. } => 403,
                _ => 400,
            };
            (status, error_body(&e.to_string()))
        }
    }
}

/// Answer one admitted request in its slot, containing a panic as a 500
/// error on `tenant`; the engine caches and tenant counters recover from
/// a poisoned lock, so the daemon serves on.
fn answer_in_slot(
    slot: Slot<'_>,
    tenant: &TenantStats,
    answer: impl FnOnce() -> (u16, String),
) -> (u16, String) {
    let reply = catch_unwind(AssertUnwindSafe(answer));
    drop(slot);
    reply.unwrap_or_else(|_| {
        tenant.record_error();
        (500, error_body("query execution failed"))
    })
}

/// The JSON body of an error reply.
fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}", json_escape(msg))
}

/// Serve one connection (keep-alive) until close, error, or shutdown.
fn handle_connection(state: &ServerState<'_>, stream: TcpStream, addr: SocketAddr) {
    stream.set_read_timeout(Some(READ_POLL)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = std::io::BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Eof) => return,
            Err(ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive connection; poll the shutdown flag.
                // (A client pausing mid-request past the poll interval
                // loses the request — acceptable for a trusted-client
                // daemon; all our clients write requests atomically.)
                if state.gate.is_closed() {
                    return;
                }
                continue;
            }
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(m)) => {
                let _ = write_json(reader.get_mut(), 400, &error_body(&m), true);
                return;
            }
            Err(ReadError::TooLarge(what)) => {
                let body = error_body(&format!("{what} too large"));
                let _ = write_json(reader.get_mut(), 413, &body, true);
                return;
            }
        };
        let close = req.close;
        let (status, body) = route(state, &req, addr);
        if write_json(reader.get_mut(), status, &body, close).is_err() {
            return;
        }
        if close || state.gate.is_closed() {
            return;
        }
    }
}

/// Dispatch one parsed request to its endpoint.
fn route(state: &ServerState<'_>, req: &Request, addr: SocketAddr) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"ok\": true}".into()),
        ("GET", "/stats") => (200, stats_json(state)),
        ("POST", "/shutdown") => {
            state.gate.close();
            // Unblock the accept loop so `run` can join and return.
            TcpStream::connect(addr).ok();
            (200, "{\"ok\": true, \"shutting_down\": true}".into())
        }
        ("POST", "/query") => handle_query(state, &req.body),
        ("GET" | "POST", _) => (404, "{\"error\": \"no such endpoint\"}".into()),
        _ => (405, "{\"error\": \"method not allowed\"}".into()),
    }
}

/// Parse, admit and answer one `/query` request on the calling
/// connection thread.
fn handle_query(state: &ServerState<'_>, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("body is not utf-8"));
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("body is not valid JSON: {e}"))),
    };
    let Some(role) = parsed.get("role").and_then(Json::as_str) else {
        return (400, error_body("missing string field \"role\""));
    };
    let Some(doc) = parsed.get("doc").and_then(Json::as_str) else {
        return (400, error_body("missing string field \"doc\""));
    };
    let Some(query) = parsed.get("query").and_then(Json::as_str) else {
        return (400, error_body("missing string field \"query\""));
    };
    let approach = match parsed.get("approach").and_then(Json::as_str).map(str::parse::<Approach>) {
        None => Approach::Optimize,
        Some(Ok(approach)) => approach,
        Some(Err(e)) => return (400, error_body(&e)),
    };
    let Some(&role_idx) = state.role_index.get(role) else {
        return (404, error_body(&format!("unknown role {role:?}")));
    };
    let Some(&doc_idx) = state.doc_index.get(doc) else {
        return (404, error_body(&format!("unknown doc {doc:?}")));
    };

    let tenant = state.tenant(role_idx, doc_idx);
    let admitted = Instant::now();
    // There is no mid-execution cancellation: the deadline is checked
    // when the request gets its slot, and a query admitted in time runs
    // to completion.
    let slot = match state.gate.enter(admitted + state.timeout) {
        Ok(slot) => slot,
        Err(Refused::Full) => {
            tenant.record_rejected();
            return (503, error_body("queue full, request shed"));
        }
        Err(Refused::Closed) => return (503, error_body("server is shutting down")),
        Err(Refused::Expired) => {
            tenant.record_timed_out();
            return (504, error_body("deadline expired before execution"));
        }
    };
    let job = Job { role_idx, doc_idx, query, approach, admitted };
    answer_in_slot(slot, tenant, || execute(state, &job))
}

/// Build the `/stats` JSON document.
fn stats_json(state: &ServerState<'_>) -> String {
    let mut tenants = Vec::new();
    for (role_idx, role) in state.role_names.iter().enumerate() {
        for (doc_idx, (doc_name, _)) in state.docs.iter().enumerate() {
            let t = state.tenant(role_idx, doc_idx);
            let requests = t.requests.load(Ordering::Relaxed);
            if requests == 0 {
                continue; // keep /stats readable: only tenants with traffic
            }
            let lat = t.latency_summary();
            let uptime = state.started.elapsed().as_secs_f64().max(1e-9);
            tenants.push(format!(
                "{{\"role\": \"{}\", \"doc\": \"{}\", \"requests\": {}, \"ok\": {}, \
                 \"errors\": {}, \"rejected\": {}, \"timed_out\": {}, \"qps\": {:.2}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
                 \"plan_cache_hit_rate\": {:.4}, \"fused_ops\": {}}}",
                json_escape(role),
                json_escape(doc_name),
                requests,
                t.ok.load(Ordering::Relaxed),
                t.errors.load(Ordering::Relaxed),
                t.rejected.load(Ordering::Relaxed),
                t.timed_out.load(Ordering::Relaxed),
                t.ok.load(Ordering::Relaxed) as f64 / uptime,
                lat.p50_us,
                lat.p95_us,
                lat.p99_us,
                lat.max_us,
                t.plan_hit_rate(),
                t.fused_ops.load(Ordering::Relaxed),
            ));
        }
    }
    let mut roles = Vec::new();
    for (role_idx, role) in state.role_names.iter().enumerate() {
        let cache = state.engines[role_idx].cache_stats();
        let access = state.engines[role_idx].access_stats();
        roles.push(format!(
            "{{\"role\": \"{}\", \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \
             \"entries\": {}, \"plans_compiled\": {}, \"hit_rate\": {:.4}}}, \
             \"certify\": {{\"certified\": {}, \"failures\": {}, \"micros\": {}}}, \
             \"access_cache\": {{\"builds\": {}, \"hits\": {}, \"entries\": {}}}}}",
            json_escape(role),
            cache.hits,
            cache.misses,
            cache.entries,
            cache.plans_compiled,
            cache.hit_rate(),
            cache.plans_certified,
            cache.certify_failures,
            cache.certify_micros,
            access.builds,
            access.hits,
            access.entries,
        ));
    }
    format!(
        "{{\"uptime_secs\": {:.1}, \"queue_depth\": {}, \"open_connections\": {}, \
         \"warmed\": {}, \"tenants\": [{}], \"roles\": [{}]}}",
        state.started.elapsed().as_secs_f64(),
        state.gate.waiting(),
        state.connections.load(Ordering::SeqCst),
        state.warmed,
        tenants.join(", "),
        roles.join(", "),
    )
}

/// Periodic per-tenant log lines (one per tenant with traffic).
fn stats_logger(state: &ServerState<'_>, interval_secs: u64) {
    let tick = Duration::from_millis(200);
    let mut elapsed = Duration::ZERO;
    loop {
        std::thread::sleep(tick);
        if state.gate.is_closed() {
            return;
        }
        elapsed += tick;
        if elapsed < Duration::from_secs(interval_secs) {
            continue;
        }
        elapsed = Duration::ZERO;
        for (role_idx, role) in state.role_names.iter().enumerate() {
            for (doc_idx, (doc_name, _)) in state.docs.iter().enumerate() {
                let t = state.tenant(role_idx, doc_idx);
                let requests = t.requests.load(Ordering::Relaxed);
                if requests == 0 {
                    continue;
                }
                let lat = t.latency_summary();
                eprintln!(
                    "sxv serve: tenant {role}/{doc_name} requests={requests} ok={} \
                     rejected={} timed_out={} p50={}us p99={}us plan_hit_rate={:.1}%",
                    t.ok.load(Ordering::Relaxed),
                    t.rejected.load(Ordering::Relaxed),
                    t.timed_out.load(Ordering::Relaxed),
                    lat.p50_us,
                    lat.p99_us,
                    100.0 * t.plan_hit_rate(),
                );
            }
        }
    }
}

/// Build the JSON body for a `/query` request (client-side helper used
/// by the load generator, the smoke script, and the integration tests).
pub fn query_body(role: &str, doc: &str, query: &str) -> String {
    format!(
        "{{\"role\": \"{}\", \"doc\": \"{}\", \"query\": \"{}\"}}",
        json_escape(role),
        json_escape(doc),
        json_escape(query),
    )
}

/// Pull the `answers` array out of a 200 `/query` response body.
pub fn parse_answers(body: &str) -> Result<Vec<String>, String> {
    let v = Json::parse(body)?;
    match v.get("answers") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|a| a.as_str().map(str::to_string).ok_or_else(|| "non-string answer".into()))
            .collect(),
        _ => Err(format!("no answers array in {body}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_query_answers_500_and_frees_its_slot() {
        let gate = Gate::new(1, 1);
        let tenant = TenantStats::default();
        let later = || Instant::now() + Duration::from_secs(60);
        let slot = gate.enter(later()).expect("a free slot");
        let (status, body) = answer_in_slot(slot, &tenant, || panic!("executor bug"));
        assert_eq!((status, body.as_str()), (500, "{\"error\": \"query execution failed\"}"));
        assert_eq!(tenant.requests.load(Ordering::Relaxed), 1);
        assert_eq!(tenant.errors.load(Ordering::Relaxed), 1);
        // With one worker, a slot the panic leaked would block this enter.
        let slot = gate.enter(later()).expect("the freed slot");
        let reply = answer_in_slot(slot, &tenant, || (200, "{}".to_string()));
        assert_eq!(reply, (200, "{}".to_string()));
        assert_eq!(tenant.errors.load(Ordering::Relaxed), 1);
    }
}
