//! End-to-end tests for the `sxv serve` daemon: boot it in-process on
//! an ephemeral port, drive it over real sockets with the hand-rolled
//! HTTP client, and check the multi-tenant contract — answers byte-
//! identical to the one-shot engine, correct 4xx/5xx semantics under
//! bad input and overload, per-tenant stats, clean shutdown.

use secure_xml_views::core::{
    answer_line, build_access_view, derive_view, AccessSpec, Approach, PlanPolicy, SecureEngine,
};
use secure_xml_views::dtd::{parse_dtd, Dtd};
use secure_xml_views::serve::http::{Client, MAX_BODY_BYTES};
use secure_xml_views::serve::json::MAX_NESTING;
use secure_xml_views::serve::{parse_answers, query_body, run, ArtifactMismatch, ServeConfig};
use secure_xml_views::xml::{parse as parse_xml, DocIndex, Document, DocumentBuilder};
use secure_xml_views::xpath::parse as parse_xpath;
use secure_xml_views::xpath::parser::MAX_DEPTH;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

fn dtd() -> Dtd {
    parse_dtd(
        "<!ELEMENT r (pub, sec, fin)>\
         <!ELEMENT pub (#PCDATA)><!ELEMENT sec (#PCDATA)><!ELEMENT fin (#PCDATA)>",
        "r",
    )
    .unwrap()
}

fn docs() -> Vec<(String, Document)> {
    vec![
        ("d1".into(), parse_xml("<r><pub>p1</pub><sec>s1</sec><fin>f1</fin></r>").unwrap()),
        ("d2".into(), parse_xml("<r><pub>p2</pub><sec>s2</sec><fin>f2</fin></r>").unwrap()),
    ]
}

fn roles(dtd: &Dtd) -> Vec<(String, AccessSpec)> {
    vec![
        (
            "public".into(),
            AccessSpec::builder(dtd).deny("r", "sec").deny("r", "fin").build().unwrap(),
        ),
        ("finance".into(), AccessSpec::builder(dtd).deny("r", "sec").build().unwrap()),
    ]
}

/// Boot a server on a background thread; returns its address and the
/// join handle (join after POST /shutdown).
fn boot(config: ServeConfig) -> (SocketAddr, JoinHandle<Result<(), String>>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || run(config, tx));
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server should come up");
    (addr, handle)
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(&addr.to_string(), Duration::from_secs(10)).unwrap()
}

/// What the unindexed `walk` plan answers for this (role, doc, query)
/// under optimize — the server's indexed `auto` plan must match these
/// lines byte for byte.
fn direct_answers(dtd: &Dtd, role: &str, doc_name: &str, query: &str) -> Vec<String> {
    let spec = roles(dtd).into_iter().find(|(n, _)| n == role).unwrap().1;
    let doc = docs().into_iter().find(|(n, _)| n == doc_name).unwrap().1;
    let view = derive_view(&spec).unwrap();
    let engine = SecureEngine::new(&spec, &view);
    let q = parse_xpath(query).unwrap();
    let (nodes, _) = engine
        .answer_report_policy(&doc, None, &q, Approach::Optimize, PlanPolicy::ForceWalk)
        .unwrap();
    nodes.into_iter().map(|node| answer_line(&doc, node)).collect()
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<Result<(), String>>) {
    let (status, _) = client(addr).post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn concurrent_mixed_role_answers_match_the_one_shot_engine() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);

    // 4 concurrent clients × 2 roles × 2 docs; every answer must be
    // byte-identical to what the one-shot engine produces.
    let cases = [
        ("public", "d1", "*"),
        ("public", "d2", "//pub"),
        ("finance", "d1", "*"),
        ("finance", "d2", "//fin"),
        ("public", "d1", "//sec"),  // hidden: empty answer
        ("finance", "d2", "//sec"), // hidden for finance too
    ];
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let dtd = &dtd;
            scope.spawn(move || {
                let mut c = client(addr);
                for round in 0..6 {
                    let (role, doc, query) = cases[(worker + round) % cases.len()];
                    let (status, body) = c.post("/query", &query_body(role, doc, query)).unwrap();
                    assert_eq!(status, 200, "{body}");
                    let got = parse_answers(&body).unwrap();
                    assert_eq!(got, direct_answers(dtd, role, doc, query), "{role}/{doc} {query}");
                }
            });
        }
    });

    // /stats shows every tenant that saw traffic, with sane counters.
    let (status, stats) = client(addr).get("/stats").unwrap();
    assert_eq!(status, 200);
    let v = secure_xml_views::serve::json::Json::parse(&stats).unwrap();
    let tenants = match v.get("tenants") {
        Some(secure_xml_views::serve::json::Json::Array(t)) => t.clone(),
        other => panic!("bad tenants: {other:?}"),
    };
    assert!(tenants.len() >= 4, "expected ≥4 tenants with traffic: {stats}");
    let total: u64 =
        tenants.iter().map(|t| t.get("requests").and_then(|r| r.as_u64()).unwrap()).sum();
    assert_eq!(total, 24, "{stats}");
    for t in &tenants {
        assert!(t.get("p50_us").is_some() && t.get("p99_us").is_some(), "{stats}");
        assert!(t.get("plan_cache_hit_rate").is_some(), "{stats}");
    }
    // Warm plan caches: repeated queries per (role, query) must hit.
    let roles_stats = match v.get("roles") {
        Some(secure_xml_views::serve::json::Json::Array(r)) => r.clone(),
        other => panic!("bad roles: {other:?}"),
    };
    assert_eq!(roles_stats.len(), 2);
    for r in &roles_stats {
        let hits = r.get("plan_cache").unwrap().get("hits").unwrap().as_u64().unwrap();
        assert!(hits > 0, "warm engine should see plan-cache hits: {stats}");
    }

    shutdown(addr, handle);
}

#[test]
fn warm_queries_precompile_plans_and_report_in_stats() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    config.warm_queries = vec!["//pub".into(), "*".into()];
    let (addr, handle) = boot(config);
    let mut c = client(addr);

    // The very first request for a warmed query is already a plan-cache
    // hit: boot compiled it for every role × approach.
    let (status, body) = c.post("/query", &query_body("public", "d1", "//pub")).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"plan_cache_hit\": true"), "warmed query must hit: {body}");
    let got = parse_answers(&body).unwrap();
    assert_eq!(got, direct_answers(&dtd, "public", "d1", "//pub"));

    // An unwarmed query still misses on first sight.
    let (status, body) = c.post("/query", &query_body("public", "d1", "//fin")).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"plan_cache_hit\": false"), "unwarmed query must miss: {body}");

    let (status, stats) = c.get("/stats").unwrap();
    assert_eq!(status, 200);
    let v = secure_xml_views::serve::json::Json::parse(&stats).unwrap();
    // 2 queries × 2 roles × 4 approaches.
    assert_eq!(v.get("warmed").and_then(|w| w.as_u64()), Some(16), "{stats}");
    let roles_stats = match v.get("roles") {
        Some(secure_xml_views::serve::json::Json::Array(r)) => r.clone(),
        other => panic!("bad roles: {other:?}"),
    };
    for r in &roles_stats {
        let cache = r.get("plan_cache").unwrap();
        let compiled = cache.get("plans_compiled").unwrap().as_u64().unwrap();
        assert!(compiled >= 8, "each role pre-compiles its warm list: {stats}");
    }
    shutdown(addr, handle);
}

#[test]
fn warm_query_that_fails_to_parse_is_a_boot_error() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    config.warm_queries = vec!["//pub[".into()];
    let (tx, _rx) = mpsc::channel();
    let err = run(config, tx).unwrap_err();
    assert!(err.contains("warm query"), "{err}");
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let mut c = client(addr);
    for _ in 0..10 {
        let (status, body) = c.post("/query", &query_body("public", "d1", "*")).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (status, _) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    shutdown(addr, handle);
}

/// Send `raw` on a fresh connection and return the reply's status and
/// body, or `None` if none comes within five seconds.
fn raw_reply(addr: SocketAddr, raw: &[u8]) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // The server may answer and close before it has read all of `raw`.
    let _ = stream.write_all(raw);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let reply = String::from_utf8_lossy(&reply);
    let status = reply.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, reply.split_once("\r\n\r\n")?.1.to_string()))
}

/// `raw` gets a 413, and the server answers afterwards.
fn assert_too_large(raw: &[u8]) {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let reply = raw_reply(addr, raw);
    assert!(matches!(&reply, Some((413, body)) if body.contains("too large")), "{reply:?}");
    let (status, _) = client(addr).get("/healthz").unwrap();
    assert_eq!(status, 200);
    shutdown(addr, handle);
}

#[test]
fn unterminated_request_line_gets_413() {
    // 64 KiB with no newline: the head is bounded while a line is read,
    // not only once a whole line has arrived.
    let mut raw = b"GET /".to_vec();
    raw.resize(64 * 1024, b'a');
    assert_too_large(&raw);
}

#[test]
fn header_block_over_16_kib_gets_413() {
    let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..200 {
        raw += &format!("X-Pad-{i}: {}\r\n", "p".repeat(100));
    }
    raw += "\r\n";
    assert!(raw.len() > 16 * 1024);
    assert_too_large(raw.as_bytes());
}

#[test]
fn content_length_over_the_body_bound_gets_413() {
    let raw = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
    assert_too_large(raw.as_bytes());
}

#[test]
fn unknown_tenants_and_bad_bodies_get_4xx() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let mut c = client(addr);

    let (status, body) = c.post("/query", &query_body("ghost", "d1", "*")).unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown role"), "{body}");

    let (status, body) = c.post("/query", &query_body("public", "nope", "*")).unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown doc"), "{body}");

    let (status, body) = c.post("/query", "{\"role\": \"public\"}").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("doc"), "{body}");

    let (status, body) = c.post("/query", "not json at all").unwrap();
    assert_eq!(status, 400, "{body}");

    let (status, body) = c.post("/query", &query_body("public", "d1", "//(((")).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("query parse"), "{body}");

    let turbo =
        "{\"role\": \"public\", \"doc\": \"d1\", \"query\": \"*\", \"approach\": \"turbo\"}";
    let (status, body) = c.post("/query", turbo).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown approach"), "{body}");
    assert!(body.contains("valid values: naive, rewrite, optimize, annotate"), "{body}");

    let (status, _) = c.get("/no-such-endpoint").unwrap();
    assert_eq!(status, 404);

    // Errors and rejections never leak another tenant's data and the
    // server stays healthy afterwards.
    let (status, _) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    shutdown(addr, handle);
}

#[test]
fn zero_capacity_queue_sheds_with_503() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.queue_capacity = 0;
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let mut c = client(addr);
    let (status, body) = c.post("/query", &query_body("public", "d1", "*")).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("shed"), "{body}");
    let (_, stats) = c.get("/stats").unwrap();
    assert!(stats.contains("\"rejected\": 1"), "{stats}");
    shutdown(addr, handle);
}

#[test]
fn expired_deadline_times_out_with_504() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.timeout_ms = 0; // every deadline is already expired at pop
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let mut c = client(addr);
    let (status, body) = c.post("/query", &query_body("finance", "d2", "*")).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    let (_, stats) = c.get("/stats").unwrap();
    assert!(stats.contains("\"timed_out\": 1"), "{stats}");
    shutdown(addr, handle);
}

#[test]
fn verify_mode_refuses_uncertified_plans_with_403() {
    let dtd = dtd();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.stats_interval_secs = 0;
    config.verify = true;
    let (addr, handle) = boot(config);
    let mut c = client(addr);

    // Certified plans keep serving under strict verification.
    let (status, body) = c.post("/query", &query_body("public", "d1", "//pub")).unwrap();
    assert_eq!(status, 200, "{body}");

    // A naive plan that would emit the hidden `sec` subtree fails
    // static certification: the engine refuses to execute it and the
    // server answers 403 (a policy refusal, not a bad request).
    let naive = |query: &str| {
        format!(
            "{{\"role\": \"public\", \"doc\": \"d1\", \"query\": \"{query}\", \
             \"approach\": \"naive\"}}"
        )
    };
    let (status, body) = c.post("/query", &naive("//sec")).unwrap();
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("failed static certification"), "{body}");
    assert!(body.contains("sec"), "{body}");

    // The same naive approach over accessible data certifies and serves.
    let (status, body) = c.post("/query", &naive("//pub")).unwrap();
    assert_eq!(status, 200, "{body}");

    // /stats surfaces the per-role certifier counters.
    let (_, stats) = c.get("/stats").unwrap();
    assert!(stats.contains("\"certify\""), "{stats}");
    assert!(stats.contains("\"failures\": 1"), "{stats}");

    // The refusal is sticky across the plan cache: the cached entry
    // stays uncertified on repeat.
    let (status, _) = c.post("/query", &naive("//sec")).unwrap();
    assert_eq!(status, 403);
    shutdown(addr, handle);
}

#[test]
fn boot_rejects_empty_or_invalid_configs() {
    let dtd = dtd();
    let (tx, _rx) = mpsc::channel();
    let err = run(ServeConfig::new(Vec::new(), docs()), tx).unwrap_err();
    assert!(err.contains("--role"), "{err}");

    let (tx, _rx) = mpsc::channel();
    let err = run(ServeConfig::new(roles(&dtd), Vec::new()), tx).unwrap_err();
    assert!(err.contains("--doc"), "{err}");

    let (tx, _rx) = mpsc::channel();
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.workers = 0;
    let err = run(config, tx).unwrap_err();
    assert!(err.contains("--workers"), "{err}");

    // Every served document is indexed at boot, so one whose ids are not
    // in document order (node 3 sits under node 1 but after node 2)
    // fails the boot instead of being served unindexed.
    let mut scrambled = DocumentBuilder::new();
    let root = scrambled.create_root("r").unwrap();
    let first = scrambled.append_element(root, "pub");
    scrambled.append_element(root, "sec");
    scrambled.append_element(first, "pub");
    let mut docs = docs();
    docs.push(("scrambled".into(), scrambled.finish()));
    let (tx, _rx) = mpsc::channel();
    let err = run(ServeConfig::new(roles(&dtd), docs), tx).unwrap_err();
    assert!(err.contains("doc \"scrambled\"") && err.contains("cannot index"), "{err}");
}

#[test]
fn boot_refuses_artifacts_built_for_another_document() {
    // Six nodes against d1's seven: an index or access view built over
    // this document and attached to d1 would read past d1's nodes.
    let other = parse_xml("<r><pub/><sec>s</sec><fin>f</fin></r>").unwrap();
    let dtd = dtd();
    let (role, spec) = roles(&dtd).remove(0);
    let view = derive_view(&spec).unwrap();
    let foreign_view = Arc::new(build_access_view(&spec, &view, &other, None));

    // The error `run` refuses `config` with; a daemon that boots instead
    // is shut down and fails the test.
    let boot_error = |config: ServeConfig| {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || run(config, tx));
        if let Ok(addr) = rx.recv_timeout(Duration::from_secs(10)) {
            shutdown(addr, handle);
            panic!("the daemon booted with another document's artifact");
        }
        handle.join().unwrap().unwrap_err()
    };

    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.indexes = vec![("d1".into(), DocIndex::new(&other).unwrap())];
    assert_eq!(
        boot_error(config),
        ArtifactMismatch::Index { doc: "d1".into(), doc_nodes: 7, index_nodes: 6 }.to_string()
    );

    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.preloaded_views = vec![(role.clone(), "d2".into(), foreign_view)];
    let err = boot_error(config);
    let expected =
        ArtifactMismatch::AccessView { role, doc: "d2".into(), doc_nodes: 7, view_nodes: 6 };
    assert_eq!(err, expected.to_string());
    assert!(err.contains("built for another document"), "{err}");

    // Artifacts built over d1's own shape still boot and serve.
    let d1 = docs().remove(0).1;
    let mut config = ServeConfig::new(roles(&dtd), docs());
    config.indexes = vec![("d1".into(), DocIndex::new(&d1).unwrap())];
    config.preloaded_views =
        vec![("public".into(), "d1".into(), Arc::new(build_access_view(&spec, &view, &d1, None)))];
    let (addr, handle) = boot(config);
    for approach in ["optimize", "annotate"] {
        let body =
            format!(r#"{{"role":"public","doc":"d1","query":"//*","approach":"{approach}"}}"#);
        let (status, reply) = client(addr).post("/query", &body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert_eq!(parse_answers(&reply).unwrap(), direct_answers(&dtd, "public", "d1", "//*"));
    }
    shutdown(addr, handle);
}

/// Deep query shapes: how to build one of size `n`, the largest size the
/// XPath parser's depth bound admits, and a size that overflowed a daemon
/// worker's stack before the bound existed.
type DeepQuery = (&'static str, fn(usize) -> String, usize, usize);

const DEEP_QUERIES: [DeepQuery; 6] = [
    ("nested qualifiers", |n| format!("{}a{}", "a[".repeat(n), "]".repeat(n)), 63, 1_500),
    ("step chain", |n| vec!["dept"; n].join("/"), MAX_DEPTH, 5_000),
    ("stacked qualifiers", |n| format!("dept{}", "[dept]".repeat(n)), MAX_DEPTH - 2, 5_000),
    ("postfix stars", |n| format!("dept{}", "*".repeat(n)), MAX_DEPTH - 1, 20_000),
    (
        "union arms",
        |n| (0..n).map(|i| format!("l{i}")).collect::<Vec<_>>().join(" | "),
        MAX_DEPTH,
        20_000,
    ),
    (
        "nested parentheses",
        |n| format!("{}dept{}", "(".repeat(n), ")".repeat(n)),
        MAX_DEPTH,
        50_000,
    ),
];

#[test]
fn deep_queries_and_bodies_are_refused_without_harming_other_tenants() {
    let dtd = parse_dtd(include_str!("../assets/hospital.dtd"), "hospital").unwrap();
    let spec = |text, bind: &[(&str, &str)]| AccessSpec::parse(&dtd, text, bind).unwrap();
    let roles = vec![
        ("nurse".into(), spec(include_str!("../assets/hospital_nurse.spec"), &[("wardNo", "6")])),
        ("doctor".into(), spec(include_str!("../assets/hospital_doctor.spec"), &[])),
    ];
    let ward = "<hospital><dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial>\
                <patientInfo><patient><name>Ann</name><wardNo>6</wardNo><treatment><trial>\
                <bill>9</bill></trial></treatment></patient></patientInfo><staffInfo/></dept>\
                </hospital>";
    let docs = ["w1", "w2"].map(|name| (name.to_string(), parse_xml(ward).unwrap())).to_vec();
    let mut config = ServeConfig::new(roles, docs);
    config.stats_interval_secs = 0;
    let (addr, handle) = boot(config);
    let mut c = client(addr);
    // Every deep request goes to the doctor's w1 tenant; the nurse's w2
    // tenant must keep answering in between.
    let other_tenant = |c: &mut Client| {
        let (status, body) = c.post("/query", &query_body("nurse", "w2", "//name")).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(parse_answers(&body).unwrap(), ["<name> Ann"]);
    };
    other_tenant(&mut c);

    for (shape, build, limit, crashed_at) in DEEP_QUERIES {
        for approach in ["naive", "rewrite", "optimize", "annotate"] {
            for (n, want) in [(limit, 200), (limit + 1, 400), (crashed_at, 400)] {
                let body = format!(
                    "{{\"role\": \"doctor\", \"doc\": \"w1\", \"query\": \"{}\", \
                     \"approach\": \"{approach}\"}}",
                    build(n)
                );
                let (status, reply) = c.post("/query", &body).unwrap();
                assert_eq!(status, want, "{shape} × {n} ({approach}): {reply}");
                if want == 400 {
                    assert!(
                        reply.contains(&format!("nests deeper than {MAX_DEPTH}")),
                        "{shape}: {reply}"
                    );
                }
                other_tenant(&mut c);
            }
        }
    }

    // JSON nesting: a request padded to the nesting bound still answers;
    // one level deeper, or the 200 000 `[` that overflowed a connection
    // thread, is not valid JSON.
    let padded = |depth: usize| {
        let arrays = depth - 1; // the request object is the first level
        format!(
            "{{\"role\": \"doctor\", \"doc\": \"w1\", \"query\": \"//test\", \"pad\": {}{}}}",
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    };
    let (status, reply) = c.post("/query", &padded(MAX_NESTING)).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(parse_answers(&reply).unwrap(), ["<test> t"]);
    for body in [padded(MAX_NESTING + 1), "[".repeat(200_000)] {
        let (status, reply) = c.post("/query", &body).unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("body is not valid JSON"), "{reply}");
        other_tenant(&mut c);
    }
    shutdown(addr, handle);
}
