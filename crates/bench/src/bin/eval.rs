//! Closed-loop evaluation-backend benchmark: compiled plans under the
//! walk / join / auto policies evaluating the translated Table-1 queries,
//! plus warm plan-cache repeat latency and `answer_batch` throughput
//! scaling, emitting a machine-readable `BENCH_eval.json` and a plan-dump
//! artifact `PLANS_eval.json`.
//!
//! ```text
//! cargo run -p sxv-bench --bin eval --release [-- --smoke] [--json FILE] [--plans FILE]
//! ```
//!
//! `--smoke` restricts to dataset D1 (for CI); `--json FILE` / `--plans FILE`
//! override the artifact paths. Every policy's answers are asserted
//! identical to the reference tree-walk before anything is timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use sxv_bench::{
    json_escape, time_pair_us, time_us, AdexWorkload, BomWorkload, Timing, BOM_QUERIES, DATASETS,
};
use sxv_core::{optimize, rewrite, rewrite_with_height, Approach, PlanPolicy, SecureEngine};
use sxv_xml::{DocIndex, Document};
use sxv_xpath::{
    compile, compile_annotate, eval_at_root, parse, CostModel, EvalStats, Path, PlanSummary,
};

const POLICIES: [PlanPolicy; 3] = [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto];

/// Counting allocator: every heap allocation the process makes ticks two
/// counters, so the `exec` section can report allocations-per-query for
/// the fused vs materialized executors (the fused path's whole point is
/// killing per-operator intermediate buffers).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are plain
// relaxed atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` once and return its result plus (allocations, bytes) it made.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    let out = f();
    let (c1, b1) = (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    (out, c1 - c0, b1 - b0)
}

struct Row {
    query: &'static str,
    dataset: &'static str,
    approach: &'static str,
    policy: PlanPolicy,
    timing: Timing,
    stats: EvalStats,
    plan: PlanSummary,
    result_count: usize,
}

/// One fused-vs-materialized executor measurement: the same compiled
/// plan run through the streaming executor and through the
/// de-composed per-operator oracle, with per-run allocation counts.
struct ExecRow {
    query: &'static str,
    dataset: &'static str,
    approach: &'static str,
    fused: Timing,
    materialized: Timing,
    fused_allocs: u64,
    fused_alloc_bytes: u64,
    materialized_allocs: u64,
    materialized_alloc_bytes: u64,
    fused_ops: u32,
    result_count: usize,
}

/// One unfold-vs-direct measurement over the recursive BOM family: the
/// direct Kleene-closure translation (the serving path) against the
/// §4.2 height-bounded unfolding oracle, on one document.
struct RecRow {
    query: &'static str,
    dataset: &'static str,
    nodes: usize,
    height: usize,
    result_count: usize,
    direct_translate: Timing,
    unfold_translate: Timing,
    direct_eval: Timing,
    unfold_eval: Timing,
}

fn flag_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = flag_value(&args, "--json", "BENCH_eval.json");
    let plans_path = flag_value(&args, "--plans", "PLANS_eval.json");

    let datasets: Vec<(&str, usize)> = if smoke { vec![DATASETS[0]] } else { DATASETS.to_vec() };

    let workload = AdexWorkload::new();
    let mut docs = Vec::new();
    for &(name, branch) in &datasets {
        let (doc, annotated) = workload.dataset(branch, 0xADE0 + branch as u64);
        let index = DocIndex::new(&doc).expect("generated docs are in document order");
        let naive_index = DocIndex::new(&annotated).expect("annotation preserves document order");
        // The annotate approach's one-time preparation: build the
        // accessibility artifact once per dataset, outside the timers.
        let access = workload.access_view(&doc, Some(&index));
        println!(
            "{name}: max_branch={branch}, {} nodes ({} elements); \
             access bitmap: {} us build, {} bytes ({:.2} bytes/node)",
            doc.len(),
            doc.element_count(),
            access.build_micros(),
            access.bytes(),
            access.bytes() as f64 / doc.len().max(1) as f64
        );
        docs.push((name, doc, annotated, index, naive_index, access));
    }
    println!();

    // The approaches pair a translated query with the document it runs
    // over: naive evaluates its `//`-widened, qualifier-heavy translation
    // against the annotated copy (the descendant-heavy case where join
    // plans should win); rewrite/optimize run root-anchored child paths
    // over the original document.
    let approaches: [(&str, Approach); 4] = [
        ("naive", Approach::Naive),
        ("rewrite", Approach::Rewrite),
        ("optimize", Approach::Optimize),
        ("annotate", Approach::Annotate),
    ];

    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<5} {:<4} {:<9} {:>12} {:>12} {:>12} {:>7} {:>10} {:>10} {:>9} {:>9}  auto-mix",
        "Query",
        "Data",
        "Approach",
        "walk(us)",
        "join(us)",
        "auto(us)",
        "W/J",
        "W-touched",
        "J-touched",
        "merges",
        "probes"
    );
    for q in &workload.queries {
        for (name, doc, annotated, index, naive_index, access) in &docs {
            for &(aname, approach) in &approaches {
                let (eval_doc, eval_index): (&Document, &DocIndex) = match approach {
                    Approach::Naive => (annotated, naive_index),
                    _ => (doc, index),
                };
                // Every policy's answer must agree exactly with the
                // reference recursive walk before anything is timed; the
                // annotate approach is measured against its prepared
                // artifact and gated on exact agreement with rewrite.
                let reference = match approach {
                    Approach::Annotate => workload.run(q, Approach::Rewrite, doc),
                    _ => workload.run(q, approach, eval_doc),
                };
                let serve = |policy: PlanPolicy| match approach {
                    Approach::Annotate => {
                        workload.run_annotate(q, doc, Some(index), policy, access)
                    }
                    _ => workload.run_policy(q, approach, eval_doc, Some(eval_index), policy),
                };
                let mut measured = Vec::with_capacity(POLICIES.len());
                for policy in POLICIES {
                    let (ans, stats, plan) = serve(policy);
                    assert_eq!(
                        reference, ans,
                        "{} {aname} on {name}: {policy} plan disagrees with the reference",
                        q.name
                    );
                    let timing = time_us(|| serve(policy));
                    measured.push((policy, timing, stats, plan));
                }
                let (_, walk_t, walk_stats, _) = measured[0];
                let (_, join_t, join_stats, _) = measured[1];
                let (_, auto_t, _, auto_plan) = measured[2];
                println!(
                    "{:<5} {:<4} {:<9} {:>12.1} {:>12.1} {:>12.1} {:>6.2}x {:>10} {:>10} {:>9} {:>9}  {}",
                    q.name,
                    name,
                    aname,
                    walk_t.median_us,
                    join_t.median_us,
                    auto_t.median_us,
                    walk_t.median_us / join_t.median_us.max(1e-9),
                    walk_stats.nodes_touched,
                    join_stats.nodes_touched,
                    join_stats.merge_steps,
                    join_stats.interval_probes,
                    auto_plan.mix()
                );
                for (policy, timing, stats, plan) in measured {
                    rows.push(Row {
                        query: q.name,
                        dataset: name,
                        approach: aname,
                        policy,
                        timing,
                        stats,
                        plan,
                        result_count: reference.len(),
                    });
                }
            }
        }
    }
    println!();

    // Fused vs materialized execution: the same compiled plan, run
    // through the streaming executor (the serving path) and through the
    // de-composed per-operator oracle. Same process, same plan, same
    // data — the ratio isolates what fusion buys, machine noise aside.
    let mut exec_rows: Vec<ExecRow> = Vec::new();
    println!(
        "{:<5} {:<4} {:<9} {:>12} {:>12} {:>7} {:>12} {:>12} {:>6}",
        "Query", "Data", "Approach", "fused(us)", "mat(us)", "f/m", "f-allocs", "m-allocs", "fused"
    );
    for q in &workload.queries {
        for (name, doc, annotated, index, naive_index, access) in &docs {
            for &(aname, approach) in &approaches {
                let (eval_doc, eval_index): (&Document, &DocIndex) = match approach {
                    Approach::Naive => (annotated, naive_index),
                    _ => (doc, index),
                };
                let cost = CostModel::from_index(eval_index);
                let plan = match approach {
                    Approach::Annotate => compile_annotate(&q.view_query, PlanPolicy::Auto, &cost),
                    _ => compile(q.translated(approach), PlanPolicy::Auto, &cost),
                };
                let acc = match approach {
                    Approach::Annotate => Some(access),
                    _ => None,
                };
                let run_fused = || plan.execute_with_access(eval_doc, Some(eval_index), acc);
                let run_mat = || plan.execute_materialized(eval_doc, Some(eval_index), acc);
                let ((fused_ans, _), fa, fb) = count_allocs(run_fused);
                let ((mat_ans, _), ma, mb) = count_allocs(run_mat);
                assert_eq!(
                    fused_ans, mat_ans,
                    "{} {aname} on {name}: fused executor disagrees with the oracle",
                    q.name
                );
                let summary = plan.summary();
                // A plan with no fused scans, closure expands or schema
                // slices runs the identical operator pipeline through both
                // entry points: one timing serves both columns instead
                // of reporting loop-to-loop noise as a phantom speedup
                // or regression. Differing pipelines (the oracle runs a
                // schema slice's retained chain) are timed with
                // interleaved repetitions so drift cancels.
                let differs =
                    summary.fused_scan + summary.closure_expand + summary.schema_slice > 0;
                let (fused_t, mat_t) = if differs {
                    time_pair_us(&run_fused, run_mat)
                } else {
                    let t = time_us(run_fused);
                    (t, t)
                };
                println!(
                    "{:<5} {:<4} {:<9} {:>12.1} {:>12.1} {:>6.2}x {:>12} {:>12} {:>6}",
                    q.name,
                    name,
                    aname,
                    fused_t.median_us,
                    mat_t.median_us,
                    mat_t.median_us / fused_t.median_us.max(1e-9),
                    fa,
                    ma,
                    summary.fused_scan
                );
                exec_rows.push(ExecRow {
                    query: q.name,
                    dataset: name,
                    approach: aname,
                    fused: fused_t,
                    materialized: mat_t,
                    fused_allocs: fa,
                    fused_alloc_bytes: fb,
                    materialized_allocs: ma,
                    materialized_alloc_bytes: mb,
                    fused_ops: summary.fused_scan,
                    result_count: fused_ans.len(),
                });
            }
        }
    }
    println!();

    // Adaptive Auto recompiles: a fresh engine per dataset answers the
    // Table-1 workload twice under the Auto policy; the first profiled
    // execution of each plan may trigger one feedback-driven recompile
    // when observed cardinalities diverge from the DTD estimates.
    let mut recompiles: Vec<(&str, u64, u64)> = Vec::new();
    for (name, doc, _, index, _, _) in &docs {
        let adaptive = SecureEngine::new(&workload.spec, &workload.view);
        for _ in 0..2 {
            for q in &workload.queries {
                for approach in [Approach::Rewrite, Approach::Optimize, Approach::Annotate] {
                    adaptive
                        .answer_report_policy(
                            doc,
                            Some(index),
                            &q.view_query,
                            approach,
                            PlanPolicy::Auto,
                        )
                        .expect("adaptive serving answers");
                }
            }
        }
        let c = adaptive.cache_stats();
        println!(
            "adaptive auto on {name}: plans_compiled={} plans_recompiled={}",
            c.plans_compiled, c.plans_recompiled
        );
        recompiles.push((name, c.plans_compiled, c.plans_recompiled));
    }
    println!();

    // Warm plan-cache repeats: after one cold answer per query, repeated
    // serving must hit the cache — `plans_compiled` stays flat while the
    // timer runs, so the medians measure pure plan execution.
    let engine = SecureEngine::new(&workload.spec, &workload.view);
    let (_, batch_doc, _, batch_index, _, _) = &docs[docs.len() - 1];
    let serve = |q: &Path| {
        engine.answer_report_policy(
            batch_doc,
            Some(batch_index),
            q,
            Approach::Rewrite,
            PlanPolicy::ForceWalk,
        )
    };
    for q in &workload.queries {
        serve(&q.view_query).expect("warmup query answers");
    }
    let compiled_before = engine.cache_stats().plans_compiled;
    let mut warm: Vec<(&str, Timing)> = Vec::new();
    println!("warm plan-cache repeat latency (rewrite approach, walk policy):");
    for q in &workload.queries {
        let timing = time_us(|| serve(&q.view_query).expect("warm query answers"));
        println!("  {}: {:>10.1} us ({} reps)", q.name, timing.median_us, timing.reps);
        warm.push((q.name, timing));
    }
    let cache = engine.cache_stats();
    assert_eq!(
        compiled_before, cache.plans_compiled,
        "warm repeats must reuse cached plans, not recompile"
    );
    println!(
        "  plan cache: hits={} misses={} hit_rate={:.1}% plans_compiled={} (flat)",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
        cache.plans_compiled
    );
    println!();

    // Batch throughput: fan the four view queries (x32 round-robin copies)
    // across worker threads sharing one immutable document + index. On a
    // single-core host the thread counts measure overhead, not speedup;
    // the JSON records whatever the hardware gives us.
    let queries: Vec<Path> =
        (0..32).flat_map(|_| workload.queries.iter().map(|q| q.view_query.clone())).collect();
    let mut batch: Vec<(usize, Timing, f64)> = Vec::new();
    let mut single_us = 0.0f64;
    println!("answer_batch throughput ({} queries, rewrite approach, join policy):", queries.len());
    for threads in [1usize, 2, 4] {
        let timing = time_us(|| {
            let results = engine.answer_batch(
                batch_doc,
                Some(batch_index),
                &queries,
                Approach::Rewrite,
                PlanPolicy::ForceJoin,
                threads,
            );
            assert!(results.iter().all(|r| r.is_ok()), "batch worker failed");
            results
        });
        if threads == 1 {
            single_us = timing.median_us;
        }
        let speedup = single_us / timing.median_us.max(1e-9);
        let qps = queries.len() as f64 / (timing.median_us / 1e6);
        println!(
            "  threads={threads}: {:>10.1} us/batch ({} reps), {:>9.0} queries/s, {:.2}x vs 1 thread",
            timing.median_us, timing.reps, qps, speedup
        );
        batch.push((threads, timing, speedup));
    }
    println!();

    // Recursive views, unfold vs direct: the BOM family's part cycle
    // makes the derived view recursive, so the serving path translates
    // queries into Kleene-closure expressions while the §4.2
    // height-bounded unfolding survives only as an oracle. Every pair
    // of answers is asserted node-identical — and the engine-served
    // answer certified — before anything is timed; the documents nest
    // deeper than any fixed unfold height a per-height cache would key.
    let bom = BomWorkload::new();
    let rec_datasets: Vec<(&str, usize)> =
        if smoke { vec![("R1", 12)] } else { vec![("R1", 12), ("R2", 24)] };
    let rec_engine = SecureEngine::new(&bom.spec, &bom.view);
    let mut rec_rows: Vec<RecRow> = Vec::new();
    println!("recursive views (BOM family): direct closure vs height-bounded unfolding oracle:");
    println!(
        "{:<5} {:<4} {:>8} {:>7} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "Query",
        "Data",
        "nodes",
        "height",
        "results",
        "direct-xl(us)",
        "unfold-xl(us)",
        "direct(us)",
        "unfold(us)"
    );
    for &(dname, depth) in &rec_datasets {
        let doc = bom.document(depth, 2, 0xB0B0 + depth as u64);
        let index = DocIndex::new(&doc).expect("generated docs are in document order");
        let height = doc.height();
        for (qname, text) in BOM_QUERIES {
            let q = parse(text).expect("BOM query parses");
            let direct =
                optimize(bom.spec.dtd(), &rewrite(&bom.view, &q).expect("closure rewrite"))
                    .expect("closure optimize");
            let unfolded =
                rewrite_with_height(&bom.view, &q, height).expect("unfolding oracle translates");
            let reference = eval_at_root(&doc, &direct);
            assert!(!reference.is_empty(), "{qname} on {dname}: recursive query must match");
            assert_eq!(
                reference,
                eval_at_root(&doc, &unfolded),
                "{qname} on {dname}: unfolding oracle disagrees with the closure translation"
            );
            let (served, report) = rec_engine
                .answer_report_policy(
                    &doc,
                    Some(&index),
                    &q,
                    Approach::Optimize,
                    PlanPolicy::ForceWalk,
                )
                .expect("recursive query answers");
            assert_eq!(
                reference, served,
                "{qname} on {dname}: engine answer disagrees with the closure translation"
            );
            assert!(report.certified, "{qname} on {dname}: the closure plan must certify");
            let direct_translate =
                time_us(|| optimize(bom.spec.dtd(), &rewrite(&bom.view, &q).unwrap()).unwrap());
            let unfold_translate = time_us(|| rewrite_with_height(&bom.view, &q, height).unwrap());
            let direct_eval = time_us(|| eval_at_root(&doc, &direct));
            let unfold_eval = time_us(|| eval_at_root(&doc, &unfolded));
            println!(
                "{:<5} {:<4} {:>8} {:>7} {:>8} {:>14.1} {:>14.1} {:>12.1} {:>12.1}",
                qname,
                dname,
                doc.len(),
                height,
                reference.len(),
                direct_translate.median_us,
                unfold_translate.median_us,
                direct_eval.median_us,
                unfold_eval.median_us
            );
            rec_rows.push(RecRow {
                query: qname,
                dataset: dname,
                nodes: doc.len(),
                height,
                result_count: reference.len(),
                direct_translate,
                unfold_translate,
                direct_eval,
                unfold_eval,
            });
            // Closure plans through the fused executor vs the oracle:
            // the in-place deduped worklist vs the legacy merge loop.
            let plan = compile(&direct, PlanPolicy::Auto, &CostModel::from_index(&index));
            let run_fused = || plan.execute(&doc, Some(&index));
            let run_mat = || plan.execute_materialized(&doc, Some(&index), None);
            let ((fused_ans, _), fa, fb) = count_allocs(run_fused);
            let ((mat_ans, _), ma, mb) = count_allocs(run_mat);
            assert_eq!(
                fused_ans, mat_ans,
                "{qname} on {dname}: fused closure executor disagrees with the oracle"
            );
            let (fused_t, mat_t) = time_pair_us(&run_fused, &run_mat);
            println!(
                "      fused {:>10.1} us vs materialized {:>10.1} us ({:.2}x), \
                 allocs {fa} vs {ma}",
                fused_t.median_us,
                mat_t.median_us,
                mat_t.median_us / fused_t.median_us.max(1e-9)
            );
            exec_rows.push(ExecRow {
                query: qname,
                dataset: dname,
                approach: "optimize",
                fused: fused_t,
                materialized: mat_t,
                fused_allocs: fa,
                fused_alloc_bytes: fb,
                materialized_allocs: ma,
                materialized_alloc_bytes: mb,
                fused_ops: plan.summary().fused_scan,
                result_count: fused_ans.len(),
            });
        }
    }
    println!();

    let access_rows: Vec<(&str, usize, u64, usize)> = docs
        .iter()
        .map(|(name, doc, _, _, _, access)| {
            (*name, doc.len(), access.build_micros(), access.bytes())
        })
        .collect();
    let json = render_json(
        &rows,
        &rec_rows,
        &exec_rows,
        &recompiles,
        &access_rows,
        &warm,
        &cache_tuple(&engine),
        &batch,
        queries.len(),
        smoke,
    );
    std::fs::write(&json_path, json).expect("write JSON artifact");
    println!("wrote {json_path}");

    let plans = render_plans(&workload, &docs[0].3);
    std::fs::write(&plans_path, plans).expect("write plan-dump artifact");
    println!("wrote {plans_path}");
}

fn cache_tuple(engine: &SecureEngine) -> (u64, u64, u64) {
    let c = engine.cache_stats();
    (c.hits, c.misses, c.plans_compiled)
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[Row],
    rec: &[RecRow],
    exec: &[ExecRow],
    recompiles: &[(&str, u64, u64)],
    access: &[(&str, usize, u64, usize)],
    warm: &[(&str, Timing)],
    cache: &(u64, u64, u64),
    batch: &[(usize, Timing, f64)],
    batch_queries: usize,
    smoke: bool,
) -> String {
    let mut out = String::new();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"eval\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"hardware_threads\": {hw},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"dataset\": \"{}\", \"approach\": \"{}\", \
             \"backend\": \"{}\", \"median_us\": {:.3}, \"reps\": {}, \"result_count\": {}, \
             \"nodes_touched\": {}, \"qualifier_checks\": {}, \"index_lookups\": {}, \
             \"merge_steps\": {}, \"interval_probes\": {}, \
             \"plan_ops\": {}, \"plan_mix\": \"{}\", \"est_rows\": {}}}{comma}",
            json_escape(r.query),
            json_escape(r.dataset),
            json_escape(r.approach),
            r.policy,
            r.timing.median_us,
            r.timing.reps,
            r.result_count,
            r.stats.nodes_touched,
            r.stats.qualifier_checks,
            r.stats.index_lookups,
            r.stats.merge_steps,
            r.stats.interval_probes,
            r.plan.total_ops(),
            json_escape(&r.plan.mix()),
            r.plan.est_rows
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"exec\": {{");
    let _ = writeln!(out, "    \"rows\": [");
    for (i, r) in exec.iter().enumerate() {
        let comma = if i + 1 < exec.len() { "," } else { "" };
        let speedup = r.materialized.median_us / r.fused.median_us.max(1e-9);
        let _ = writeln!(
            out,
            "      {{\"query\": \"{}\", \"dataset\": \"{}\", \"approach\": \"{}\", \
             \"fused_median_us\": {:.3}, \"materialized_median_us\": {:.3}, \
             \"speedup\": {speedup:.3}, \"fused_allocs\": {}, \"fused_alloc_bytes\": {}, \
             \"materialized_allocs\": {}, \"materialized_alloc_bytes\": {}, \
             \"fused_ops\": {}, \"result_count\": {}}}{comma}",
            json_escape(r.query),
            json_escape(r.dataset),
            json_escape(r.approach),
            r.fused.median_us,
            r.materialized.median_us,
            r.fused_allocs,
            r.fused_alloc_bytes,
            r.materialized_allocs,
            r.materialized_alloc_bytes,
            r.fused_ops,
            r.result_count
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"adaptive\": [");
    for (i, (name, compiled, recompiled)) in recompiles.iter().enumerate() {
        let comma = if i + 1 < recompiles.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"dataset\": \"{}\", \"plans_compiled\": {compiled}, \
             \"plans_recompiled\": {recompiled}}}{comma}",
            json_escape(name)
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"access_bitmaps\": [");
    for (i, (name, nodes, build_us, bytes)) in access.iter().enumerate() {
        let comma = if i + 1 < access.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"nodes\": {nodes}, \"build_us\": {build_us}, \
             \"bytes\": {bytes}, \"bytes_per_node\": {:.3}}}{comma}",
            json_escape(name),
            *bytes as f64 / (*nodes).max(1) as f64
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"warm_cache\": {{");
    let _ = writeln!(
        out,
        "    \"hits\": {}, \"misses\": {}, \"plans_compiled\": {},",
        cache.0, cache.1, cache.2
    );
    let _ = writeln!(out, "    \"repeats\": [");
    for (i, (name, timing)) in warm.iter().enumerate() {
        let comma = if i + 1 < warm.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"query\": \"{}\", \"median_us\": {:.3}, \"reps\": {}}}{comma}",
            json_escape(name),
            timing.median_us,
            timing.reps
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"batch\": [");
    for (i, (threads, timing, speedup)) in batch.iter().enumerate() {
        let comma = if i + 1 < batch.len() { "," } else { "" };
        let qps = batch_queries as f64 / (timing.median_us / 1e6);
        let _ = writeln!(
            out,
            "    {{\"threads\": {threads}, \"queries\": {batch_queries}, \"median_us\": {:.3}, \
             \"reps\": {}, \"queries_per_sec\": {qps:.1}, \"speedup_vs_1\": {speedup:.3}}}{comma}",
            timing.median_us, timing.reps
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"recursive\": [");
    for (i, r) in rec.iter().enumerate() {
        let comma = if i + 1 < rec.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"dataset\": \"{}\", \"nodes\": {}, \"height\": {}, \
             \"direct_count\": {}, \"unfold_count\": {}, \
             \"direct_translate_us\": {:.3}, \"unfold_translate_us\": {:.3}, \
             \"direct_eval_us\": {:.3}, \"unfold_eval_us\": {:.3}}}{comma}",
            json_escape(r.query),
            json_escape(r.dataset),
            r.nodes,
            r.height,
            r.result_count,
            r.result_count,
            r.direct_translate.median_us,
            r.unfold_translate.median_us,
            r.direct_eval.median_us,
            r.unfold_eval.median_us
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Dump every Table-1 query's auto-policy plan (compiled against the
/// first dataset's real occurrence lists) as a JSON artifact, one
/// `explain --format json` object per query × approach.
fn render_plans(workload: &AdexWorkload, index: &DocIndex) -> String {
    let approaches: [(&str, Approach); 4] = [
        ("naive", Approach::Naive),
        ("rewrite", Approach::Rewrite),
        ("optimize", Approach::Optimize),
        ("annotate", Approach::Annotate),
    ];
    let cost = CostModel::from_index(index);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"eval-plans\",");
    let _ = writeln!(out, "  \"plans\": [");
    let total = workload.queries.len() * approaches.len();
    let mut emitted = 0usize;
    for q in &workload.queries {
        for &(aname, approach) in &approaches {
            let plan = match approach {
                Approach::Annotate => compile_annotate(&q.view_query, PlanPolicy::Auto, &cost),
                _ => compile(q.translated(approach), PlanPolicy::Auto, &cost),
            };
            emitted += 1;
            let comma = if emitted < total { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"query\": \"{}\", \"approach\": \"{aname}\", \"plan\": {}}}{comma}",
                json_escape(q.name),
                plan.explain_json()
            );
        }
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
