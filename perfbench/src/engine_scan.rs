//! `engine-scan`: a closed loop of one in-process caller over one
//! `SecureEngine` per role over a D4-size Adex document (~400k nodes)
//! and a deep BOM document served through the recursive contractor
//! view. Every plan is cached after warm-up, so plan execution — child
//! walks, fused scans, bitmap filters, closure expansion — takes nearly
//! all the time.

use std::sync::Arc;
use std::time::Instant;

use sxv_bench::{AdexWorkload, BomWorkload, BOM_QUERIES, TABLE1_QUERIES};
use sxv_core::{
    build_access_view, derive_view, AccessSpec, Approach, NaiveBaseline, PlanPolicy, SecureEngine,
    SecurityView,
};
use sxv_xml::{parse as parse_xml, DocIndex, Document};
use sxv_xpath::{parse as parse_xpath, AccessView, CompiledQuery, EvalStats};

use crate::harness::{self, Latencies, Outcome, Rng, Summary};
use crate::trace::Tracer;
use crate::workload::{adex_config, bom_document, same_nodes, Oracle, APPROACHES};
use crate::{Ctx, Report};
use sxv_gen::Generator;

/// Adex branching: a D4-size document (~400k nodes). Every `*` list has
/// the same length, so every seed gets about the same size.
const ADEX_BRANCH: (usize, usize) = (56, 56);
/// BOM element depth; every subpart holds exactly two parts, so the
/// shape (~22k nodes) is the same for every seed — wider and larger than
/// the eval bench's R2 (1,411 nodes).
const BOM_DEPTH: usize = 20;
/// Weights per cell in the request sequence. Naive runs over an unindexed
/// annotated copy and takes 5–15 ms a call, 10× the heaviest other cell;
/// at equal weight it would hold over 90% of the time. The weights also
/// keep each reported percentile inside a run of cells of similar cost
/// instead of on a gap between two, where a small shift in cost would
/// make it jump: p50 falls among the 0.5–0.9 ms cells (Q2 under rewrite
/// and optimize, the BOM closures), p99 in the middle of Q2 under naive.
const NAIVE_WEIGHT: usize = 2;
const ADEX_WEIGHT: usize = 4;
const BOM_WEIGHT: usize = 14;
/// Set-ups of a traced run, for the per-layer set-up medians. An
/// untraced run sets up once more after every timed round; `setup_s` is
/// the median of its set-ups.
const SETUPS: usize = 5;
/// Requests of the replayed sequence (the weights × 12), about a second
/// a round on a 2-core x86-64 VM: short rounds give each position more
/// tries, and 1,176 positions still put 11 beyond p99.
const SEQUENCE: usize = 1_176;
/// Executions of every cell during warm-up: the first compiles, the
/// first `Auto` run profiles and may recompile, later ones hit.
const WARM_ROUNDS: usize = 3;
/// Requests of the single-threaded traced pass (a fixed count, so work
/// counters repeat exactly for a seed).
const TRACED_REQUESTS: usize = 1_200;

struct Cell {
    name: String,
    weight: usize,
    tenant: usize,
    query: &'static str,
    approach: Approach,
}

/// The measured cells: Table 1 × every approach, then BOM B1–B3 under
/// optimize.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (qname, q) in TABLE1_QUERIES {
        for (aname, a) in APPROACHES {
            let weight = if a == Approach::Naive { NAIVE_WEIGHT } else { ADEX_WEIGHT };
            let name = format!("{qname}.{aname}");
            out.push(Cell { name, weight, tenant: 0, query: q, approach: a });
        }
    }
    for (qname, q) in BOM_QUERIES {
        let name = format!("{qname}.optimize");
        out.push(Cell {
            name,
            weight: BOM_WEIGHT,
            tenant: 1,
            query: q,
            approach: Approach::Optimize,
        });
    }
    out
}

/// Cell names, as used in the `xpath.execute_p50_us.<cell>` metrics.
pub fn cell_names() -> Vec<String> {
    cells().into_iter().map(|c| c.name).collect()
}

/// A document ready to serve under one role.
struct Tenant {
    doc: Document,
    index: DocIndex,
    view: SecurityView,
}

/// Per set-up timings of the layers it calls, in µs.
#[derive(Default)]
struct SetupTimes {
    parse: f64,
    index: f64,
    derive: Vec<f64>,
    access: f64,
}

fn timed<T>(tr: &mut Tracer, name: &'static str, sink: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = tr.span(name, 0, |_| f());
    *sink += t.elapsed().as_secs_f64() * 1e6;
    out
}

fn tenant(
    xml: &str,
    spec: &AccessSpec,
    tr: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<Tenant, String> {
    let doc =
        timed(tr, "xml.parse", &mut times.parse, || parse_xml(xml)).map_err(|e| e.to_string())?;
    let index =
        timed(tr, "xml.index", &mut times.index, || DocIndex::new(&doc)).ok_or("empty document")?;
    let mut derive = 0.0;
    let view =
        timed(tr, "core.derive", &mut derive, || derive_view(spec)).map_err(|e| e.to_string())?;
    times.derive.push(derive);
    Ok(Tenant { doc, index, view })
}

fn prepare(
    xml: &[String; 2],
    specs: [&AccessSpec; 2],
    tr: &mut Tracer,
) -> Result<([Tenant; 2], Arc<AccessView>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let adex = tenant(&xml[0], specs[0], tr, &mut times)?;
    let bom = tenant(&xml[1], specs[1], tr, &mut times)?;
    let access = timed(tr, "core.access_build", &mut times.access, || {
        build_access_view(specs[0], &adex.view, &adex.doc, Some(&adex.index))
    });
    Ok(([adex, bom], Arc::new(access), times))
}

fn engines<'a>(
    specs: [&'a AccessSpec; 2],
    tenants: &'a [Tenant; 2],
    access: &Arc<AccessView>,
) -> [SecureEngine<'a>; 2] {
    let e = [
        SecureEngine::new(specs[0], &tenants[0].view),
        SecureEngine::new(specs[1], &tenants[1].view),
    ];
    e[0].preload_access_view(tenants[0].doc.doc_id(), Arc::clone(access));
    e
}

fn answer(
    engines: &[SecureEngine<'_>; 2],
    tenants: &[Tenant; 2],
    cell: &Cell,
    tr: &mut Tracer,
    request: u64,
) -> Result<(Vec<sxv_xml::NodeId>, EvalStats), String> {
    let q =
        tr.span("xpath.parse", request, |_| parse_xpath(cell.query)).map_err(|e| e.to_string())?;
    let t = &tenants[cell.tenant];
    let (nodes, rep) = tr
        .span("engine.answer", request, |_| {
            engines[cell.tenant].answer_report_policy(
                &t.doc,
                Some(&t.index),
                &q,
                cell.approach,
                PlanPolicy::Auto,
            )
        })
        .map_err(|e| format!("{}: {e}", cell.query))?;
    Ok((nodes, rep.eval))
}

fn warm(
    engines: &[SecureEngine<'_>; 2],
    tenants: &[Tenant; 2],
    cells: &[Cell],
    tr: &mut Tracer,
) -> Result<(), String> {
    tr.span("warmup", 0, |tr| {
        for _ in 0..WARM_ROUNDS {
            for c in cells {
                answer(engines, tenants, c, tr, 0)?;
            }
        }
        Ok(())
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(ctx.trace, epoch);
    let cells = cells();

    // Inputs from the seed: the documents as XML text, parsed in set-up.
    let adex = AdexWorkload::new();
    let bom = BomWorkload::new();
    let mut buf = Vec::new();
    Generator::for_dtd(
        &adex.dtd,
        adex_config(ADEX_BRANCH, Rng::fork(ctx.seed, "scan-adex").next_u64()),
    )
    .generate_to(&mut buf)
    .map_err(|e| e.to_string())?
    .ok_or("Adex DTD has no document")?;
    let bom_doc = bom_document(&bom, BOM_DEPTH, Rng::fork(ctx.seed, "scan-bom").next_u64());
    let xml = [String::from_utf8(buf).map_err(|e| e.to_string())?, sxv_xml::to_string(&bom_doc)];
    drop(bom_doc);
    let weights: Vec<f64> = cells.iter().map(|c| c.weight as f64).collect();
    let specs = [&adex.spec, &bom.spec];

    // --- set-up: the one that serves, and more — between the timed
    // rounds, or before the traced pass — for the medians.
    let set_up_again = |tr: &mut Tracer| -> Result<(f64, SetupTimes), String> {
        let t = Instant::now();
        let (tenants, access, times) = prepare(&xml, specs, tr)?;
        let e = engines(specs, &tenants, &access);
        warm(&e, &tenants, &cells, tr)?;
        Ok((t.elapsed().as_secs_f64(), times))
    };
    let mut setup_s = Vec::new();
    let mut all_times = Vec::new();
    if ctx.trace {
        for _ in 1..SETUPS {
            let (s, times) = set_up_again(&mut tr)?;
            setup_s.push(s);
            all_times.push(times);
        }
    }
    let t = Instant::now();
    let (tenants, access, times) = prepare(&xml, specs, &mut tr)?;
    let engines = engines(specs, &tenants, &access);
    warm(&engines, &tenants, &cells, &mut tr)?;
    setup_s.push(t.elapsed().as_secs_f64());
    all_times.push(times);
    let sizes = [tenants[0].doc.len(), tenants[1].doc.len()];

    // --- correctness gate against the materialized oracle.
    let mut expected = Vec::new();
    let mut oracles =
        [Oracle::new(specs[0], &tenants[0].view), Oracle::new(specs[1], &tenants[1].view)];
    for c in &cells {
        let t = &tenants[c.tenant];
        let want =
            oracles[c.tenant].answer(&t.doc, &parse_xpath(c.query).map_err(|e| e.to_string())?)?;
        let (nodes, _) = answer(&engines, &tenants, c, &mut Tracer::new(false, epoch), 0)?;
        if !same_nodes(&nodes, &want) {
            return Err(format!(
                "{}: engine selects {} nodes, the oracle {}",
                c.name,
                nodes.len(),
                want.len()
            ));
        }
        expected.push(nodes.len());
    }
    drop(oracles);
    report.note(format!("gate: {} cells equal the materialized oracle", cells.len()));
    report.note(format!(
        "loop=closed threads=1 policy=auto docs: adex={} nodes (D4 size), bom={} nodes (depth {BOM_DEPTH}, 2 parts per subpart) weights naive={NAIVE_WEIGHT} adex={ADEX_WEIGHT} bom={BOM_WEIGHT}",
        sizes[0], sizes[1]
    ));
    report.note(format!(
        "distinct plans={} (plan cache 64/engine), documents=2 (access and naive-copy caches 8/engine)",
        cells.len()
    ));

    // One caller. On a 2-core host two callers interfered — a request's
    // latency depended on what the other caller was scanning — which
    // doubled the run-to-run spread of p50.
    if !ctx.trace {
        let sequence =
            harness::exact_mix(&weights, SEQUENCE, &mut Rng::fork(ctx.seed, "scan-requests"));
        let mut off = Tracer::new(false, epoch);
        let rounds = harness::replay_rounds(
            ctx.seconds,
            sequence.len(),
            |i| {
                let c = sequence[i];
                match answer(&engines, &tenants, &cells[c], &mut off, 0) {
                    Ok((nodes, _)) if nodes.len() == expected[c] => Ok(Outcome::Correct),
                    Ok((nodes, _)) => Err(format!(
                        "{}: {} nodes, expected {}",
                        cells[c].name,
                        nodes.len(),
                        expected[c]
                    )),
                    Err(_) => Ok(Outcome::Failed),
                }
            },
            || {
                setup_s.push(set_up_again(&mut Tracer::new(false, epoch))?.0);
                Ok(())
            },
        )?;
        report.set_summary(&Summary::new(rounds)?, &setup_s);
        return Ok(report);
    }

    // --- traced: one thread, a fixed seeded request sequence.
    let sequence =
        harness::exact_mix(&weights, TRACED_REQUESTS, &mut Rng::fork(ctx.seed, "scan-trace"));
    let annotated =
        tr.span("core.naive_annotate", 0, |_| NaiveBaseline::annotate(specs[0], &tenants[0].doc));
    let plans: Vec<Arc<CompiledQuery>> = cells
        .iter()
        .map(|c| {
            let q = parse_xpath(c.query).map_err(|e| e.to_string())?;
            engines[c.tenant]
                .plan_certified(&q, c.approach, PlanPolicy::Auto)
                .0
                .map(|p| p.plan)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let stats_before: Vec<_> =
        engines.iter().map(|e| (e.cache_stats(), e.access_stats())).collect();
    let mut untraced = 0.0;
    let mut off = Tracer::new(false, epoch);
    for &c in &sequence {
        let t0 = Instant::now();
        answer(&engines, &tenants, &cells[c], &mut off, 0)?;
        untraced += t0.elapsed().as_secs_f64();
    }
    let mut eval = EvalStats::default();
    let mut answers = 0u64;
    let traced_start = tr.spans().len();
    for (i, &c) in sequence.iter().enumerate() {
        let (nodes, stats) =
            tr.span("request", i as u64, |tr| answer(&engines, &tenants, &cells[c], tr, i as u64))?;
        if nodes.len() != expected[c] {
            return Err(format!(
                "{}: {} nodes, expected {}",
                cells[c].name,
                nodes.len(),
                expected[c]
            ));
        }
        eval.absorb(stats);
        answers += nodes.len() as u64;
    }
    let traced: f64 = tr.durations("request", traced_start).iter().sum();
    // The same sequence once more, calling each cached plan's executor
    // directly.
    let mut execute: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    for (i, &c) in sequence.iter().enumerate() {
        let t = &tenants[cells[c].tenant];
        let t0 = Instant::now();
        let (run, _) = tr.span("xpath.execute", i as u64, |_| match cells[c].approach {
            Approach::Naive => plans[c].execute(&annotated, None),
            Approach::Annotate => {
                plans[c].execute_with_access(&t.doc, Some(&t.index), Some(&access))
            }
            _ => plans[c].execute(&t.doc, Some(&t.index)),
        });
        execute[c].push(t0.elapsed().as_secs_f64() * 1e6);
        if run.len() != expected[c] {
            return Err(format!("{}: direct execution gave {} nodes", cells[c].name, run.len()));
        }
    }
    report.set("trace.overhead_share", traced / 1e6 / untraced - 1.0);
    report.attempted = sequence.len() as u64;
    report.set_engine_stats(&engines, &stats_before);
    let answer_lat = Latencies::new(tr.durations("engine.answer", traced_start));
    report.set("engine.answer_p50_us", answer_lat.p(50.0));
    report.set("engine.answer_p99_us", answer_lat.p(99.0));
    report.set("xpath.parse_us", Latencies::new(tr.durations("xpath.parse", traced_start)).mean());
    for (c, samples) in cells.iter().zip(execute) {
        report.set(format!("xpath.execute_p50_us.{}", c.name), Latencies::new(samples).p(50.0));
    }
    report.set_eval_counts(&eval, answers);
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        harness::median(&all_times.iter().map(f).collect::<Vec<_>>())
    };
    report.set("xml.parse_ms", med(&|t| t.parse) / 1e3);
    report.set("xml.index_ms", med(&|t| t.index) / 1e3);
    report.set("core.access_build_ms", med(&|t| t.access) / 1e3);
    report.set(
        "core.derive_us",
        harness::median(&all_times.iter().flat_map(|t| t.derive.clone()).collect::<Vec<_>>()),
    );
    report.set("core.access_bytes_per_node", access.bytes() as f64 / sizes[0] as f64);
    report.set(
        "core.naive_annotate_ms",
        tr.durations("core.naive_annotate", 0).iter().sum::<f64>() / 1e3,
    );
    report.set_self_times(&tr);
    Ok(report)
}
