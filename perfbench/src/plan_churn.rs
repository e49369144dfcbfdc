//! `plan-churn`: a closed loop of one in-process caller over three roles
//! — Adex §6, hospital nurse (`$wardNo` = 6) and BOM contractor — each on
//! a document of a few thousand nodes, asking a seeded stream of generated
//! queries whose Zipf popularity spans ~4× the plan cache, so most
//! requests miss. Parse → rewrite/closure translation → optimize →
//! compile → certify dominates; execution stays small.

use std::sync::Arc;
use std::time::Instant;

use sxv_bench::{AdexWorkload, BomWorkload, HospitalWorkload};
use sxv_core::{
    build_access_view, certify_context, derive_view, dtd_cost_model, optimize, rewrite, AccessSpec,
    Approach, NaiveBaseline, PlanPolicy, SecureEngine, SecurityView,
};
use sxv_gen::{GenConfig, Generator};
use sxv_xml::{DocIndex, Document};
use sxv_xpath::{certify, compile, compile_annotate, parse as parse_xpath, simplify, EvalStats};

use crate::harness::{self, Latencies, Outcome, Rng, Summary};
use crate::metrics::CacheDelta;
use crate::trace::Tracer;
use crate::workload::{adex_config, approach_name, bom_document, same_nodes, Oracle, APPROACHES};
use crate::{Ctx, Report};

const ROLES: [&str; 3] = ["adex", "hospital", "bom"];
/// Distinct generated queries per role, each asked under one approach
/// (rotating through the four): the keys per engine are 4× the engine's
/// plan cache of 64.
const QUERIES_PER_ROLE: usize = 256;
/// Zipf exponent of key popularity: flat enough that most requests miss.
const ZIPF_S: f64 = 0.6;
/// Seed of the generated queries and of their popularity order, the same
/// for every run: which queries a seed drew moved p50 by 15–20%, so the
/// run's seed picks the documents and the request order instead.
const UNIVERSE: u64 = 1;
/// Set-ups of a traced run, for the per-layer set-up medians (~1 s).
const SETUPS: usize = 200;
/// Set-ups an untraced run adds after every timed round; `setup_s` is
/// the median of its set-ups.
const SETUPS_BETWEEN_ROUNDS: usize = 15;
const BOM_DEPTH: usize = 12;
/// Requests of the replayed sequence, about two seconds a round on a
/// 2-core x86-64 VM. Longer than the plan cache's reach, so every round
/// after the untimed first meets the cache in the same state.
const SEQUENCE: usize = 20_000;
const TRACED_REQUESTS: usize = 3000;

/// One role's inputs: its policy and the document it serves.
struct RoleInput {
    spec: AccessSpec,
    doc: Document,
}

fn inputs(seed: u64) -> [RoleInput; 3] {
    let doc_seed = |role: &str| Rng::fork(seed, &format!("churn-doc-{role}")).next_u64();
    let adex = AdexWorkload::new();
    let adex_doc = Generator::for_dtd(&adex.dtd, adex_config((10, 10), doc_seed("adex")))
        .generate()
        .expect("Adex DTD is consistent");
    let hospital = HospitalWorkload::new();
    let config = GenConfig::seeded(doc_seed("hospital"))
        .with_max_branch(10)
        .with_min_branch(10)
        .with_max_depth(32)
        .with_values("wardNo", ["6", "7", "8", "9"]);
    let hospital_doc =
        Generator::for_dtd(&hospital.dtd, config).generate().expect("hospital DTD is consistent");
    let bom = BomWorkload::new();
    // Depth 12 (~1.4k nodes): on deeper documents a few generated queries
    // with `//` inside qualifiers take milliseconds to execute, so the
    // tail followed how many of them a seed happened to draw.
    let bom_doc = bom_document(&bom, BOM_DEPTH, doc_seed("bom"));
    [
        RoleInput { spec: adex.spec, doc: adex_doc },
        RoleInput { spec: hospital.spec, doc: hospital_doc },
        RoleInput { spec: bom.spec, doc: bom_doc },
    ]
}

/// A role ready to serve: derived view and document index.
struct Served {
    view: SecurityView,
    index: DocIndex,
}

#[derive(Default)]
struct SetupTimes {
    derive: Vec<f64>,
    index: f64,
    access: f64,
}

fn prepare(
    inputs: &[RoleInput; 3],
    tr: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<Vec<Served>, String> {
    inputs
        .iter()
        .map(|r| {
            let t = Instant::now();
            let view =
                tr.span("core.derive", 0, |_| derive_view(&r.spec)).map_err(|e| e.to_string())?;
            times.derive.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let index =
                tr.span("xml.index", 0, |_| DocIndex::new(&r.doc)).ok_or("empty document")?;
            times.index += t.elapsed().as_secs_f64() * 1e6;
            Ok(Served { view, index })
        })
        .collect()
}

/// Engines with their access artifacts preloaded and naive copies built.
fn engines<'a>(
    inputs: &'a [RoleInput; 3],
    served: &'a [Served],
    tr: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<Vec<SecureEngine<'a>>, String> {
    let mut out = Vec::new();
    for (r, s) in inputs.iter().zip(served) {
        let engine = SecureEngine::new(&r.spec, &s.view);
        let t = Instant::now();
        let access = tr.span("core.access_build", 0, |_| {
            build_access_view(&r.spec, &s.view, &r.doc, Some(&s.index))
        });
        times.access += t.elapsed().as_secs_f64() * 1e6;
        engine.preload_access_view(r.doc.doc_id(), Arc::new(access));
        // The first naive query builds the engine's annotated copy.
        let root = parse_xpath(s.view.root()).map_err(|e| e.to_string())?;
        tr.span("warmup", 0, |_| {
            engine.answer_report_policy(
                &r.doc,
                Some(&s.index),
                &root,
                Approach::Naive,
                PlanPolicy::Auto,
            )
        })
        .map_err(|e| e.to_string())?;
        out.push(engine);
    }
    Ok(out)
}

/// A cache key the stream asks for: query index and approach.
type Key = (usize, Approach);

/// A request stream of `len` (role, key rank) pairs: roles equally often,
/// ranks in exact Zipf proportions within each role.
fn stream(keys: &[Vec<Key>], len: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let pairs: Vec<(usize, usize)> =
        keys.iter().enumerate().flat_map(|(r, k)| (0..k.len()).map(move |i| (r, i))).collect();
    let weights: Vec<f64> =
        keys.iter().flat_map(|k| harness::zipf_weights(k.len(), ZIPF_S)).collect();
    harness::exact_mix(&weights, len, rng).into_iter().map(|p| pairs[p]).collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(ctx.trace, epoch);
    let inputs = inputs(ctx.seed);

    // Generated query texts per role, from views derived outside set-up.
    let mut texts: Vec<Vec<String>> = Vec::new();
    for (role, r) in ROLES.iter().zip(&inputs) {
        let view = derive_view(&r.spec).map_err(|e| e.to_string())?;
        let mut rng = Rng::fork(UNIVERSE, &format!("churn-queries-{role}"));
        texts.push(crate::querygen::distinct_queries(&view, QUERIES_PER_ROLE, &mut rng)?);
    }

    // --- set-up: the one that serves, and more — between the timed
    // rounds, or before the traced pass — for the medians.
    let set_up_again = |tr: &mut Tracer| -> Result<(f64, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let served = prepare(&inputs, tr, &mut times)?;
        engines(&inputs, &served, tr, &mut times)?;
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
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let served = prepare(&inputs, &mut tr, &mut times)?;
    let engines = engines(&inputs, &served, &mut tr, &mut times)?;
    setup_s.push(t.elapsed().as_secs_f64());
    all_times.push(times);

    // --- correctness gate: every (role, query, approach) against the
    // materialized oracle. The naive baseline widens child steps and
    // checks only the result's annotation, so it can legitimately
    // disagree with the view semantics; such keys leave the stream.
    let mut keys: Vec<Vec<Key>> = Vec::new();
    let mut expected: Vec<Vec<usize>> = Vec::new();
    let mut naive_dropped = 0;
    for (r, role) in ROLES.iter().enumerate() {
        let (input, s) = (&inputs[r], &served[r]);
        let mut oracle = Oracle::new(&input.spec, &s.view);
        let (mut k, mut e) = (Vec::new(), Vec::new());
        for (qi, text) in texts[r].iter().enumerate() {
            let q = parse_xpath(text).map_err(|e| e.to_string())?;
            let want = oracle.answer(&input.doc, &q)?;
            let (name, approach) = APPROACHES[qi % APPROACHES.len()];
            let (nodes, _) = engines[r]
                .answer_report_policy(&input.doc, Some(&s.index), &q, approach, PlanPolicy::Auto)
                .map_err(|e| format!("{role} {text} ({name}): {e}"))?;
            if same_nodes(&nodes, &want) {
                k.push((qi, approach));
                e.push(nodes.len());
            } else if approach == Approach::Naive {
                naive_dropped += 1;
            } else {
                return Err(format!(
                    "{role} {text} ({name}): engine selects {} nodes, the oracle {}",
                    nodes.len(),
                    want.len()
                ));
            }
        }
        let mut order: Vec<usize> = (0..k.len()).collect();
        Rng::fork(UNIVERSE, &format!("churn-rank-{role}")).shuffle(&mut order);
        keys.push(order.iter().map(|&i| k[i]).collect());
        expected.push(order.iter().map(|&i| e[i]).collect());
    }
    report.note(format!(
        "gate: {} (role, query, approach) answers equal the materialized oracle; {naive_dropped} naive ones disagree and are left out",
        keys.iter().map(Vec::len).sum::<usize>()
    ));
    // One caller, as on engine-scan: on a 2-core host concurrent callers
    // made the miss path's latency depend on the other caller.
    report.note(format!(
        "loop=closed threads=1 policy=auto docs={:?} nodes distinct queries={:?} keys per engine={:?} (plan cache 64/engine) zipf_s={ZIPF_S}",
        inputs.iter().map(|r| r.doc.len()).collect::<Vec<_>>(),
        texts.iter().map(Vec::len).collect::<Vec<_>>(),
        keys.iter().map(Vec::len).collect::<Vec<_>>(),
    ));
    // `Ok(None)` is an `Err` from the program (counted as failed); a
    // wrong node count fails the run.
    let request = |role: usize,
                   rank: usize,
                   tr: &mut Tracer,
                   id: u64|
     -> Result<Option<(usize, sxv_core::QueryReport)>, String> {
        let (qi, approach) = keys[role][rank];
        let text = &texts[role][qi];
        let Ok(q) = tr.span("xpath.parse", id, |_| parse_xpath(text)) else {
            return Ok(None);
        };
        let (input, s) = (&inputs[role], &served[role]);
        let answered = tr.span("engine.answer", id, |_| {
            engines[role].answer_report_policy(
                &input.doc,
                Some(&s.index),
                &q,
                approach,
                PlanPolicy::Auto,
            )
        });
        let Ok((nodes, rep)) = answered else {
            return Ok(None);
        };
        if nodes.len() != expected[role][rank] {
            return Err(format!(
                "{} {text} ({}): {} nodes, expected {}",
                ROLES[role],
                approach_name(approach),
                nodes.len(),
                expected[role][rank]
            ));
        }
        Ok(Some((nodes.len(), rep)))
    };
    let stats_before: Vec<_> =
        engines.iter().map(|e| (e.cache_stats(), e.access_stats())).collect();

    if !ctx.trace {
        let sequence = stream(&keys, SEQUENCE, &mut Rng::fork(ctx.seed, "churn-requests"));
        let mut off = Tracer::new(false, epoch);
        let rounds = harness::replay_rounds(
            ctx.seconds,
            sequence.len(),
            |i| {
                let (role, rank) = sequence[i];
                Ok(match request(role, rank, &mut off, 0)? {
                    Some(_) => Outcome::Correct,
                    None => Outcome::Failed,
                })
            },
            || {
                for _ in 0..SETUPS_BETWEEN_ROUNDS {
                    setup_s.push(set_up_again(&mut Tracer::new(false, epoch))?.0);
                }
                Ok(())
            },
        )?;
        report.note(format!(
            "plan_hit_rate={:.3}",
            CacheDelta::since(&engines, &stats_before).hit_rate()
        ));
        report.set_summary(&Summary::new(rounds)?, &setup_s);
        return Ok(report);
    }

    // --- traced: one thread, a fixed seeded request sequence. Each miss
    // is replayed through the public translation pipeline, outside the
    // request's span, to time its stages.
    let sequence = stream(&keys, TRACED_REQUESTS, &mut Rng::fork(ctx.seed, "churn-trace"));
    let mut off = Tracer::new(false, epoch);
    let t0 = Instant::now();
    for &(role, rank) in &sequence {
        request(role, rank, &mut off, 0)?;
    }
    let untraced = t0.elapsed().as_secs_f64();
    let stats_before: Vec<_> =
        engines.iter().map(|e| (e.cache_stats(), e.access_stats())).collect();
    let costs: Vec<_> = inputs.iter().map(|r| dtd_cost_model(r.spec.dtd(), true)).collect();
    let certctxs: Vec<_> =
        inputs.iter().zip(&served).map(|(r, s)| certify_context(&r.spec, &s.view)).collect();
    let traced_start = tr.spans().len();
    let mut eval = EvalStats::default();
    let mut answers = 0u64;
    let mut missed = Vec::new();
    for (i, &(role, rank)) in sequence.iter().enumerate() {
        let Some((n, rep)) =
            tr.span("request", i as u64, |tr| request(role, rank, tr, i as u64))?
        else {
            report.failed += 1;
            continue;
        };
        eval.absorb(rep.eval);
        answers += n as u64;
        if !rep.cache_hit {
            missed.push(i);
        }
    }
    let traced: f64 = tr.durations("request", traced_start).iter().sum();
    // Every miss once more through the public translation pipeline, to
    // time its stages.
    for &i in &missed {
        let id = i as u64;
        let (role, rank) = sequence[i];
        let (qi, approach) = keys[role][rank];
        let q = simplify(&parse_xpath(&texts[role][qi]).map_err(|e| e.to_string())?);
        let (spec, view) = (&inputs[role].spec, &served[role].view);
        let translated = match approach {
            Approach::Annotate => q,
            Approach::Naive => NaiveBaseline::rewrite(&q),
            Approach::Rewrite | Approach::Optimize => {
                let rewritten = tr
                    .span("core.rewrite", id, |_| rewrite(view, &q))
                    .map_err(|e| e.to_string())?;
                if approach == Approach::Optimize {
                    tr.span("core.optimize", id, |_| optimize(spec.dtd(), &rewritten))
                        .map_err(|e| e.to_string())?
                } else {
                    rewritten
                }
            }
        };
        let plan = tr.span("xpath.compile", id, |_| {
            if approach == Approach::Annotate {
                compile_annotate(&translated, PlanPolicy::Auto, &costs[role])
            } else {
                compile(&translated, PlanPolicy::Auto, &costs[role])
            }
        });
        std::hint::black_box(tr.span("xpath.certify", id, |_| certify(&plan, &certctxs[role])));
    }
    report.attempted = sequence.len() as u64;
    for (role, t) in ROLES.iter().zip(&texts) {
        report.set(format!("churn.distinct_queries.{role}"), t.len() as f64);
    }
    let of = |name: &str| Latencies::new(tr.durations(name, traced_start));
    report.set("trace.overhead_share", traced / 1e6 / untraced - 1.0);
    let answer = of("engine.answer");
    report.set("engine.answer_p50_us", answer.p(50.0));
    report.set("engine.answer_p99_us", answer.p(99.0));
    report.set("xpath.parse_us", of("xpath.parse").mean());
    report.set("core.rewrite_us", of("core.rewrite").mean());
    report.set("core.optimize_us", of("core.optimize").mean());
    report.set("xpath.compile_us", of("xpath.compile").mean());
    report.set("xpath.certify_us", of("xpath.certify").mean());
    report.set_engine_stats(&engines, &stats_before);
    report.set_eval_counts(&eval, answers);
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        harness::median(&all_times.iter().map(f).collect::<Vec<_>>())
    };
    report.set("xml.index_ms", med(&|t| t.index) / 1e3);
    report.set("core.access_build_ms", med(&|t| t.access) / 1e3);
    report.set(
        "core.derive_us",
        harness::median(&all_times.iter().flat_map(|t| t.derive.clone()).collect::<Vec<_>>()),
    );
    let t = Instant::now();
    for r in &inputs {
        std::hint::black_box(
            tr.span("core.naive_annotate", 0, |_| NaiveBaseline::annotate(&r.spec, &r.doc)),
        );
    }
    report.set("core.naive_annotate_ms", t.elapsed().as_secs_f64() * 1e3);
    report.set_self_times(&tr);
    Ok(report)
}
