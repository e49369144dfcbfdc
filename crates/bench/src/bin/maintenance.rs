//! Virtual vs materialized security views under a query/update mix —
//! the ablation behind the paper's §4 motivation: "it is expensive to
//! actually materialize and maintain multiple security views of a large
//! XML document".
//!
//! ```text
//! cargo run -p sxv-bench --bin maintenance --release
//! ```
//!
//! Workload: `N` operations over the hospital document, an `u` fraction of
//! which are document updates (invalidating materialized views); the rest
//! are queries. Both engines answer the same queries; the virtual engine
//! (rewrite + optimize) never materializes, the baseline re-materializes
//! one view per registered user group after every update.

use std::time::Instant;
use sxv_bench::HospitalWorkload;
use sxv_core::{Approach, MaterializedBaseline, PlanPolicy, SecureEngine};
use sxv_xpath::parse;

fn main() {
    let w = HospitalWorkload::new();
    let doc = w.document(20, 9);
    println!("document: {} nodes; policy: Example 3.1 nurse view\n", doc.len());
    let queries: Vec<_> =
        ["//patient/name", "//bill", "dept/patientInfo/patient[wardNo='6']", "//medication"]
            .iter()
            .map(|q| parse(q).expect("query parses"))
            .collect();

    let engine = SecureEngine::new(&w.spec, &w.view);
    let answer =
        |q| engine.answer_report_policy(&doc, None, q, Approach::Optimize, PlanPolicy::ForceWalk);
    const OPS: usize = 400;
    println!(
        "{:<14} {:>6} {:>14} {:>16} {:>10}",
        "update ratio", "groups", "virtual (ms)", "materialized(ms)", "rebuilds"
    );
    for &update_every in &[0usize, 100, 20, 5] {
        for &groups in &[1usize, 4] {
            // Virtual engine: updates are free (nothing cached).
            let start = Instant::now();
            for i in 0..OPS {
                if update_every != 0 && i % update_every == 0 && i > 0 {
                    continue; // an update: no work for the virtual engine
                }
                let q = &queries[i % queries.len()];
                std::hint::black_box(answer(q).expect("answers"));
            }
            let virtual_ms = start.elapsed().as_secs_f64() * 1e3;

            // Materialized baseline: one cached view per user group, all
            // invalidated by every update.
            let mut baselines: Vec<MaterializedBaseline> =
                (0..groups).map(|_| MaterializedBaseline::new(&w.spec, &w.view)).collect();
            let start = Instant::now();
            for i in 0..OPS {
                if update_every != 0 && i % update_every == 0 && i > 0 {
                    for b in &mut baselines {
                        b.invalidate();
                    }
                    continue;
                }
                let q = &queries[i % queries.len()];
                let b = &mut baselines[i % groups];
                std::hint::black_box(b.answer(&doc, q).expect("answers"));
            }
            let materialized_ms = start.elapsed().as_secs_f64() * 1e3;
            let rebuilds: usize = baselines.iter().map(|b| b.rebuild_count()).sum();
            let ratio = if update_every == 0 { 0.0 } else { 1.0 / update_every as f64 };
            println!(
                "{:<14.3} {:>6} {:>14.1} {:>16.1} {:>10}",
                ratio, groups, virtual_ms, materialized_ms, rebuilds
            );
        }
    }
    println!(
        "\nreading: with zero updates the materialized strategy amortizes its one \
         build;\nas the update rate and the number of user groups grow, \
         re-materialization dominates\nwhile the virtual engine's cost is flat — \
         the paper's argument for rewriting."
    );
}
