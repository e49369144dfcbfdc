//! Regenerate Table 1 of the paper: evaluation time of the naive /
//! rewrite / optimize approaches for queries Q1–Q4 over datasets D1–D4
//! generated from the Adex DTD. Times are reported in microseconds with
//! adaptive repetition counts (fast cells repeat until ≥ 20 ms of wall
//! time), so sub-millisecond evaluations no longer print as `0.00`.
//!
//! ```text
//! cargo run -p sxv-bench --bin table1 --release [-- --quick] [--json FILE]
//! ```
//!
//! `--quick` runs smaller datasets (for smoke-testing the harness);
//! `--json FILE` writes a machine-readable artifact (default
//! `BENCH_table1.json` — only when the flag is present).
//! Answers are cross-checked between the approaches before timing.
//!
//! The naive, rewrite and optimize columns all time the unindexed
//! reference interpreter, as the paper's single-engine setup does; the
//! `N-Idx` column times the naive query as a compiled `Auto` plan over a
//! structural index (compiled per call, like an uncached engine).

use std::fmt::Write as _;
use std::time::Instant;
use sxv_bench::{json_escape, time_us, AdexWorkload, Timing, DATASETS};
use sxv_core::Approach;
use sxv_xml::DocIndex;
use sxv_xpath::PlanPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "BENCH_table1.json".to_string()));
    let datasets: Vec<(&str, usize)> =
        if quick { vec![("D1", 12), ("D2", 20)] } else { DATASETS.to_vec() };

    let workload = AdexWorkload::new();
    println!("Security view DTD exposed to the user:");
    for line in workload.view.view_dtd_to_string().lines() {
        println!("    {line}");
    }
    println!();
    println!("Translated queries:");
    for q in &workload.queries {
        println!("  {}: {}", q.name, q.view_query);
        println!("      naive    = {}", q.naive);
        println!("      rewrite  = {}", q.rewritten);
        println!("      optimize = {}", q.optimized);
    }
    println!();

    // Generate all datasets up front (the paper's documents are fixed
    // inputs, not part of the measured time).
    let mut docs = Vec::new();
    for &(name, branch) in &datasets {
        let start = Instant::now();
        let (doc, annotated) = workload.dataset(branch, 0xADE0 + branch as u64);
        println!(
            "{name}: max_branch={branch}, {} nodes ({} elements), ~{:.1} MB serialized, generated in {:.1?}",
            doc.len(),
            doc.element_count(),
            sxv_xml::to_string(&doc).len() as f64 / 1e6,
            start.elapsed()
        );
        docs.push((name, doc, annotated));
    }
    println!();

    // Correctness cross-check (on the smallest dataset to keep it cheap).
    {
        let (_, doc, annotated) = &docs[0];
        for q in &workload.queries {
            let naive = workload.run(q, Approach::Naive, annotated);
            let rewritten = workload.run(q, Approach::Rewrite, doc);
            let optimized = workload.run(q, Approach::Optimize, doc);
            assert_eq!(rewritten, optimized, "{} answers disagree", q.name);
            assert_eq!(naive, rewritten, "{} answers disagree", q.name);
        }
        println!("answer cross-check: naive = rewrite = optimize on {}", docs[0].0);
        println!();
    }

    // Structural indexes of the annotated copies for the indexed-naive
    // column (built once per dataset; not part of the measured query
    // time, like the paper's offline view-derivation step) — the
    // `//`-widened, qualifier-heavy naive queries are where interval
    // slices pay off most.
    let naive_indexes: Vec<DocIndex> = docs
        .iter()
        .map(|(_, _, annotated)| {
            DocIndex::new(annotated).expect("annotation preserves document order")
        })
        .collect();

    println!(
        "{:<6} {:<9} {:>12} {:>12} {:>12} {:>12} {:>8} \
         {:>11} {:>11} {:>11} {:>9} {:>10}",
        "Query",
        "Data Set",
        "Naive(us)",
        "N-Idx(us)",
        "Rewrite(us)",
        "Opt(us)",
        "N/R",
        "N-touched",
        "NIdx-touch",
        "R-touched",
        "Q-checks",
        "Idx-probes"
    );
    println!("(each cell is the median of adaptively many repetitions; see Reps lines)");
    let mut json_rows: Vec<String> = Vec::new();
    for q in &workload.queries {
        for ((name, doc, annotated), naive_index) in docs.iter().zip(&naive_indexes) {
            let indexed_naive = || {
                workload.run_policy(
                    q,
                    Approach::Naive,
                    annotated,
                    Some(naive_index),
                    PlanPolicy::Auto,
                )
            };
            let naive_t = time_us(|| workload.run(q, Approach::Naive, annotated));
            let naive_idx_t = time_us(indexed_naive);
            let rewrite_t = time_us(|| workload.run(q, Approach::Rewrite, doc));
            let optimize_t = time_us(|| workload.run(q, Approach::Optimize, doc));
            // Machine-independent work counters: how many nodes each
            // strategy actually touches, independent of the host's clock.
            let (naive_ans, naive_stats) =
                workload.run_counted(q, Approach::Naive, annotated, None);
            let (naive_idx_ans, naive_idx_stats, _) = indexed_naive();
            assert_eq!(naive_ans, naive_idx_ans, "{}: indexed naive disagrees", q.name);
            let (_, rewrite_stats) = workload.run_counted(q, Approach::Rewrite, doc, None);
            // The paper prints "-" where optimize cannot improve on
            // rewrite (Q1/Q2: identical translated queries).
            let same = q.optimized == q.rewritten;
            let opt_cell =
                if same { "-".to_string() } else { format!("{:.1}", optimize_t.median_us) };
            let n_over_r = naive_t.median_us / rewrite_t.median_us.max(1e-9);
            println!(
                "{:<6} {:<9} {:>12.1} {:>12.1} {:>12.1} {:>12} {:>7.0}x \
                 {:>11} {:>11} {:>11} {:>9} {:>10}",
                q.name,
                name,
                naive_t.median_us,
                naive_idx_t.median_us,
                rewrite_t.median_us,
                opt_cell,
                n_over_r,
                naive_stats.nodes_touched,
                naive_idx_stats.nodes_touched,
                rewrite_stats.nodes_touched,
                naive_stats.qualifier_checks,
                naive_idx_stats.interval_probes + naive_idx_stats.index_lookups
            );
            println!(
                "{:<6} {:<9} {:>12} {:>12} {:>12} {:>12}",
                "",
                "  Reps",
                naive_t.reps,
                naive_idx_t.reps,
                rewrite_t.reps,
                if same { 0 } else { optimize_t.reps }
            );
            if json_path.is_some() {
                json_rows.push(table1_json_row(
                    q.name,
                    name,
                    naive_ans.len(),
                    [
                        ("naive", naive_t),
                        ("naive_indexed", naive_idx_t),
                        ("rewrite", rewrite_t),
                        ("optimize", optimize_t),
                    ],
                    naive_stats.nodes_touched,
                    rewrite_stats.nodes_touched,
                ));
            }
        }
    }

    if let Some(path) = json_path {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"table1\",");
        let _ = writeln!(out, "  \"quick\": {quick},");
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in json_rows.iter().enumerate() {
            let comma = if i + 1 < json_rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {row}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        std::fs::write(&path, out).expect("write JSON artifact");
        println!();
        println!("wrote {path}");
    }
}

/// One table-1 cell group as a JSON object line.
fn table1_json_row(
    query: &str,
    dataset: &str,
    result_count: usize,
    timings: [(&str, Timing); 4],
    naive_touched: u64,
    rewrite_touched: u64,
) -> String {
    let mut s = format!(
        "{{\"query\": \"{}\", \"dataset\": \"{}\", \"result_count\": {result_count}",
        json_escape(query),
        json_escape(dataset)
    );
    for (label, t) in timings {
        let _ = write!(s, ", \"{label}_us\": {:.3}, \"{label}_reps\": {}", t.median_us, t.reps);
    }
    let _ = write!(
        s,
        ", \"naive_nodes_touched\": {naive_touched}, \"rewrite_nodes_touched\": {rewrite_touched}}}"
    );
    s
}
