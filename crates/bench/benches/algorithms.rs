//! Algorithm-level benches backing the paper's complexity claims and the
//! design choices called out in DESIGN.md:
//!
//! * `derive` scaling (Theorem 3.2: quadratic in |D|) over a growing
//!   diamond-chain DTD family;
//! * `rewrite` scaling in |p| (Theorem 4.1: `O(|p|·|D_v|²)`) and in |D_v|;
//! * `recProc` factored-output cost on deep diamond DAGs (the symbolic
//!   `Z_x` sharing — without it these would be exponential);
//! * `optimize` translation cost, and end-to-end query answering with and
//!   without optimization on the hospital workload;
//! * compiled `Auto` plans over the structural index (`DocIndex`) vs. the
//!   unindexed reference interpreter's subtree scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sxv_bench::{diamond_dtd, HospitalWorkload};
use sxv_core::{derive_view, optimize, rewrite, AccessSpec};
use sxv_xpath::{compile, eval_at_root, parse, CostModel, PlanPolicy};

fn bench_derive(c: &mut Criterion) {
    let mut group = c.benchmark_group("derive");
    for n in [8usize, 16, 32, 64] {
        let dtd = diamond_dtd(n);
        // Deny every a_i, so derive must short-cut through half the graph.
        let mut builder = AccessSpec::builder(&dtd);
        for i in 1..=n {
            let parent = format!("s{i}");
            let child = format!("a{i}");
            builder = builder.deny(&parent, &child);
            let next = if i == n { "leaf".to_string() } else { format!("s{}", i + 1) };
            builder = builder.allow(&child, &next);
        }
        let spec = builder.build().expect("valid spec");
        group.bench_with_input(BenchmarkId::new("diamond", n), &n, |b, _| {
            b.iter(|| black_box(derive_view(&spec).unwrap()))
        });
    }
    group.finish();
}

fn bench_rewrite_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite");
    // Scaling in |D_v| with a fixed query.
    for n in [8usize, 16, 32, 64] {
        let dtd = diamond_dtd(n);
        let spec = AccessSpec::builder(&dtd).build().expect("empty spec");
        let view = derive_view(&spec).unwrap();
        let p = parse("//leaf").unwrap();
        group.bench_with_input(BenchmarkId::new("view-size", n), &n, |b, _| {
            b.iter(|| black_box(rewrite(&view, &p).unwrap()))
        });
    }
    // Scaling in |p| over the hospital view: widen the query with extra
    // union arms and qualifiers.
    let hospital = HospitalWorkload::new();
    for arms in [1usize, 2, 4, 8] {
        let q = (0..arms)
            .map(|i| {
                if i % 2 == 0 {
                    "//patient[name and wardNo]//bill".to_string()
                } else {
                    "//dept//patientInfo/patient/name".to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" | ");
        let p = parse(&q).expect("generated query parses");
        group.bench_with_input(BenchmarkId::new("query-size", p.size()), &arms, |b, _| {
            b.iter(|| black_box(rewrite(&hospital.view, &p).unwrap()))
        });
    }
    group.finish();
}

fn bench_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    let hospital = HospitalWorkload::new();
    let doc = hospital.document(14, 11);
    // Translation cost.
    let q3_like = parse("//patient[name and wardNo]/name").unwrap();
    let rewritten = rewrite(&hospital.view, &q3_like).unwrap();
    group.bench_function("translate", |b| {
        b.iter(|| black_box(optimize(hospital.spec.dtd(), &rewritten).unwrap()))
    });
    // Ablation: evaluation with vs without the optimization pass (the
    // co-existence constraint drops the [name and wardNo] qualifier).
    let optimized = optimize(hospital.spec.dtd(), &rewritten).unwrap();
    group
        .bench_function("eval-rewritten", |b| b.iter(|| black_box(eval_at_root(&doc, &rewritten))));
    group
        .bench_function("eval-optimized", |b| b.iter(|| black_box(eval_at_root(&doc, &optimized))));
    group.finish();
}

fn bench_indexed_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexed-eval");
    let hospital = HospitalWorkload::new();
    let doc = hospital.document(22, 13);
    let index = sxv_xml::DocIndex::new(&doc).expect("generated docs are in document order");
    let cost = CostModel::from_index(&index);
    for (name, q) in [
        ("selective", "//medication"),
        ("mid", "//patient[wardNo='6']/name"),
        ("broad", "//name | //bill"),
    ] {
        let p = parse(q).unwrap();
        group.bench_function(format!("scan/{name}"), |b| {
            b.iter(|| black_box(eval_at_root(&doc, &p)))
        });
        // Compiled once, as the engine's plan cache would: only
        // execution is timed.
        let plan = compile(&p, PlanPolicy::Auto, &cost);
        group.bench_function(format!("indexed/{name}"), |b| {
            b.iter(|| black_box(plan.execute(&doc, Some(&index))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_derive, bench_rewrite_scaling, bench_optimize, bench_indexed_eval);
criterion_main!(benches);
