//! The benchmark's metrics: the declared end-to-end and per-layer lists,
//! the values a workload measured, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sxv_core::{AccessCacheStats, CacheStats, SecureEngine};
use sxv_xpath::EvalStats;

use crate::harness::{self, Summary};
use crate::trace;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("throughput_qps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Spans whose self time the traced run reports as `self_ms.<span>`.
pub const SPANS: [&str; 19] = [
    "request",
    "serve.request",
    "serve.replay",
    "serve.boot",
    "pack.load",
    "xpath.parse",
    "engine.answer",
    "xpath.execute",
    "core.rewrite",
    "core.optimize",
    "xpath.compile",
    "xpath.certify",
    "xml.format",
    "xml.parse",
    "xml.index",
    "core.derive",
    "core.access_build",
    "core.naive_annotate",
    "warmup",
];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer
/// that does no work on a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("serve.server_p50_us", "us"),
        ("serve.server_p99_us", "us"),
        ("serve.wire_p50_us", "us"),
        ("serve.wire_p99_us", "us"),
        ("serve.handoff_p50_us", "us"),
        ("serve.boot_ms", "ms"),
        ("serve.shed_share", "ratio"),
        ("serve.timeout_share", "ratio"),
        ("serve.response_bytes", "bytes"),
        ("xpath.parse_us", "us"),
        ("engine.answer_p50_us", "us"),
        ("engine.answer_p99_us", "us"),
        ("engine.plan_hit_rate", "ratio"),
        ("engine.plans_compiled", "count"),
        ("engine.plans_recompiled", "count"),
        ("engine.plan_entries", "count"),
        ("engine.plan_evictions", "count"),
        ("engine.certify_us_per_plan", "us"),
        ("engine.access_builds", "count"),
        ("engine.access_hits", "count"),
        ("core.rewrite_us", "us"),
        ("core.optimize_us", "us"),
        ("core.derive_us", "us"),
        ("core.access_build_ms", "ms"),
        ("core.naive_annotate_ms", "ms"),
        ("core.access_bytes_per_node", "bytes"),
        ("xpath.compile_us", "us"),
        ("xpath.certify_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for cell in crate::engine_scan::cell_names() {
        out.push((format!("xpath.execute_p50_us.{cell}"), "us"));
    }
    for (n, u) in [
        ("xpath.nodes_touched", "count"),
        ("xpath.qualifier_checks", "count"),
        ("xpath.index_lookups", "count"),
        ("xpath.merge_steps", "count"),
        ("xpath.interval_probes", "count"),
        ("xpath.touched_per_answer", "ratio"),
        ("xml.parse_ms", "ms"),
        ("xml.index_ms", "ms"),
        ("xml.format_us", "us"),
        ("pack.load_ms", "ms"),
        ("pack.bytes_per_node", "bytes"),
        ("churn.distinct_queries.adex", "count"),
        ("churn.distinct_queries.hospital", "count"),
        ("churn.distinct_queries.bom", "count"),
        ("trace.overhead_share", "ratio"),
        ("trace.spans", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for span in SPANS {
        out.push((format!("self_ms.{span}"), "ms"));
    }
    out
}

/// What a workload hands back: counts, metric values by name, and the
/// lines describing the run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record an untraced run's timed phase and set-ups as the end-to-end
    /// metrics.
    pub fn set_summary(&mut self, sum: &Summary, setup_s: &[f64]) {
        self.attempted = sum.attempted;
        self.failed = sum.failed;
        self.note(sum.describe());
        self.set("p50_us", sum.p50_us);
        self.set("p99_us", sum.p99_us);
        self.set("throughput_qps", sum.per_second);
        self.set("setup_s", harness::median(setup_s));
        self.set("peak_rss_mb", sum.peak_rss_mb);
    }

    /// Record the per-span self times a traced run collected.
    pub fn set_self_times(&mut self, tracer: &trace::Tracer) {
        for (name, (_, micros)) in tracer.self_times() {
            self.set(format!("self_ms.{name}"), micros / 1e3);
        }
        self.set("trace.spans", tracer.spans().len() as f64);
    }

    /// The executor's work counters summed over a run.
    pub fn set_eval_counts(&mut self, eval: &EvalStats, answers: u64) {
        self.set("xpath.nodes_touched", eval.nodes_touched as f64);
        self.set("xpath.qualifier_checks", eval.qualifier_checks as f64);
        self.set("xpath.index_lookups", eval.index_lookups as f64);
        self.set("xpath.merge_steps", eval.merge_steps as f64);
        self.set("xpath.interval_probes", eval.interval_probes as f64);
        self.set("xpath.touched_per_answer", eval.nodes_touched as f64 / answers.max(1) as f64);
    }

    /// Plan- and access-cache counters since `before`, summed over the
    /// engines.
    pub fn set_engine_stats(
        &mut self,
        engines: &[SecureEngine<'_>],
        before: &[(CacheStats, AccessCacheStats)],
    ) {
        self.set_cache_delta(&CacheDelta::since(engines, before));
    }

    pub fn set_cache_delta(&mut self, d: &CacheDelta) {
        self.set("engine.plan_hit_rate", d.hit_rate());
        self.set("engine.plans_compiled", d.compiled as f64);
        self.set("engine.plans_recompiled", d.recompiled as f64);
        self.set("engine.plan_entries", d.entries as f64);
        // Every miss inserts an entry; whatever did not grow the cache
        // replaced one.
        self.set(
            "engine.plan_evictions",
            d.misses as f64 - (d.entries as f64 - d.entries_before as f64),
        );
        self.set("engine.certify_us_per_plan", d.certify_us as f64 / d.certified.max(1) as f64);
        self.set("engine.access_builds", d.access_builds as f64);
        self.set("engine.access_hits", d.access_hits as f64);
    }
}

/// Engine cache counters over a phase: deltas, except `entries` (now and
/// before) and the certification totals (since the engines were built).
#[derive(Default)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub compiled: u64,
    pub recompiled: u64,
    pub entries: usize,
    pub entries_before: usize,
    pub certified: u64,
    pub certify_us: u64,
    pub access_builds: u64,
    pub access_hits: u64,
}

impl CacheDelta {
    /// Counters of `engines` since `before` was read.
    pub fn since(engines: &[SecureEngine<'_>], before: &[(CacheStats, AccessCacheStats)]) -> Self {
        let mut d = CacheDelta::default();
        for (e, (c0, a0)) in engines.iter().zip(before) {
            d.add(&e.cache_stats(), c0, &e.access_stats(), a0);
        }
        d
    }

    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    pub fn add(
        &mut self,
        c: &CacheStats,
        c0: &CacheStats,
        a: &AccessCacheStats,
        a0: &AccessCacheStats,
    ) {
        self.hits += c.hits - c0.hits;
        self.misses += c.misses - c0.misses;
        self.compiled += c.plans_compiled - c0.plans_compiled;
        self.recompiled += c.plans_recompiled - c0.plans_recompiled;
        self.entries += c.entries;
        self.entries_before += c0.entries;
        self.certified += c.plans_certified;
        self.certify_us += c.certify_micros;
        self.access_builds += a.builds - a0.builds;
        self.access_hits += a.hits - a0.hits;
    }
}

/// Render the result line, checking the metric set against the declared
/// list so a run never prints an undeclared or missing metric.
pub fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if let Some(extra) = report.metrics.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!("workload reported undeclared metric {extra:?}"));
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = sxv_serve::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(sxv_serve::json::Json::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn result_line_rejects_undeclared_metrics() {
        let mut r = Report::default();
        r.set("nonsense", 1.0);
        assert!(result_line(&r, true).is_err());
        let mut r = Report { attempted: 3, ..Report::default() };
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        let line = result_line(&r, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
