//! Per-tenant observability for the serve daemon.
//!
//! Every `(role, doc)` tenant gets a [`TenantStats`]: lock-free request
//! counters plus a small mutex-guarded ring of recent latencies from
//! which `/stats` computes p50/p95/p99. The ring keeps the daemon's
//! memory bounded no matter how long it runs; percentiles describe the
//! recent window, counters describe the whole lifetime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many recent latency samples back the percentile estimates.
const LATENCY_WINDOW: usize = 4096;

/// Counters and recent latencies for one `(role, doc)` tenant.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Requests admitted for this tenant (every outcome below).
    pub requests: AtomicU64,
    /// Requests answered successfully (HTTP 200).
    pub ok: AtomicU64,
    /// Requests that failed or panicked in the engine (HTTP 400/403/500).
    pub errors: AtomicU64,
    /// Requests shed at admission: the waiting line was full (HTTP 503).
    pub rejected: AtomicU64,
    /// Requests whose deadline expired before they got a slot (504).
    pub timed_out: AtomicU64,
    /// Translation-plan cache hits observed on this tenant's answers.
    pub plan_hits: AtomicU64,
    /// Translation-plan cache misses observed on this tenant's answers.
    pub plan_misses: AtomicU64,
    /// Fused-scan operators executed across this tenant's answered
    /// queries (how much of the workload runs on the streaming path).
    pub fused_ops: AtomicU64,
    ring: Mutex<LatencyRing>,
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples_us: Vec<u64>,
    next: usize,
}

/// A percentile summary over the recent latency window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples currently in the window.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Maximum latency in the window, microseconds.
    pub max_us: u64,
}

impl TenantStats {
    /// Record one completed (200) request, its latency, and how many
    /// fused-scan operators its plan executed.
    pub fn record_ok(&self, latency_us: u64, plan_cache_hit: bool, fused_ops: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.ok.fetch_add(1, Ordering::Relaxed);
        if plan_cache_hit {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.fused_ops.fetch_add(fused_ops, Ordering::Relaxed);
        self.push_latency(latency_us);
    }

    /// Record one request that failed in the engine or parser.
    pub fn record_error(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request shed at admission (waiting line full).
    pub fn record_rejected(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request whose deadline expired before execution.
    pub fn record_timed_out(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    fn push_latency(&self, latency_us: u64) {
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if ring.samples_us.len() < LATENCY_WINDOW {
            ring.samples_us.push(latency_us);
        } else {
            let slot = ring.next;
            ring.samples_us[slot] = latency_us;
        }
        ring.next = (ring.next + 1) % LATENCY_WINDOW;
    }

    /// Percentiles over the recent window.
    pub fn latency_summary(&self) -> LatencySummary {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let mut sorted = ring.samples_us.clone();
        drop(ring);
        if sorted.is_empty() {
            return LatencySummary::default();
        }
        sorted.sort_unstable();
        let pick = |p: f64| {
            let idx = ((sorted.len() as f64) * p).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        LatencySummary {
            count: sorted.len(),
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: sorted.last().copied().unwrap_or_default(),
        }
    }

    /// Plan-cache hit rate observed on this tenant's answered requests.
    pub fn plan_hit_rate(&self) -> f64 {
        let hits = self.plan_hits.load(Ordering::Relaxed);
        let total = hits + self.plan_misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Elapsed time since `start`, saturated into whole microseconds.
pub fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_outcomes() {
        let t = TenantStats::default();
        t.record_ok(100, true, 2);
        t.record_ok(300, false, 1);
        t.record_error();
        t.record_rejected();
        t.record_timed_out();
        assert_eq!(t.requests.load(Ordering::Relaxed), 5);
        assert_eq!(t.ok.load(Ordering::Relaxed), 2);
        assert_eq!(t.fused_ops.load(Ordering::Relaxed), 3);
        assert_eq!(t.errors.load(Ordering::Relaxed), 1);
        assert_eq!(t.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(t.timed_out.load(Ordering::Relaxed), 1);
        assert!((t.plan_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let t = TenantStats::default();
        for us in 1..=100u64 {
            t.record_ok(us, true, 0);
        }
        let s = t.latency_summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn ring_is_bounded_and_keeps_recent_samples() {
        let t = TenantStats::default();
        // Overfill the window with slow samples, then refill with fast
        // ones; the summary must reflect the recent (fast) window.
        for _ in 0..LATENCY_WINDOW {
            t.record_ok(1_000_000, true, 0);
        }
        for _ in 0..LATENCY_WINDOW {
            t.record_ok(10, true, 0);
        }
        let s = t.latency_summary();
        assert_eq!(s.count, LATENCY_WINDOW);
        assert_eq!(s.max_us, 10);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(TenantStats::default().latency_summary(), LatencySummary::default());
    }
}
