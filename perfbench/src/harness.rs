//! Harness primitives shared by every workload: the seeded generator,
//! Zipf weights, exact request mixes, the replayed closed loop,
//! percentiles and process memory. Nothing here touches the program
//! under test.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this seed and a label, so each
    /// input (document, query stream, request order) has its own sequence.
    pub fn fork(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf popularity over `n` ranks, summing to 1: rank k weighs
/// ∝ 1/(k+1)^s.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding a whole
/// rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` (`0 < p ≤ 100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| beyond(n, p) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency samples summarised the way the benchmark reports them.
pub struct Latencies {
    pub sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// p99 with its support checked: a run too short to put ten samples
    /// beyond the 99th percentile reports nothing rather than noise.
    pub fn p99_checked(&self) -> Result<f64, String> {
        if beyond(self.sorted.len(), 99.0) < 10 {
            return Err(format!(
                "{} samples cannot support p99 (needs 10 beyond it)",
                self.sorted.len()
            ));
        }
        Ok(self.p(99.0))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// What one request of a closed loop came to.
pub enum Outcome {
    /// A correct answer.
    Correct,
    /// Refused or failed (a non-200 status, an `Err`): counted in
    /// `failed` and `error_share`.
    Failed,
}

/// The timed phase of a closed loop that replays one request sequence.
pub struct Rounds {
    /// Fastest correct latency of each position of the sequence, in µs;
    /// `None` where every timed attempt failed.
    pub best_us: Vec<Option<f64>>,
    /// Latency of every correct timed request, in µs.
    pub pooled_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Timed requests over the sequence length.
    pub rounds: f64,
    /// Time spent in timed requests, in seconds.
    pub wall_s: f64,
    /// Peak resident set (MB) once the first timed round is done: the
    /// serving state at its largest, before any set-up between rounds.
    pub peak_rss_mb: f64,
}

/// One caller asking `request(i)` for every position `i` of a sequence
/// of `len` requests, round after round: one untimed round first, then
/// timed rounds, each on the next CPU (see [`init_cpus`]), until
/// `seconds` of timed requests have passed and at least one timed round
/// is complete. `between` runs after every timed round but the last, so
/// work the run repeats (its set-ups) meets the same stretch of host time
/// as the requests; it is not timed here. Each call is timed on its own;
/// a wrong answer (`Err`) ends the run.
pub fn replay_rounds(
    seconds: f64,
    len: usize,
    mut request: impl FnMut(usize) -> Result<Outcome, String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Rounds, String> {
    assert!(len > 0, "an empty request sequence");
    for i in 0..len {
        request(i)?;
    }
    let mut r = Rounds {
        best_us: vec![None; len],
        pooled_us: Vec::new(),
        attempted: 0,
        failed: 0,
        rounds: 0.0,
        wall_s: 0.0,
        peak_rss_mb: 0.0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut done = 0;
    while done < len || spent < budget {
        let i = done % len;
        if i == 0 {
            if done == len {
                r.peak_rss_mb = peak_rss_mb();
            }
            if done > 0 {
                between()?;
            }
            rotate_cpu(done / len);
        }
        let t0 = Instant::now();
        let outcome = request(i)?;
        let took = t0.elapsed();
        spent += took;
        let us = took.as_secs_f64() * 1e6;
        match outcome {
            Outcome::Correct => {
                r.pooled_us.push(us);
                r.best_us[i] = Some(r.best_us[i].map_or(us, |b| b.min(us)));
            }
            Outcome::Failed => r.failed += 1,
        }
        done += 1;
    }
    if done <= len {
        r.peak_rss_mb = peak_rss_mb();
    }
    r.attempted = done as u64;
    r.rounds = done as f64 / len as f64;
    r.wall_s = spent.as_secs_f64();
    Ok(r)
}

/// CPUs the process may use, read once at start.
static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

/// Parse a kernel CPU list such as `0-1` or `0,2,4-7`.
fn parse_cpu_list(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in text.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            out.extend(lo..=hi);
        }
    }
    out
}

/// Move every thread of this process onto `cpu` with `taskset`; false
/// where that fails (no `taskset`, or the CPU cannot be chosen).
fn pin(cpu: usize) -> bool {
    std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Record the CPUs this process may use and pin it to the last one, so
/// set-up runs on one CPU and a daemon and its client hand requests over
/// by a context switch rather than by waking another CPU. Returns the
/// CPUs the timed rounds rotate over: all of them where pinning works,
/// none otherwise.
pub fn init_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default();
    let usable = match allowed.last() {
        Some(&last) if pin(last) => allowed,
        _ => Vec::new(),
    };
    CPUS.get_or_init(|| usable).clone()
}

/// Pin the process to the CPU of timed round `round`. On a shared virtual
/// machine a CPU runs 1.5–1.8× slower for seconds at a time while the
/// host is busy beside it, each CPU on its own schedule; moving between
/// rounds lets every request of the sequence meet more than one CPU.
fn rotate_cpu(round: usize) {
    if let Some(cpus) = CPUS.get().filter(|c| !c.is_empty()) {
        pin(cpus[round % cpus.len()]);
    }
}

/// A sequence of `len` requests over items with the given weights: each
/// item appears in proportion to its weight (largest remainders settle
/// the rounding), in an order shuffled by `rng`. The mix is exact, so a
/// percentile over the sequence falls among the same items on every seed.
pub fn exact_mix(weights: &[f64], len: usize, rng: &mut Rng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())).then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    let mut seq: Vec<usize> =
        counts.iter().enumerate().flat_map(|(k, &c)| std::iter::repeat_n(k, c)).collect();
    rng.shuffle(&mut seq);
    seq
}

/// What a timed phase reports. Host stalls on a shared machine come and
/// go, while the work a request costs the program recurs in every round,
/// so each position of the sequence counts at its fastest round:
/// percentiles over those best latencies, and the rate at which one round
/// would complete at them.
pub struct Summary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub per_second: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Positions with a correct answer.
    positions: usize,
    rounds: f64,
    /// Every timed sample pooled, for the description: p50, p99, rate.
    pooled: (f64, f64, f64),
}

impl Summary {
    /// Fails when the sequence cannot support a p99.
    pub fn new(r: Rounds) -> Result<Summary, String> {
        let best = Latencies::new(r.best_us.iter().flatten().copied().collect());
        let positions = best.sorted.len();
        let busy_s = best.sorted.iter().sum::<f64>() / 1e6;
        let pooled = Latencies::new(r.pooled_us);
        Ok(Summary {
            p50_us: best.p(50.0),
            p99_us: best.p99_checked()?,
            per_second: positions as f64 / busy_s,
            attempted: r.attempted,
            failed: r.failed,
            peak_rss_mb: r.peak_rss_mb,
            positions,
            rounds: r.rounds,
            pooled: (pooled.p(50.0), pooled.p(99.0), pooled.sorted.len() as f64 / r.wall_s),
        })
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn describe(&self) -> String {
        let (p50, p99, rate) = self.pooled;
        format!(
            "sequence={} positions (tail=p{} keeps 10 beyond it) timed rounds={:.2} requests={} error_share={}; every timed sample pooled: p50_us={p50:.1} p99_us={p99:.1} throughput_qps={rate:.1}",
            self.positions,
            tail_percentile(self.positions).unwrap_or(0.0),
            self.rounds,
            self.attempted,
            self.error_share(),
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Daemon workers: the machine's parallelism, capped so the benchmark
/// stays a small guest on a shared host.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_stream(weights: &[f64], seed: u64, label: &str, n: usize) -> Vec<usize> {
        exact_mix(weights, n, &mut Rng::fork(seed, label))
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 1000, 1234, 40_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
        let few = Latencies::new((0..999).map(f64::from).collect());
        assert!(few.p99_checked().is_err());
        let enough = Latencies::new((1..=1000).map(f64::from).collect());
        assert_eq!(enough.p99_checked(), Ok(990.0));
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn identical_seeds_give_identical_draws() {
        let zipf = zipf_weights(256, 0.6);
        assert!((zipf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let a = zipf_stream(&zipf, 7, "requests", 5000);
        assert_eq!(a, zipf_stream(&zipf, 7, "requests", 5000));
        assert_ne!(a, zipf_stream(&zipf, 8, "requests", 5000));
        assert_ne!(a, zipf_stream(&zipf, 7, "other", 5000));
        assert!(a.iter().all(|&k| k < 256));
        // Rank 0 is the most popular.
        let top = a.iter().filter(|&&k| k == 0).count();
        let last = a.iter().filter(|&&k| k == 255).count();
        assert!(top > 5 * last.max(1), "top {top} last {last}");
        let mut x = Rng::fork(3, "doc");
        let mut y = Rng::fork(3, "doc");
        assert_eq!((0..100).map(|_| x.next_u64()).collect::<Vec<_>>(), {
            (0..100).map(|_| y.next_u64()).collect::<Vec<_>>()
        });
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2,4-6"), vec![0, 2, 4, 5, 6]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn exact_mix_keeps_proportions_and_follows_the_seed() {
        let weights = [2.0, 4.0, 14.0, 1.0 / 3.0];
        let seq = exact_mix(&weights, 1000, &mut Rng::new(1));
        assert_eq!(seq.len(), 1000);
        let count = |k| seq.iter().filter(|&&x| x == k).count();
        let total: f64 = weights.iter().sum();
        for (k, w) in weights.iter().enumerate() {
            assert!((count(k) as f64 - w / total * 1000.0).abs() < 1.0, "item {k}");
        }
        assert_eq!(seq, exact_mix(&weights, 1000, &mut Rng::new(1)));
        assert_ne!(seq, exact_mix(&weights, 1000, &mut Rng::new(2)));
    }

    #[test]
    fn summary_takes_each_position_at_its_best_round() {
        // Position i costs i µs; a stall doubles one round, which the
        // best rounds leave out, while the pooled samples keep it.
        let mut r = Rounds {
            best_us: vec![None; 2000],
            pooled_us: Vec::new(),
            attempted: 6003,
            failed: 3,
            rounds: 3.0,
            wall_s: 3.0,
            peak_rss_mb: 1.0,
        };
        for round in 0..3 {
            for i in 0..2000 {
                let us = (i + 1) as f64 * if round == 1 { 2.0 } else { 1.0 };
                r.pooled_us.push(us);
                r.best_us[i] = Some(r.best_us[i].map_or(us, |b: f64| b.min(us)));
            }
        }
        r.best_us[7] = None;
        let s = Summary::new(r).unwrap();
        assert_eq!(s.p50_us, 1001.0);
        assert_eq!(s.p99_us, 1981.0);
        let busy_s = ((1..=2000).sum::<usize>() - 8) as f64 / 1e6;
        assert!((s.per_second - 1999.0 / busy_s).abs() < 1e-6, "{}", s.per_second);
        assert!((s.error_share() - 3.0 / 6003.0).abs() < 1e-12);
        assert!(s.describe().contains("positions"), "{}", s.describe());
        let few = Rounds {
            best_us: vec![Some(1.0); 999],
            pooled_us: vec![1.0; 999],
            attempted: 999,
            failed: 0,
            rounds: 1.0,
            wall_s: 1.0,
            peak_rss_mb: 1.0,
        };
        assert!(Summary::new(few).is_err(), "999 positions cannot carry a p99");
    }

    #[test]
    fn replay_rounds_counts_failures_and_stops_on_a_wrong_answer() {
        let calls = std::cell::RefCell::new(Vec::new());
        let r = replay_rounds(
            0.02,
            10,
            |i| {
                calls.borrow_mut().push(i);
                std::thread::sleep(Duration::from_micros(50));
                Ok(if i == 3 { Outcome::Failed } else { Outcome::Correct })
            },
            || {
                calls.borrow_mut().push(usize::MAX);
                Ok(())
            },
        )
        .unwrap();
        let mut calls = calls.into_inner();
        // `between` runs only between timed rounds: after the second
        // round, the third, and so on.
        let gaps: Vec<usize> = (0..calls.len()).filter(|&n| calls[n] == usize::MAX).collect();
        assert!(!gaps.is_empty());
        assert!(gaps.iter().enumerate().all(|(k, &n)| n == 20 + k * 11), "{gaps:?}");
        calls.retain(|&c| c != usize::MAX);
        // One untimed round, then at least one timed round, in order.
        assert!(calls.len() >= 20);
        assert!(calls.iter().enumerate().all(|(n, &i)| i == n % 10));
        assert_eq!(r.attempted as usize, calls.len() - 10);
        assert_eq!(r.failed as usize, calls[10..].iter().filter(|&&i| i == 3).count());
        assert_eq!(r.pooled_us.len() as u64, r.attempted - r.failed);
        assert!(r.best_us[3].is_none() && r.best_us.iter().filter(|b| b.is_some()).count() == 9);
        assert!(r.wall_s >= 0.02 && r.rounds >= 1.0 && r.peak_rss_mb > 0.0);
        let mut j = 0;
        let wrong = replay_rounds(
            10.0,
            100,
            |_| {
                j += 1;
                if j == 150 {
                    Err("wrong answer".to_string())
                } else {
                    Ok(Outcome::Correct)
                }
            },
            || Ok(()),
        );
        assert_eq!(wrong.err().as_deref(), Some("wrong answer"));
        assert_eq!(j, 150);
    }
}
