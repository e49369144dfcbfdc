//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. A span has a name, start, end, parent span and
//! request id; spans stay in memory and are summarised when the run ends.
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`; spans opened by
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Move the spans of another tracer (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of the spans called `name`, in recording order,
    /// from the `since`-th span recorded on.
    pub fn durations(&self, name: &str, since: usize) -> Vec<f64> {
        self.spans[since..].iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Per span name: (count, total self time in µs). Self time is a
    /// span's duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent];
                let start = s.start_ns.max(p.start_ns);
                let end = s.end_ns.min(p.end_ns);
                covered[s.parent] += end.saturating_sub(start);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(cov);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own as f64 / 1e3;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let selfs = t.self_times();
        let outer = t.durations("outer", 0)[0];
        let inner = t.durations("inner", 0)[0];
        assert!(inner >= 5000.0);
        assert!((selfs["outer"].1 - (outer - inner)).abs() < 1.0);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 1);
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
