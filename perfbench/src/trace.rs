//! In-memory spans around the benchmark's calls into each layer's public
//! API. Recording is off in the end-to-end run; the traced run turns it on
//! and derives the per-layer metrics from the recorded spans.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::Samples;

/// One timed call: which layer API, when, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished call as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now());
        r
    }

    /// Opens a span that later calls nest under, until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Durations of the spans named `name`, as samples.
    pub fn samples(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for d in self.durations(name) {
            s.push(d);
        }
        s
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.samples(name).mean_ns()
    }

    /// Per span name: count, total time and self time (total minus the part
    /// covered by child spans), in nanoseconds, sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child);
        }
        out
    }
}
