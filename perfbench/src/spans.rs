//! In-memory spans recorded around the benchmark's calls into each crate,
//! written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub unit: usize,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// One worker's spans.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, unit: usize, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, unit);
        let r = f();
        self.end(idx);
        r
    }

    pub fn begin(&mut self, name: &'static str, unit: usize) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in order");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }
}

/// Merges per-worker recorders into one list, re-basing parent indices.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for r in recorders {
        let base = all.len();
        all.extend(r.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Durations (ms) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// `1 - (time covered by child spans) / (time of the root "unit" spans)`:
/// the share of unit wall time no layer span accounts for.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let unit_ms: f64 = total_ms(spans, "unit");
    let child_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "unit"))
        .map(Span::ms)
        .sum();
    if unit_ms > 0.0 {
        1.0 - child_ms / unit_ms
    } else {
        0.0
    }
}

/// Tab-separated dump: id, parent, unit, name, start, end (seconds).
pub fn to_tsv(spans: &[Span]) -> String {
    let mut s = String::from("id\tparent\tunit\tname\tstart_s\tend_s\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}",
            sp.unit, sp.name, sp.start, sp.end
        );
    }
    s
}
