//! Order statistics and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolated quantile of an ascending sample (`q = 0` is the
/// minimum, `q = 1` the maximum). `NaN` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Closed-loop throughput of a window of `seconds`: the runs completed
/// inside it over the time the last of them completed (`end_s` are
/// completion times since the window opened). A run still in flight when
/// the window closes cannot stretch it.
pub fn throughput(end_s: impl Iterator<Item = f64>, seconds: f64) -> f64 {
    let inside: Vec<f64> = end_s.filter(|&t| t <= seconds).collect();
    inside.len() as f64 / inside.iter().copied().fold(0.0, f64::max)
}

/// Completions per slice of [`sliced`]: enough that a slice's p95 has
/// ten samples beyond it.
pub const SLICE_RUNS: usize = 200;

/// End-to-end figures of a window, each the median over its slices.
#[derive(Debug, Clone, Copy)]
pub struct Sliced {
    /// Completions per second.
    pub runs_per_s: f64,
    /// Latency median, ms.
    pub p50_ms: f64,
    /// Latency 95th percentile, ms.
    pub p95_ms: f64,
    /// Slices the window was cut into.
    pub slices: usize,
}

/// Cuts the runs completed inside a window of `seconds` into consecutive
/// slices of at least [`SLICE_RUNS`] completions (one slice if there are
/// fewer) and reports the median over the slices of each slice's
/// throughput and latency percentiles. `runs` are `(completion s since
/// the window opened, latency ms)`. A burst of host contention that
/// covers less than half of the window moves none of the medians.
pub fn sliced(runs: impl Iterator<Item = (f64, f64)>, seconds: f64) -> Sliced {
    let mut inside: Vec<(f64, f64)> = runs.filter(|&(t, _)| t <= seconds).collect();
    inside.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = (inside.len() / SLICE_RUNS).max(1);
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    let mut opened = 0.0;
    for j in 0..k {
        let slice = &inside[j * inside.len() / k..(j + 1) * inside.len() / k];
        let Some(&(closed, _)) = slice.last() else {
            break;
        };
        rates.push(slice.len() as f64 / (closed - opened));
        opened = closed;
        let mut latencies: Vec<f64> = slice.iter().map(|&(_, l)| l).collect();
        latencies.sort_by(f64::total_cmp);
        p50s.push(quantile(&latencies, 0.50));
        p95s.push(quantile(&latencies, 0.95));
    }
    Sliced {
        runs_per_s: median(&rates),
        p50_ms: median(&p50s),
        p95_ms: median(&p95s),
        slices: k,
    }
}

/// Sample count and quartiles of one timed quantity.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }
}

/// One recorded interval: a layer call, attributed to the request that
/// caused it and nested under the span that was open when it began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer/call name, e.g. `http.poll`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request index in the workload's seeded list.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// A single-thread span log. Disabled logs record nothing, so the
/// untraced timed window pays one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A log whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `begin` returned (spans close in LIFO order).
    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        self.spans[idx].end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans must close innermost first");
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, request);
        let out = f();
        self.end(idx);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` to `log`, re-basing its parent indices.
pub fn merge_spans(log: &mut Vec<Span>, more: Vec<Span>) {
    let base = log.len();
    log.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span run on the span's own thread, one after
/// another, so their durations never overlap and simply add up.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    spans
        .iter()
        .zip(child_ms)
        .map(|(s, c)| (s.ms() - c).max(0.0))
        .collect()
}

/// Per-name duration and self-time samples, in ms.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
    let selfs = self_times_ms(spans);
    let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, self_ms) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.0.push(s.ms());
        entry.1.push(self_ms);
    }
    out
}

/// Renders the span log as JSON lines (one span per line).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn slices_ignore_a_burst_in_a_minority_of_them() {
        // 3 slices of 200 runs at 10 ms each; the middle one is slow.
        let runs = (0..600).map(|i| {
            let slow = (200..400).contains(&i);
            let at = i as f64 * 0.01 + if i >= 200 { 2.0 } else { 0.0 };
            (at + 0.01, if slow { 50.0 } else { 1.0 })
        });
        let s = sliced(runs, 100.0);
        assert_eq!(s.slices, 3);
        assert_eq!((s.p50_ms, s.p95_ms), (1.0, 1.0));
        assert!((s.runs_per_s - 100.0).abs() < 1e-6);
        // Too few runs for two slices: one slice, the plain figures.
        let few = sliced((1..=10).map(|i| (i as f64, i as f64)), 100.0);
        assert_eq!((few.slices, few.p50_ms), (1, 5.5));
        assert!((few.runs_per_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                request: 0,
            },
            Span {
                name: "child",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "child",
                start_ns: 5_000_000,
                end_ns: 6_000_000,
                parent: Some(0),
                request: 0,
            },
        ];
        let selfs = self_times_ms(&spans);
        assert!((selfs[0] - 6.0).abs() < 1e-9);
        assert!((selfs[1] - 3.0).abs() < 1e-9);
    }
}
