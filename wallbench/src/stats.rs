//! Summaries of timing samples and self times of trace spans.

/// A timing distribution reduced to the two numbers the benchmark
/// reports: the median and the highest percentile that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Which percentile `tail` is (99 or 90; 0 when there are too few
    /// samples for either).
    pub tail_pct: u32,
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of sorted samples.
fn rank(sorted: &[f64], pct: f64) -> f64 {
    let idx = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

impl Summary {
    /// Summarise `values`. The tail is p99 when at least 1000 samples
    /// leave ten beyond it, else p90 when at least 100 samples do, else
    /// the maximum (`tail_pct` 0).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0,
            };
        }
        let p50 = median(&v).expect("non-empty");
        for pct in [99u32, 90] {
            let beyond = n - (pct as f64 / 100.0 * n as f64).ceil() as usize;
            if beyond >= TAIL_MIN_BEYOND {
                return Summary {
                    n,
                    p50,
                    tail: rank(&v, pct as f64),
                    tail_pct: pct,
                };
            }
        }
        Summary {
            n,
            p50,
            tail: v[n - 1],
            tail_pct: 0,
        }
    }

    /// `p99`, `p90`, or `max` when there were too few samples for either.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            0 => "max".into(),
            p => format!("p{p}"),
        }
    }
}

/// One recorded span: a named interval, the span that caused it, and
/// the block height or wire hash it concerns.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.preverify`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Block height or hex wire hash.
    pub key: String,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, written out once when the run ends.
pub struct Trace {
    epoch: std::time::Instant,
    /// Every span recorded so far, in order of opening.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: std::time::Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn at(&self, at: std::time::Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        key: String,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            key,
        });
        self.spans.len() - 1
    }

    /// Open a span that ends at [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, key: String) -> usize {
        let t = self.now();
        self.push(name, t, t, parent, key)
    }

    /// Close a span opened with [`Trace::open`].
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, key());
        out
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that the union of its children's intervals covers.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Self times in microseconds of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_times_ns()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns as f64 / 1e3)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"key\":\"{}\"}}\n",
                s.name, s.start_ns, s.end_ns, s.key
            ));
        }
        out
    }
}

/// Duration of `[start, end)` not covered by the union of `children`
/// (each clipped to the parent's interval; overlaps count once).
pub fn self_time_ns(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in children {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// The part of the end-to-end median a set of per-layer self times
/// leaves unexplained (queueing and linger). A negative residual means
/// the layers were timed as costing more than the whole, which is a
/// coverage error in the trace, not a wait; it is reported as such.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residual {
    /// End-to-end median minus the sum of layer self times.
    pub value: f64,
    /// True when `value` is negative.
    pub coverage_error: bool,
}

/// `total - sum(parts)`, flagged when negative instead of clamped.
pub fn residual(total: f64, parts: &[f64]) -> Residual {
    let value = total - parts.iter().sum::<f64>();
    Residual {
        value,
        coverage_error: value < 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail_pct, 99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.n, 1000);
    }

    #[test]
    fn tail_falls_back_to_p90_below_1000_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail_pct, 90);
        assert_eq!(s.tail, 900.0);
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = Summary::of(&small);
        assert_eq!(s.tail_pct, 0);
        assert_eq!(s.tail, 50.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover [10, 60) = 50.
        assert_eq!(self_time_ns(0, 100, vec![(30, 60), (10, 40)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(0, 100, vec![(10, 60), (20, 30)]), 50);
        // Children spilling past the parent are clipped.
        assert_eq!(self_time_ns(10, 20, vec![(0, 15), (18, 40)]), 3);
    }

    #[test]
    fn trace_self_times_use_children() {
        let mut t = Trace::new();
        let p = t.push("a", 0, 100, None, "1".into());
        t.push("b", 10, 40, Some(p), "1".into());
        t.push("c", 30, 60, Some(p), "1".into());
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
        assert_eq!(t.self_us("a"), vec![0.05]);
    }

    #[test]
    fn negative_residual_is_a_coverage_error_not_clamped() {
        let r = residual(10.0, &[4.0, 8.0]);
        assert_eq!(r.value, -2.0);
        assert!(r.coverage_error);
        let r = residual(10.0, &[4.0, 1.0]);
        assert_eq!(r.value, 5.0);
        assert!(!r.coverage_error);
    }
}
