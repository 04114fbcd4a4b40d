//! An in-memory span recorder used by traced runs.
//!
//! Spans are recorded in the benchmark's own code around calls into the
//! workspace crates; nothing inside the library is instrumented. Each span
//! has a name, start and end (nanoseconds since the recorder was made),
//! the span that caused it and the run id. Spans stay in memory until the
//! run ends and [`Tracer::write_json`] writes them out. A disabled tracer
//! records nothing and only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `axattack.craft_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and counter recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id (to parent its children), or `None` when disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id].end_ns = end;
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_insert(0.0) += by;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// A copy of every finished span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Summed wall time of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Wall times of every span named `name`, in seconds, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes the run id, every span (with its self time) and every
    /// counter as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = format!("{{\"run_id\": {},\n \"spans\": [\n", self.run_id);
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str(" ],\n \"counts\": {");
        let counts = self.counts.lock().expect("counter map poisoned");
        let body: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("craft", 10, 40, Some(0)),
            span("predict", 50, 90, Some(0)),
            span("inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["run"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 60) and [40, 80): the
        // union is 70 ns, so the parent keeps 30 of its 100.
        let spans = vec![
            span("phase", 0, 100, None),
            span("submit", 10, 60, Some(0)),
            span("submit", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        let v = t.span("x", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        t.count("n", 3.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("n"), 0.0);
    }

    #[test]
    fn enabled_tracer_nests_spans_and_counts() {
        let t = Tracer::new(true, 1);
        t.span("outer", None, |outer| {
            t.span("inner", outer, |_| ());
        });
        t.count("n", 2.0);
        t.count("n", 3.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.counter("n"), 5.0);
        assert_eq!(t.durations_s("inner").len(), 1);
    }
}
