//! Metric collection, result hashing, the per-run manifest and the
//! final JSON line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (the BENCHMARK.json names, plus workload-specific
    /// names printed for reading only).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the workload measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted (grid cells, training runs, requests).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Correctness-check failures, one line each; empty when correct.
    pub errors: Vec<String>,
    /// Hash of the run's results (grids, trained weights, answers).
    pub result_hash: u64,
}

impl Outcome {
    /// Records a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// 64-bit FNV-1a, used to hash results bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in the bit patterns of `xs`.
    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Formats a finite number for JSON with every digit Rust keeps
/// (shortest round-trip form); non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with
/// exactly the metrics of `declared` (name, unit), each
/// `{"value", "unit"}`.
///
/// # Panics
///
/// Panics if a declared metric was not recorded or was recorded in
/// another unit, which is a bug in a workload.
pub fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|&(n, unit)| {
            let m = outcome
                .get(n)
                .unwrap_or_else(|| panic!("workload did not record metric {n}"));
            assert_eq!(m.unit, unit, "metric {n} recorded in the wrong unit");
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// The human-readable table printed before the result line.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "  {:<40} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// Inputs of the per-run manifest.
#[derive(Debug)]
pub struct Manifest<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Measurement window asked for, in seconds.
    pub seconds: u64,
    /// `axutil::parallel::num_threads()`.
    pub threads: usize,
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// The float kernel tier (`AXDNN_KERNEL`).
    pub kernel_tier: &'a str,
    /// `git describe` of the source, when it is a git checkout.
    pub git: &'a str,
}

impl Manifest<'_> {
    /// The manifest as a JSON document, with the outcome's hash, counts
    /// and every metric.
    pub fn to_json(&self, outcome: &Outcome) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"trace\": {},", self.trace);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"kernel_tier\": \"{}\",", self.kernel_tier);
        let _ = writeln!(out, "  \"git_describe\": \"{}\",", escape(self.git));
        let _ = writeln!(out, "  \"result_hash\": \"{:016x}\",", outcome.result_hash);
        let _ = writeln!(out, "  \"attempted\": {},", outcome.attempted);
        let _ = writeln!(out, "  \"failed\": {},", outcome.failed);
        let errors: Vec<String> = outcome
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        let _ = writeln!(out, "  \"errors\": [{}],", errors.join(", "));
        out.push_str("  \"metrics\": {\n");
        let rows: Vec<String> = outcome
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    json_num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("a_ms", 1.25, "ms", 10);
        o.push("extra", 2.0, "count", 1);
        let line = result_line(&o, &[("a_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "bad".to_owned());
        assert!(result_line(&o, &[("a_ms", "ms")]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn fnv_is_bitwise() {
        let mut a = Fnv::default();
        a.f32s(&[0.0]);
        let mut b = Fnv::default();
        b.f32s(&[-0.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(3.0), "3.0");
    }
}
