//! Order statistics with the sample-count rule the benchmark reports by.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, together with the
//! sample count. A p99 therefore needs at least 1000 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(q * n)` (1-based), so `q = 0.5` of `[1, 2, 3, 4]` is `2`.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether the `q` percentile of `n` samples has at least [`MIN_TAIL`]
/// samples beyond it, i.e. is reportable.
pub fn tail_is_reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL
}

/// Median of unsorted samples (the nearest-rank p50).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// A sorted copy; NaN-free input is assumed, infinities (failed
/// requests) sort last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and p99 of a latency sample, with its count. `p99` is `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank p99, when reportable.
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarises `samples` (failed requests enter as `f64::INFINITY`,
    /// so they count as missing any latency limit).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples);
        Latency {
            n: s.len(),
            p50: percentile(&s, 0.5),
            p99: tail_is_reportable(s.len(), 0.99).then(|| percentile(&s, 0.99)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.75), 3.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(tail_is_reportable(1000, 0.99));
        assert!(!tail_is_reportable(999, 0.99));
        assert!(tail_is_reportable(20, 0.5));
        assert!(!tail_is_reportable(19, 0.5));
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(Latency::of(&xs).p99, None);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Latency::of(&xs).p99, Some(989.0));
        assert_eq!(Latency::of(&xs).n, 1000);
    }

    #[test]
    fn failures_push_the_tail_to_infinity() {
        let mut xs = vec![1.0; 985];
        xs.extend([f64::INFINITY; 15]);
        let l = Latency::of(&xs);
        assert_eq!(l.p50, 1.0);
        assert_eq!(l.p99, Some(f64::INFINITY));
    }
}
