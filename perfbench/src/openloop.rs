//! The open-loop request schedule and its accounting.
//!
//! Independent users make an open loop: requests are due on a seeded
//! Poisson schedule whether or not earlier ones have been answered, so
//! a stall queues later requests instead of slowing the sender. Each
//! request is timed from when it was *due*, which charges that queueing
//! to the server; how late the generator itself sent is reported apart.

use axutil::rng::Rng;

/// One request's seeded choice of model, kernel and image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Index into the hosted models.
    pub model: usize,
    /// Index into the requestable kernels.
    pub kernel: usize,
    /// Index into the model's image pool.
    pub image: usize,
}

/// `n` seeded draws, uniform over `models × kernels × images`.
pub fn draws(seed: u64, n: usize, models: usize, kernels: usize, images: usize) -> Vec<Draw> {
    let mut rng = Rng::seed_from_u64(seed).derive(0xD4A7);
    (0..n)
        .map(|_| Draw {
            model: rng.index(models),
            kernel: rng.index(kernels),
            image: rng.index(images),
        })
        .collect()
}

/// Due times, in seconds from the start of a phase, of `n` Poisson
/// arrivals at `rate_per_s`. Ascending; the same seed gives the same
/// schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut rng = Rng::seed_from_u64(seed).derive(0x5C4E);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            t
        })
        .collect()
}

/// How late the generator sent, from per-request `sent - due` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Nearest-rank p99 of the lateness, in ms.
    pub p99_ms: f64,
    /// Worst lateness, in ms.
    pub max_ms: f64,
}

impl Lateness {
    /// Summarises lateness samples given in seconds (early sends, which
    /// cannot happen with a sleeping sender, count as on time).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(late_s: &[f64]) -> Lateness {
        let ms: Vec<f64> = late_s.iter().map(|&l| l.max(0.0) * 1e3).collect();
        let s = crate::stats::sorted(&ms);
        Lateness {
            p99_ms: crate::stats::percentile(&s, 0.99),
            max_ms: *s.last().expect("non-empty"),
        }
    }
}

/// Whether latencies listed in due order show a growing backlog: the
/// last quarter's median is more than twice the first quarter's and at
/// least 2 ms above it. A server below capacity drains between bursts,
/// so its quarters look alike; above capacity the queue, and with it
/// every later request's wait, grows for the whole phase.
pub fn backlog_grows(latency_ms_in_due_order: &[f64]) -> bool {
    let n = latency_ms_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = crate::stats::median(&latency_ms_in_due_order[..q]);
    let last = crate::stats::median(&latency_ms_in_due_order[n - q..]);
    last > 2.0 * first && last > first + 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_schedule(7, 500.0, 5000);
        assert_eq!(a, poisson_schedule(7, 500.0, 5000));
        assert_ne!(a, poisson_schedule(8, 500.0, 5000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 5000 arrivals at 500/s span about 10 s.
        let span = a[a.len() - 1];
        assert!((span - 10.0).abs() < 0.5, "span {span}");
    }

    #[test]
    fn draws_are_seeded_and_cover_every_choice() {
        let a = draws(3, 600, 2, 3, 64);
        assert_eq!(a, draws(3, 600, 2, 3, 64));
        assert_ne!(a, draws(4, 600, 2, 3, 64));
        for m in 0..2 {
            for k in 0..3 {
                assert!(a.iter().any(|d| d.model == m && d.kernel == k));
            }
        }
        assert!(a.iter().all(|d| d.image < 64));
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        let mut late: Vec<f64> = vec![0.0; 100];
        late[3] = 0.004;
        late[50] = 0.002;
        late[7] = -0.001;
        let l = Lateness::of(&late);
        assert_eq!(l.max_ms, 4.0);
        assert_eq!(l.p99_ms, 2.0);
    }

    #[test]
    fn backlog_detection() {
        let flat: Vec<f64> = (0..100).map(|i| 1.0 + (i % 3) as f64).collect();
        assert!(!backlog_grows(&flat));
        let growing: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 0.5).collect();
        assert!(backlog_grows(&growing));
        // Doubling inside a millisecond is jitter, not a backlog.
        let tiny: Vec<f64> = (0..100).map(|i| if i < 50 { 0.2 } else { 0.6 }).collect();
        assert!(!backlog_grows(&tiny));
    }
}
