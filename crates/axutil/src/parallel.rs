//! Scoped-thread parallel helpers built on [`std::thread::scope`].
//!
//! The experiments are embarrassingly parallel over images (robustness
//! evaluation) and over batch elements (gradient accumulation). These
//! helpers split index ranges across a small thread pool created per call;
//! for the workloads in this repository (hundreds of inferences, each
//! hundreds of microseconds to milliseconds) per-call thread spawn cost is
//! negligible and keeping no global state preserves determinism.
//!
//! The worker count is [`num_threads`], taken from the active
//! [`exec::Context`], and every worker runs under the caller's context, so
//! nested parallel calls and plans compiled inside a worker see the same
//! settings as the caller.
//!
//! # Panic propagation
//!
//! Every helper joins **all** of its workers before returning — even
//! when one of them panics — and then re-raises the first panicking
//! worker's own payload on the calling thread. A panicking worker closure
//! therefore (a) never deadlocks the calling thread, (b) never strands a
//! sibling worker (each sibling runs its chunk to completion and is
//! joined), and (c) surfaces with its original message. Callers that
//! need fault isolation (the `axserve` batch workers) can rely on
//! wrapping a call in [`std::panic::catch_unwind`]: after the unwind is
//! caught, no helper thread is still running and no shared state is left
//! mid-mutation by the helper itself. This guarantee is pinned by
//! `panicking_worker_propagates_and_joins_siblings` and
//! `every_helper_keeps_the_worker_panic_payload` in this module's tests.

use crate::exec;

/// Returns the number of worker threads to use: the active
/// [`exec::Context`]'s thread count (see [`exec::current`]).
pub fn num_threads() -> usize {
    exec::current().threads.max(1)
}

/// Runs `work` on every input, one scoped thread per input, each under
/// the caller's [`exec::Context`], and returns the results in input
/// order. Every worker is joined; if any panicked, the first panicking
/// worker's payload is re-raised after the last join.
fn spawn_join<I, T, F>(inputs: I, work: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let cx = exec::current();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || exec::with(cx, || work(input))))
            .collect();
        // Join every worker before looking at any result, so a panic
        // never strands a sibling; then the first payload wins.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// Maps `f` over `0..n` in parallel and collects results in index order.
///
/// `f` must be `Sync` because multiple workers call it concurrently. The
/// output order is deterministic (index order) regardless of scheduling.
///
/// # Examples
///
/// ```
/// let squares = axutil::parallel::par_map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_chunks(n, |range| range.map(&f).collect())
}

/// Maps `f` over contiguous index chunks of `0..n` in parallel and
/// concatenates the per-chunk results in index order.
///
/// Unlike [`par_map`], which calls `f` once per index, each worker calls
/// `f` exactly once with its whole `Range` — so per-chunk setup (scratch
/// buffers, plan state) is amortized over the chunk instead of paid per
/// item. `f` must return exactly `range.len()` results; the batched
/// inference engine relies on this for ordered output.
///
/// # Panics
///
/// Panics if `f` returns a different number of results than its range
/// length.
///
/// # Examples
///
/// ```
/// let squares = axutil::parallel::par_map_chunks(8, |range| {
///     range.map(|i| i * i).collect()
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map_chunks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let run = |range: std::ops::Range<usize>| {
        let len = range.len();
        let out = f(range);
        assert_eq!(out.len(), len, "chunk fn must return range.len() results");
        out
    };
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return run(0..n);
    }
    let chunk = n.div_ceil(workers);
    let ranges = (0..workers).map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n));
    spawn_join(ranges, run).into_iter().flatten().collect()
}

/// Splits `items` into `num_threads()` contiguous chunks and runs `f` on
/// each chunk in parallel. `f` receives the chunk's starting index and the
/// mutable chunk itself.
///
/// # Examples
///
/// ```
/// let mut xs = vec![0usize; 10];
/// axutil::parallel::par_chunks_mut(&mut xs, |base, chunk| {
///     for (i, v) in chunk.iter_mut().enumerate() {
///         *v = base + i;
///     }
/// });
/// assert_eq!(xs, (0..10).collect::<Vec<_>>());
/// ```
pub fn par_chunks_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let workers = num_threads().min(n);
    if workers <= 1 {
        f(0, items);
        return;
    }
    let chunk = n.div_ceil(workers);
    spawn_join(items.chunks_mut(chunk).enumerate(), |(w, slice)| {
        f(w * chunk, slice)
    });
}

/// Reduces `0..n` in parallel: each worker folds its indices into an
/// accumulator created by `init`, and the per-worker accumulators are
/// combined left-to-right with `merge` (deterministic order).
///
/// # Examples
///
/// ```
/// let total = axutil::parallel::par_reduce(100, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
/// assert_eq!(total, 4950);
/// ```
pub fn par_reduce<A, I, F, M>(n: usize, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).fold(init(), &fold);
    }
    let chunk = n.div_ceil(workers);
    let ranges = (0..workers).map(|w| w * chunk..((w + 1) * chunk).min(n));
    let parts = spawn_join(ranges, |range| range.fold(init(), &fold));
    parts
        .into_iter()
        .reduce(merge)
        .expect("at least one worker")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial() {
        let par = par_map(1000, |i| i * 3 + 1);
        let ser: Vec<_> = (0..1000).map(|i| i * 3 + 1).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_map_chunks_matches_serial() {
        let par = par_map_chunks(1003, |range| range.map(|i| i * 7 + 2).collect());
        let ser: Vec<_> = (0..1003).map(|i| i * 7 + 2).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn par_map_chunks_empty_and_single() {
        assert!(par_map_chunks(0, |r| r.collect::<Vec<_>>()).is_empty());
        assert_eq!(par_map_chunks(1, |r| r.map(|i| i + 9).collect()), vec![9]);
    }

    #[test]
    fn par_map_chunks_amortizes_setup_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let setups = AtomicUsize::new(0);
        let out = par_map_chunks(64, |range| {
            setups.fetch_add(1, Ordering::Relaxed); // one "scratch alloc" per chunk
            range.collect()
        });
        assert_eq!(out.len(), 64);
        assert!(
            setups.load(Ordering::Relaxed) <= num_threads(),
            "each worker chunk sets up at most once"
        );
    }

    #[test]
    fn par_chunks_mut_covers_all() {
        let mut xs = vec![0u32; 777];
        par_chunks_mut(&mut xs, |base, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (base + i) as u32;
            }
        });
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_reduce_sums() {
        let s = par_reduce(12345, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(s, 12345u64 * 12344 / 2);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    /// Pins the panic-propagation contract documented in the module
    /// docs: a panicking worker closure propagates to the caller (no
    /// deadlock), and every sibling worker still runs its chunk to
    /// completion and is joined before the panic resurfaces.
    #[test]
    fn panicking_worker_propagates_and_joins_siblings() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let n = 64usize;
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunks(n, |range| {
                let out: Vec<usize> = range.clone().collect();
                if range.contains(&0) {
                    panic!("injected worker panic");
                }
                // Siblings record completion only after finishing their
                // whole chunk.
                completed.fetch_add(out.len(), Ordering::SeqCst);
                out
            })
        }));
        let err = result.expect_err("worker panic must propagate to the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(
            msg.contains("injected worker panic"),
            "caller must observe the worker's payload, got {msg:?}"
        );
        // Every chunk except the panicking one (which holds index 0)
        // completed: scope joined the siblings instead of stranding them.
        let workers = num_threads().min(n);
        let chunk = n.div_ceil(workers);
        assert_eq!(
            completed.load(Ordering::SeqCst),
            n - chunk,
            "sibling workers must finish their chunks"
        );
    }

    /// The payload contract for the other two helpers, forced onto the
    /// multi-worker path with a 4-thread context so it cannot pass
    /// vacuously on one thread.
    #[test]
    fn every_helper_keeps_the_worker_panic_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn payload(err: Box<dyn std::any::Any + Send>) -> String {
            err.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        }
        exec::with(exec::current().with_threads(4), || {
            let mut xs = vec![0u32; 64];
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_chunks_mut(&mut xs, |base, chunk| {
                    if base > 0 {
                        panic!("chunk {base} failed");
                    }
                    chunk.fill(1);
                })
            }))
            .expect_err("par_chunks_mut must propagate");
            assert_eq!(
                payload(err),
                "chunk 16 failed",
                "first panicking worker wins"
            );

            let err = catch_unwind(AssertUnwindSafe(|| {
                par_reduce(
                    64,
                    || 0usize,
                    |acc, i| {
                        if i == 40 {
                            panic!("fold hit index {i}");
                        }
                        acc + i
                    },
                    |a, b| a + b,
                )
            }))
            .expect_err("par_reduce must propagate");
            assert_eq!(payload(err), "fold hit index 40");
        });
    }
}
