//! The execution context: how many worker threads the parallel helpers
//! use and which float-GEMM tier compiled plans dispatch to.
//!
//! Both settings travel together in one `Copy` [`Context`]. Code reads
//! the active one with [`current`]; a caller overrides it for the
//! duration of a closure with [`with`], which installs the context in a
//! thread-local and restores the previous one on return *and* on unwind.
//! The parallel helpers ([`crate::parallel`]) run every worker under the
//! caller's context, and long-lived threads (the `axserve` batcher and
//! workers) install the context captured when they were built, so an
//! override follows the work it scopes, never another test's or caller's.
//!
//! Outside any [`with`] scope the process default applies. It is read
//! **once per process**, here and nowhere else, from `AXDNN_THREADS`
//! ([`parse_threads`]) and `AXDNN_KERNEL` ([`FloatKernel::parse`]).
//! Neither setting changes numerics: results are bit-identical for every
//! thread count and both tiers.
//!
//! # Examples
//!
//! ```
//! use axutil::exec::{self, Context, FloatKernel};
//!
//! let outer = exec::current();
//! let cx = Context { threads: 3, kernel: FloatKernel::Reference };
//! let seen = exec::with(cx, axutil::parallel::num_threads);
//! assert_eq!(seen, 3);
//! // The override ended with the closure.
//! assert_eq!(exec::current(), outer);
//! ```

use std::cell::Cell;
use std::sync::OnceLock;

/// The float-GEMM kernel tier that compiled float plans (`axnn`'s
/// `FPlan`, `axquant`'s `QTrainPlan` backward) dispatch to. Resolved once
/// per plan at compile time from [`current`].
///
/// Both tiers produce **bit-identical** results (the tiled kernels never
/// reassociate a sum), so the choice is purely a performance A/B switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FloatKernel {
    /// The scalar loops: one accumulator chain at a time, kept as the
    /// reference tier.
    Reference,
    /// Register-tiled 4×4 / 4-row variants with independent accumulators
    /// and shared operand loads. The default.
    #[default]
    Tiled,
}

impl FloatKernel {
    /// Parses an `AXDNN_KERNEL` value: `reference` or `scalar` (any case)
    /// select [`FloatKernel::Reference`]; anything else — including
    /// `None` — selects the default [`FloatKernel::Tiled`].
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("reference") || v.eq_ignore_ascii_case("scalar") => {
                FloatKernel::Reference
            }
            _ => FloatKernel::Tiled,
        }
    }

    /// The process-default tier: `AXDNN_KERNEL` as read once per process
    /// (the tier [`current`] returns outside any [`with`] scope).
    pub fn from_env() -> Self {
        process_default().kernel
    }

    /// Stable lowercase name, for report fields and log lines.
    pub fn name(self) -> &'static str {
        match self {
            FloatKernel::Reference => "reference",
            FloatKernel::Tiled => "tiled",
        }
    }
}

/// Parses an `AXDNN_THREADS` value: a positive integer after trimming
/// whitespace; anything else — including `None` — means the machine's
/// available parallelism.
pub fn parse_threads(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One execution context: the two settings every engine reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Context {
    /// Worker threads for the [`crate::parallel`] helpers (`0` is
    /// treated as `1`).
    pub threads: usize,
    /// The float-GEMM tier compiled float plans dispatch to.
    pub kernel: FloatKernel,
}

impl Context {
    /// This context with `threads` worker threads.
    pub fn with_threads(self, threads: usize) -> Self {
        Context { threads, ..self }
    }
}

/// The process default: `AXDNN_THREADS` and `AXDNN_KERNEL`, read once on
/// first use and never again.
fn process_default() -> Context {
    static DEFAULT: OnceLock<Context> = OnceLock::new();
    *DEFAULT.get_or_init(|| Context {
        threads: parse_threads(std::env::var("AXDNN_THREADS").ok().as_deref()),
        kernel: FloatKernel::parse(std::env::var("AXDNN_KERNEL").ok().as_deref()),
    })
}

thread_local! {
    static SCOPED: Cell<Option<Context>> = const { Cell::new(None) };
}

/// The active context: the innermost [`with`] override on this thread,
/// or else the process default (see the [module docs](self)).
pub fn current() -> Context {
    SCOPED.with(Cell::get).unwrap_or_else(process_default)
}

/// Runs `f` with `cx` as this thread's active context, restoring the
/// previous one when `f` returns or unwinds. Scopes nest.
pub fn with<R>(cx: Context, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Context>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(cx))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A context that differs from the process default in both fields.
    fn not_default() -> Context {
        let d = process_default();
        Context {
            threads: d.threads + 3,
            kernel: match d.kernel {
                FloatKernel::Reference => FloatKernel::Tiled,
                FloatKernel::Tiled => FloatKernel::Reference,
            },
        }
    }

    #[test]
    fn threads_parse_table() {
        let cores = parse_threads(None);
        assert!(cores >= 1);
        for (value, want) in [
            (Some("4"), 4),
            (Some(" 7\n"), 7),
            (Some("1"), 1),
            (Some("0"), cores),
            (Some("-2"), cores),
            (Some("two"), cores),
            (Some(""), cores),
        ] {
            assert_eq!(parse_threads(value), want, "{value:?}");
        }
    }

    #[test]
    fn current_is_the_process_default_outside_any_scope() {
        assert_eq!(current(), process_default());
        assert_eq!(FloatKernel::from_env(), process_default().kernel);
    }

    #[test]
    fn nested_with_restores_the_outer_context_on_return() {
        let outer = not_default();
        let inner = outer.with_threads(1);
        with(outer, || {
            assert_eq!(current(), outer);
            assert_eq!(with(inner, current), inner);
            assert_eq!(current(), outer);
        });
        assert_eq!(current(), process_default());
    }

    #[test]
    fn nested_with_restores_the_outer_context_after_a_caught_panic() {
        let outer = not_default();
        let inner = outer.with_threads(outer.threads + 1);
        with(outer, || {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                with(inner, || {
                    assert_eq!(current(), inner);
                    panic!("inside the inner scope");
                })
            }));
            assert!(caught.is_err());
            assert_eq!(current(), outer);
        });
        assert_eq!(current(), process_default());
    }

    #[test]
    fn workers_of_every_parallel_helper_see_the_callers_context() {
        use crate::parallel::{par_chunks_mut, par_map_chunks, par_reduce};
        let cx = not_default().with_threads(4);
        with(cx, || {
            let seen = par_map_chunks(16, |range| range.map(|_| current()).collect());
            assert!(seen.iter().all(|&c| c == cx), "par_map_chunks");

            let mut slots = vec![None; 16];
            par_chunks_mut(&mut slots, |_, chunk| chunk.fill(Some(current())));
            assert!(slots.iter().all(|&c| c == Some(cx)), "par_chunks_mut");

            let all = par_reduce(16, || true, |acc, _| acc && current() == cx, |a, b| a && b);
            assert!(all, "par_reduce");
        });
    }
}
