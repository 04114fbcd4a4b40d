//! Shared utilities for the AxDNN adversarial-robustness reproduction.
//!
//! This crate provides the deterministic foundations every other crate in
//! the workspace builds on:
//!
//! * [`rng`] — a self-contained, seedable SplitMix64 / Xoshiro256++ PRNG
//!   with the handful of distributions the experiments need. Using our own
//!   generator (instead of the `rand` crate) guarantees that every dataset,
//!   weight initialization and attack draw is bit-reproducible across
//!   platforms and library versions, which is what makes the experiment
//!   tables in `EXPERIMENTS.md` regenerable.
//! * [`exec`] — the execution context: worker-thread count and float-GEMM
//!   tier. `AXDNN_THREADS` and `AXDNN_KERNEL` are read once per process as
//!   its default; code and tests scope other values with [`exec::with`].
//! * [`parallel`] — scoped-thread helpers built on [`std::thread::scope`] for
//!   embarrassingly parallel loops (per-image evaluation, batch gradients),
//!   sized by and running under the active [`exec::Context`].
//! * [`binio`] — a small explicit binary codec (on top of `bytes`) used for
//!   model-weight artifacts; explicit codecs keep artifacts bit-stable.
//! * [`time`] — [`time::Deadline`]: latency budgets for the serving engine.
//! * [`sync`] — a bounded MPSC channel with an observable depth gauge,
//!   the admission-queue primitive behind `axserve`'s backpressure.
//! * [`error`] — the shared [`AxError`] error type.
//!
//! # Examples
//!
//! ```
//! use axutil::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.next_f32();            // uniform in [0, 1)
//! let y = rng.normal_f32();          // standard normal
//! assert!((0.0..1.0).contains(&x));
//! assert!(y.is_finite());
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod binio;
pub mod error;
pub mod exec;
pub mod parallel;
pub mod rng;
pub mod sync;
pub mod time;

pub use error::AxError;
pub use rng::Rng;
