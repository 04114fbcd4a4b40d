//! Property tests pinning the universal-perturbation crafter.
//!
//! Four contracts:
//!
//! 1. **Thread invariance** — `craft_universal` is bit-identical for any
//!    thread count (the epoch gradients come from one batched
//!    pass folded in fixed image order on the caller thread).
//! 2. **Ball exactness** — the returned delta respects the eps budget and
//!    is a fixed point of [`project_ball`] (bitwise for linf, to rounding
//!    for l2).
//! 3. **Degenerate differential** — on a single image, one crafting epoch
//!    is exactly one batched-gradient ascent step, reproducible from the
//!    public gradient API and the shared geometry helpers.
//! 4. **Empty dataset panics** — a "universal" perturbation over nothing
//!    is rejected loudly.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which the sweep scopes with `exec::with`.

use axattack::norms::{ascent_direction, project_ball, Norm};
use axattack::universal::{apply, craft_universal, UniversalAttack};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 8, 8];

/// A small random model: dense-only, plain conv, or conv+pool.
fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "u-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "u-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "u-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
    }
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.1, 0.9);
            t
        })
        .collect()
}

/// Crafting must not depend on how the per-epoch gradient batch is
/// chunked across worker threads: sweep the thread count over every model
/// family and both norms and require bit-identical deltas.
#[test]
fn craft_universal_is_chunking_invariant() {
    for arch in 0..3usize {
        let model = small_model(arch, 900 + arch as u64);
        let imgs = images(7, 910 + arch as u64);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| (i * 3) % 4).collect();
        for norm in [Norm::Linf, Norm::L2] {
            let attack = UniversalAttack::new(norm)
                .with_epochs(4)
                .with_random_start(true);
            let mut reference: Option<Tensor> = None;
            for threads in [1, 2, 3, 7] {
                let delta = exec::with(exec::current().with_threads(threads), || {
                    attack.craft_universal(&model, &imgs, &labels, 0.12, &mut Rng::seed_from_u64(5))
                });
                match &reference {
                    None => reference = Some(delta),
                    Some(r) => assert_eq!(
                        r, &delta,
                        "universal {norm} delta diverges between chunkings \
                         (arch {arch}, threads {threads})"
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The crafted delta sits inside the eps-ball and re-projecting it is
    /// the identity: bitwise for linf (a coordinate clamp is exactly
    /// idempotent), to a few ULPs for l2 (one rescale may land a rounding
    /// step above the sphere).
    #[test]
    fn delta_respects_the_ball_exactly(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        eps_step in 1u32..=6,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(5, seed ^ 0x2222);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
        let eps = eps_step as f32 * 0.04;
        for norm in [Norm::Linf, Norm::L2] {
            let delta = UniversalAttack::new(norm).with_epochs(3).craft_universal(
                &model, &imgs, &labels, eps, &mut Rng::seed_from_u64(seed ^ 0xBA11),
            );
            let reprojected = project_ball(&delta, eps, norm);
            match norm {
                Norm::Linf => {
                    prop_assert!(delta.linf_norm() <= eps, "linf budget violated");
                    // The linf projection must be a bitwise fixed point.
                    prop_assert_eq!(&reprojected, &delta);
                }
                Norm::L2 => {
                    prop_assert!(
                        delta.l2_norm() <= eps * (1.0 + 1e-6),
                        "l2 budget violated: {}", delta.l2_norm()
                    );
                    prop_assert!(
                        reprojected.sub(&delta).linf_norm() <= 1e-6,
                        "l2 re-projection moved the delta"
                    );
                }
            }
        }
    }

    /// On a single image the universal crafter degenerates to plain
    /// batched-gradient ascent: one epoch with the zero start is exactly
    /// one `loss_and_input_grads_batch` call, one
    /// `alpha * ascent_direction` step (`alpha = 2.5 * eps / epochs`) and
    /// one projection — reproducible bit-for-bit from public APIs.
    #[test]
    fn single_image_crafting_equals_one_ascent_run(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
    ) {
        let model = small_model(arch, seed ^ 0x77);
        let image = images(1, seed ^ 0x3333).pop().unwrap();
        let label = (seed % 4) as usize;
        let eps = 0.1f32;
        let epochs = 3usize;
        let crafted = UniversalAttack::new(Norm::Linf).with_epochs(epochs).craft_universal(
            &model, std::slice::from_ref(&image), &[label], eps,
            &mut Rng::seed_from_u64(0),
        );
        // Reference: the same ascent written out against the public
        // gradient API and the shared geometry helpers.
        let alpha = 2.5 * eps / epochs as f32;
        let mut delta = Tensor::zeros(image.dims());
        for _ in 0..epochs {
            let perturbed = vec![apply(&image, &delta)];
            let grads = model.loss_and_input_grads_batch(&perturbed, &[label]);
            let mut g = Tensor::zeros(image.dims());
            g.add_scaled(&grads[0].1, 1.0);
            delta.add_scaled(&ascent_direction(&g, Norm::Linf), alpha);
            delta = project_ball(&delta, eps, Norm::Linf);
        }
        // Single-image crafting must be exactly one ascent run.
        prop_assert_eq!(crafted, delta);
    }
}

#[test]
#[should_panic(expected = "non-empty dataset")]
fn empty_dataset_is_rejected() {
    let model = small_model(0, 1);
    let _ = craft_universal(
        &model,
        &[],
        &[],
        0.1,
        Norm::Linf,
        &mut Rng::seed_from_u64(2),
    );
}
