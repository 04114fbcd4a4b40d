//! Property tests pinning universal adversarial training.
//!
//! Three contracts:
//!
//! 1. **Thread invariance** — the quantized
//!    [`universal_adversarial_fit`] produces bit-identical histories,
//!    shadow weights, requantized models and deltas across
//!    thread counts {1, 2, 3, 7} on every fixture architecture: both
//!    gradient paths (float-shadow ascent, STE descent) fold per-image
//!    results in fixed left-to-right image order (the PR 4 contract).
//! 2. **Zero-ball reduction** — `eps == 0` pins the delta at zero and
//!    skips the ascent pass, so the quantized trainer reduces *exactly*
//!    (bitwise histories, weights and models) to plain
//!    [`finetune`](axquant::qtrain::finetune), and the float twin
//!    ([`axnn::universal::universal_adversarial_fit`]) to plain
//!    [`fit`](axnn::train::fit) — the whole shared machinery validated
//!    differentially.
//! 3. **Entry-point panics** — empty datasets and negative budgets die
//!    loudly.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which the sweep scopes with `exec::with`.

use axdata::Dataset;
use axmul::{ExactMul, Registry};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axnn::train::{fit, TrainConfig};
use axnn::universal::{universal_adversarial_fit as float_universal_fit, UniversalTrainConfig};
use axquant::qtrain::{finetune, FinetuneConfig};
use axquant::universal::{universal_adversarial_fit, UniversalFinetuneConfig};
use axquant::Placement;
use axtensor::norms::Norm;
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 8, 8];

/// A small random model in the quantizable topology.
fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "ut-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "ut-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "ut-convpool",
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

/// A learnable 4-class dataset inside the pixel box `[0, 1]` (the zero-
/// ball reduction needs in-range pixels only for the *perturbed* paths;
/// the trainers gate on eps, so the box is about realism, not exactness).
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 0.8);
        t.data_mut()[label * 9] = 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("ut-tiny", imgs, labels, 4)
}

fn calib_of(data: &Dataset, n: usize) -> Vec<Tensor> {
    (0..n.min(data.len()))
        .map(|i| data.image(i).clone())
        .collect()
}

fn quick_cfg(eps: f32) -> UniversalFinetuneConfig {
    UniversalFinetuneConfig {
        base: FinetuneConfig {
            epochs: 2,
            batch_size: 5,
            placement: Placement::All,
            eval_cap: 24,
            ..Default::default()
        },
        eps,
        norm: Norm::Linf,
        delta_step: 1.0,
    }
}

/// The quantized universal trainer must be bit-identical for every
/// thread chunking, across topologies and an approximate kernel.
#[test]
fn universal_fit_is_bit_identical_across_thread_counts() {
    let data = tiny_dataset(24, 177);
    let calib = calib_of(&data, 6);
    let lut = Registry::standard().build_lut("L40").unwrap();
    let cfg = quick_cfg(0.06);
    for arch in 0..3 {
        let run = |threads| {
            let mut model = small_model(arch, 200 + arch as u64);
            let (hist, qm, delta) = exec::with(exec::current().with_threads(threads), || {
                universal_adversarial_fit(&mut model, &data, &calib, &lut, &cfg).unwrap()
            });
            (hist, qm, delta, model)
        };
        let (golden_hist, golden_qm, golden_delta, golden_model) = run(1);
        for threads in [2, 3, 7] {
            let (hist, qm, delta, model) = run(threads);
            assert_eq!(
                hist, golden_hist,
                "UniversalFinetuneHistory diverges at {threads} threads (arch {arch})"
            );
            assert_eq!(
                delta, golden_delta,
                "universal delta diverges at {threads} threads (arch {arch})"
            );
            assert_eq!(
                model, golden_model,
                "hardened shadow weights diverge at {threads} threads (arch {arch})"
            );
            assert_eq!(
                qm, golden_qm,
                "requantized model diverges at {threads} threads (arch {arch})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The zero ball reduces the quantized trainer exactly to plain
    /// `finetune`: same histories (bitwise), same shadow weights, same
    /// requantized model, zero delta — for any architecture and seed.
    #[test]
    fn zero_ball_reduces_to_plain_finetune(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
    ) {
        let data = tiny_dataset(20, seed ^ 0xF1);
        let calib = calib_of(&data, 5);
        let cfg = quick_cfg(0.0);
        let mut plain = small_model(arch, seed);
        let mut universal = small_model(arch, seed);
        let (ph, pq) = finetune(&mut plain, &data, &calib, &ExactMul, &cfg.base).unwrap();
        let (uh, uq, delta) =
            universal_adversarial_fit(&mut universal, &data, &calib, &ExactMul, &cfg).unwrap();
        prop_assert_eq!(delta, Tensor::zeros(&IN_DIMS));
        prop_assert_eq!(uh.initial_accuracy, ph.initial_accuracy);
        prop_assert_eq!(&uh.losses, &ph.losses);
        prop_assert_eq!(&uh.accuracies, &ph.accuracies);
        prop_assert_eq!(&uh.universal_accuracies, &ph.accuracies);
        prop_assert_eq!(plain, universal);
        prop_assert_eq!(pq, uq);
    }

    /// The float twin's zero ball reduces exactly to plain `fit`.
    #[test]
    fn float_zero_ball_reduces_to_plain_fit(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
    ) {
        let data = tiny_dataset(20, seed ^ 0xF2);
        let cfg = UniversalTrainConfig {
            base: TrainConfig { epochs: 2, batch_size: 5, ..Default::default() },
            eps: 0.0,
            norm: Norm::Linf,
            delta_step: 1.0,
        };
        let mut plain = small_model(arch, seed);
        let mut universal = small_model(arch, seed);
        let ph = fit(&mut plain, &data, &cfg.base);
        let (uh, delta) = float_universal_fit(&mut universal, &data, &cfg);
        prop_assert_eq!(delta, Tensor::zeros(&IN_DIMS));
        prop_assert_eq!(&uh.losses, &ph.losses);
        prop_assert_eq!(&uh.accuracies, &ph.accuracies);
        prop_assert_eq!(&uh.universal_accuracies, &ph.accuracies);
        prop_assert_eq!(plain, universal);
    }
}

#[test]
#[should_panic(expected = "empty dataset")]
fn universal_fit_on_empty_dataset_panics() {
    let mut model = small_model(0, 13);
    let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
    let calib = vec![Tensor::zeros(&IN_DIMS)];
    let _ = universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &quick_cfg(0.1));
}

#[test]
#[should_panic(expected = "negative budget")]
fn universal_fit_rejects_negative_budget() {
    let mut model = small_model(1, 14);
    let data = tiny_dataset(4, 15);
    let calib = calib_of(&data, 4);
    let _ = universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &quick_cfg(-0.1));
}
