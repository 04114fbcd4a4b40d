//! Property tests pinning the approximation-aware fine-tuning engine.
//!
//! Three contracts:
//!
//! 1. **Thread invariance** — [`finetune`] histories and the final
//!    shadow weights are *bit-identical* across thread counts
//!    {1, 2, 3, 7}: the batched STE gradient reduces per-image
//!    gradients in a fixed left-to-right image order, so chunking must
//!    never leak into the result (the PR 4 training contract, extended
//!    to the quantized engine).
//! 2. **Exact no-op-ness** — fine-tuning a *converged* model through the
//!    exact multiplier is a near-no-op: quantized accuracy does not
//!    degrade and the weights barely move.
//! 3. **Batch entry point contracts** — the batched STE gradient equals
//!    the per-image fold bit-for-bit for any topology/batch size, and
//!    empty or mixed-shape batches panic like the PR 4 entry points.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which each sweep scopes with `exec::with`.

use axdata::Dataset;
use axmul::{ExactMul, Registry};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axnn::train::{fit, TrainConfig};
use axquant::qtrain::{finetune, FinetuneConfig, QTrainPlan};
use axquant::{Placement, QuantModel};
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 8, 8];

/// A small random model in the quantizable topology (conv/dense followed
/// by relu, final dense producing logits).
fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "ft-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "ft-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "ft-convpool",
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

/// A learnable 4-class dataset in the fine-tuning input shape.
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
        t.data_mut()[label * 9] += 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("ft-tiny", imgs, labels, 4)
}

fn calib_of(data: &Dataset, n: usize) -> Vec<Tensor> {
    (0..n.min(data.len()))
        .map(|i| data.image(i).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn batched_ste_grads_are_bit_exact_with_per_image_fold(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        n in 1usize..7,
    ) {
        let model = small_model(arch, seed);
        let data = tiny_dataset(8, seed ^ 0x57E);
        let calib = calib_of(&data, 4);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
        let lut = Registry::standard().build_lut("17KS").unwrap();
        // The reference: per-image gradients folded in image order.
        let (want_loss, want) = exec::with(exec::current().with_threads(1), || {
            let mut s = plan.scratch();
            let mut want_loss = 0.0f32;
            let mut want = plan.zero_grads();
            for i in 0..n {
                let (l, g) = plan.loss_and_param_grads(&mut s, data.image(i), data.label(i), &lut);
                want_loss += l;
                want.accumulate(&g);
            }
            (want_loss, want)
        });
        for threads in [1, 2, 3, 7] {
            let (loss, grads) = exec::with(exec::current().with_threads(threads), || {
                plan.loss_and_param_grads_batch(n, |i| data.image(i), |i| data.label(i), &lut)
            });
            prop_assert!(
                loss == want_loss && grads == want,
                "batched STE gradient diverges from the per-image fold \
                 (arch {arch}, seed {seed}, n {n}, threads {threads})"
            );
        }
    }
}

/// `finetune` must produce bit-identical histories and shadow weights for
/// every thread chunking, across topologies and an approximate kernel.
#[test]
fn finetune_is_bit_identical_across_thread_counts() {
    let data = tiny_dataset(24, 77);
    let calib = calib_of(&data, 6);
    let lut = Registry::standard().build_lut("L40").unwrap();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 5,
        placement: Placement::All,
        eval_cap: 24,
        ..Default::default()
    };
    for arch in 0..3 {
        let run = |threads| {
            let mut model = small_model(arch, 100 + arch as u64);
            let (hist, _) = exec::with(exec::current().with_threads(threads), || {
                finetune(&mut model, &data, &calib, &lut, &cfg).unwrap()
            });
            (hist, model)
        };
        let (golden_hist, golden_model) = run(1);
        for threads in [2, 3, 7] {
            let (hist, model) = run(threads);
            assert_eq!(
                hist, golden_hist,
                "FinetuneHistory diverges at {threads} threads (arch {arch})"
            );
            assert_eq!(
                model, golden_model,
                "fine-tuned shadow weights diverge at {threads} threads (arch {arch})"
            );
        }
    }
}

/// Fine-tuning a converged model through the *exact* multiplier must be a
/// near-no-op: the quantized forward already matches the float forward up
/// to rounding, so the STE gradients are those of a converged model.
#[test]
fn exact_finetune_of_converged_model_is_near_noop() {
    // A high-margin variant of the tiny dataset: the class pixel is a
    // strong 3.0 bump, so "converged" means confidently correct and a
    // tiny weight drift cannot flip borderline samples.
    let data = {
        let mut rng = Rng::seed_from_u64(55);
        let mut imgs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            let label = rng.index(4);
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 0.4);
            t.data_mut()[label * 9] += 3.0;
            imgs.push(t);
            labels.push(label);
        }
        Dataset::new("ft-margin", imgs, labels, 4)
    };
    let mut model = small_model(0, 56);
    fit(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 0.08,
            ..Default::default()
        },
    );
    assert!(
        model.accuracy(&data, 60) >= 0.9,
        "training failed to converge: {}",
        model.accuracy(&data, 60)
    );
    let calib = calib_of(&data, 8);
    let before = model.clone();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 8,
        placement: Placement::All,
        eval_cap: 60,
        ..Default::default()
    };
    let (hist, _) = finetune(&mut model, &data, &calib, &ExactMul, &cfg).unwrap();
    // Accuracy must not degrade...
    assert!(
        *hist.accuracies.last().unwrap() >= hist.initial_accuracy - 1e-6,
        "exact fine-tune degraded accuracy: {:?} from {}",
        hist.accuracies,
        hist.initial_accuracy
    );
    // ...and the weights must barely move: global drift under 5% of the
    // global parameter norm.
    let mut drift_sq = 0f64;
    let mut norm_sq = 0f64;
    for (la, lb) in model.layers().iter().zip(before.layers()) {
        for (pa, pb) in la.params().iter().zip(lb.params()) {
            let d = pa.sub(pb).l2_norm() as f64;
            let n = pb.l2_norm() as f64;
            drift_sq += d * d;
            norm_sq += n * n;
        }
    }
    let rel = (drift_sq.sqrt() / norm_sq.sqrt()) as f32;
    assert!(rel < 0.05, "weights moved {:.2}% globally", 100.0 * rel);
}

/// The empty-batch and empty-dataset panics of the PR 4 entry points.
#[test]
#[should_panic(expected = "non-empty batch")]
fn empty_ste_batch_panics() {
    let model = small_model(0, 9);
    let data = tiny_dataset(4, 10);
    let qm = QuantModel::from_float(&model, &calib_of(&data, 4), Placement::All).unwrap();
    let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
    let _ = plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!(), &ExactMul);
}

/// Same-length/different-shape images must die instead of silently
/// running under image 0's geometry.
#[test]
#[should_panic(expected = "planned shape")]
fn mixed_shape_ste_batch_panics() {
    let model = small_model(2, 11);
    let data = tiny_dataset(4, 12);
    let qm = QuantModel::from_float(&model, &calib_of(&data, 4), Placement::All).unwrap();
    let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
    let images = [data.image(0).clone(), Tensor::zeros(&[8, 8])];
    let _ = plan.loss_and_param_grads_batch(2, |i| &images[i], |_| 0, &ExactMul);
}

#[test]
#[should_panic(expected = "empty dataset")]
fn finetune_on_empty_dataset_panics() {
    let mut model = small_model(0, 13);
    let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
    let calib = vec![Tensor::zeros(&IN_DIMS)];
    let _ = finetune(
        &mut model,
        &data,
        &calib,
        &ExactMul,
        &FinetuneConfig::default(),
    );
}
