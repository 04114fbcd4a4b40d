//! Property tests pinning the batched training engine to the seed paths.
//!
//! `FPlan::loss_and_param_grads_batch` must be a pure performance
//! optimization: for any model topology, batch size and thread chunking,
//! the summed loss and [`GradBuffer`] must be *bit-exact* with the seed
//! per-image fold `for i { loss += l_i; grads.accumulate(&g_i) }` over
//! [`Sequential::loss_and_grads`] calls. On top of that, `train::fit`
//! must reproduce the exact seed `TrainHistory` — losses, accuracies and
//! trained weights bit-for-bit — under every thread count.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which each sweep scopes with `exec::with`.

use axdata::Dataset;
use axnn::model::{GradBuffer, Sequential};
use axnn::optim::Sgd;
use axnn::train::{batch_gradient, fit, TrainConfig, TrainHistory};
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;
use common::{images, small_model, IN_DIMS};

/// The seed reference: fold per-image `Sequential::loss_and_grads` in
/// image order, starting from zero — the accumulation the batched engine
/// must replay bit-for-bit.
fn seed_grad_sum(model: &Sequential, imgs: &[Tensor], labels: &[usize]) -> (f32, GradBuffer) {
    let mut loss = 0.0f32;
    let mut grads = model.zero_grads();
    for (img, &lbl) in imgs.iter().zip(labels) {
        let (l, g) = model.loss_and_grads(img, lbl);
        loss += l;
        grads.accumulate(&g);
    }
    (loss, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn batched_param_grads_are_bit_exact_with_seed_sum(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..4,
        n in 1usize..9,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(n, seed ^ 0x7A17);
        let labels: Vec<usize> = (0..n).map(|i| (i * 3) % 4).collect();
        let (want_loss, want) = exec::with(exec::current().with_threads(1), || {
            seed_grad_sum(&model, &imgs, &labels)
        });
        for threads in [1, 2, 3, 7] {
            let (loss, grads) = exec::with(exec::current().with_threads(threads), || {
                model.loss_and_param_grads_batch(&imgs, &labels)
            });
            prop_assert!(
                loss == want_loss && grads == want,
                "batched sum diverges from seed fold (arch {arch}, seed {seed}, \
                 n {n}, threads {threads})"
            );
        }
    }
}

/// A tiny conv-shaped classification dataset for end-to-end training.
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
        // Bias one quadrant so the classes are learnable.
        t.data_mut()[label * 4] += 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("tiny", imgs, labels, 4)
}

/// The seed training loop, replayed serially: per-image gradients folded
/// in example order, `scale(1/n)` then `Sgd::step`, the epoch loss
/// accumulated in f64 — exactly the seed `fit`.
fn seed_fit(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainHistory {
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut history = TrainHistory {
        losses: Vec::new(),
        accuracies: Vec::new(),
    };
    for epoch in 0..cfg.epochs {
        let batches = data.batch_indices(
            cfg.batch_size,
            cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        for batch in &batches {
            let n = batch.len();
            let mut loss_sum = 0.0f32;
            let mut grads = model.zero_grads();
            for &i in batch {
                let (l, g) = model.loss_and_grads(data.image(i), data.label(i));
                loss_sum += l;
                grads.accumulate(&g);
            }
            grads.scale(1.0 / n as f32);
            opt.step(model, &grads);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        history
            .losses
            .push((loss_acc / batches.len() as f64) as f32);
        history.accuracies.push(model.accuracy(data, 2000));
        opt.set_lr((opt.lr() * cfg.lr_decay).max(1e-5));
    }
    history
}

/// `fit` must reproduce the exact seed history — losses, accuracies and
/// final weights bit-for-bit — and do so for every thread chunking.
#[test]
fn fit_reproduces_seed_history_bit_for_bit() {
    let data = tiny_dataset(40, 11);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let mut reference = small_model(2, 5);
    let golden = seed_fit(&mut reference, &data, &cfg);
    for threads in [1, 2, 3, 7] {
        let mut model = small_model(2, 5);
        let history = exec::with(exec::current().with_threads(threads), || {
            fit(&mut model, &data, &cfg)
        });
        assert_eq!(
            history, golden,
            "TrainHistory diverges from the seed loop at {threads} threads"
        );
        assert_eq!(
            model, reference,
            "trained weights diverge from the seed loop at {threads} threads"
        );
    }
}

/// The recompile-per-step loop the in-place engine replaced: a fresh
/// plan per batch (`model.plan`), `Sgd::step_scaled` writing into the
/// *model*, and the per-epoch accuracy from `Sequential::accuracy` — the
/// exact shape `fit` had before `Sequential::plan_owned` /
/// `Sgd::step_plan_scaled` landed.
fn recompile_fit(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainHistory {
    let in_dims = data.image(0).dims().to_vec();
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut history = TrainHistory {
        losses: Vec::new(),
        accuracies: Vec::new(),
    };
    for epoch in 0..cfg.epochs {
        let batches = data.batch_indices(
            cfg.batch_size,
            cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        for batch in &batches {
            let n = batch.len();
            let plan = model.plan(&in_dims);
            let (loss_sum, grads) = plan.loss_and_param_grads_batch(
                n,
                |k| data.image(batch[k]),
                |k| data.label(batch[k]),
            );
            drop(plan);
            opt.step_scaled(model, &grads, 1.0 / n as f32);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        history
            .losses
            .push((loss_acc / batches.len() as f64) as f32);
        history.accuracies.push(model.accuracy(data, 2000));
        opt.set_lr((opt.lr() * cfg.lr_decay).max(1e-5));
    }
    history
}

/// The in-place owned-plan `fit` must be bit-identical — history *and*
/// final weights — to the recompile-per-step loop it replaced, for every
/// model shape in the fixture set.
#[test]
fn in_place_fit_matches_recompile_per_step_fit() {
    let data = tiny_dataset(30, 17);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    exec::with(exec::current().with_threads(2), || {
        for arch in 0..4 {
            let mut want_model = small_model(arch, 23);
            let want_history = recompile_fit(&mut want_model, &data, &cfg);
            let mut got_model = small_model(arch, 23);
            let got_history = fit(&mut got_model, &data, &cfg);
            assert_eq!(
                got_history, want_history,
                "in-place history diverges from the recompiling loop (arch {arch})"
            );
            assert_eq!(
                got_model, want_model,
                "in-place weights diverge from the recompiling loop (arch {arch})"
            );
        }
    });
}

/// `batch_gradient` is the mean of the seed fold — and thread-invariant.
#[test]
fn batch_gradient_is_seed_mean_for_any_chunking() {
    let data = tiny_dataset(9, 21);
    let model = small_model(3, 22);
    let indices: Vec<usize> = (0..9).collect();
    let imgs: Vec<Tensor> = indices.iter().map(|&i| data.image(i).clone()).collect();
    let labels: Vec<usize> = indices.iter().map(|&i| data.label(i)).collect();
    let (loss_sum, mut want) = seed_grad_sum(&model, &imgs, &labels);
    want.scale(1.0 / 9.0);
    let want_loss = loss_sum / 9.0;
    for threads in [1, 2, 3, 7] {
        let (loss, grads) = exec::with(exec::current().with_threads(threads), || {
            batch_gradient(&model, &data, &indices)
        });
        assert_eq!(loss, want_loss, "mean loss diverges at {threads} threads");
        assert_eq!(grads, want, "mean gradient diverges at {threads} threads");
    }
}
