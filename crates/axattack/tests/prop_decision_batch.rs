//! Property tests pinning batched *decision*-attack crafting to the
//! per-image path.
//!
//! The PR-3 parity suite (`prop_craft_batch`) covers the gradient
//! attacks, which override `Attack::craft_batch`; the decision attacks
//! (Contrast Reduction, Repeated Additive Gaussian/Uniform) ride the
//! default per-image implementation. That default must obey the same
//! contract: image `i` crafted under `rng.derive(i)`, bit-exact with the
//! scalar `craft` call, for any model, eps and thread chunking — RAG/RAU
//! consume a *variable* number of rng draws per image (they stop at the
//! first fooling sample), which is exactly the case per-image streams
//! exist for.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which the sweep scopes with `exec::with`.

use axattack::decision::{ContrastReduction, RepeatedAdditiveGaussian, RepeatedAdditiveUniform};
use axattack::norms::Norm;
use axattack::Attack;
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
            "d-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "d-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "d-convpool",
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

/// The three decision attacks over their Table-I norm combinations, with
/// few repeats to keep the property cheap (repeats > 1 still exercises
/// the variable-draw-count stream behaviour).
fn decision_attacks() -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(ContrastReduction::new()),
        Box::new(RepeatedAdditiveGaussian::new().with_repeats(3)),
        Box::new(RepeatedAdditiveUniform::new(Norm::L2).with_repeats(3)),
        Box::new(RepeatedAdditiveUniform::new(Norm::Linf).with_repeats(3)),
    ]
}

/// Compares one attack's batch output with the per-image scalar path.
fn check_attack(
    attack: &dyn Attack,
    model: &Sequential,
    imgs: &[Tensor],
    labels: &[usize],
    eps: f32,
    base: &Rng,
) -> Result<(), String> {
    let batch = attack.craft_batch(model, imgs, labels, eps, base);
    for (i, (img, &lbl)) in imgs.iter().zip(labels).enumerate() {
        let scalar = attack.craft(model, img, lbl, eps, &mut base.derive(i as u64));
        if batch[i] != scalar {
            return Err(format!(
                "{} eps {eps}: batch image {i} != scalar craft",
                attack.name()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn decision_craft_batch_is_bit_exact_with_scalar_crafting(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        eps_step in 1u32..=8,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(5, seed ^ 0xDEC1);
        // Label each image with its own prediction so RAG/RAU actually
        // search (a wrong label makes the first draw "fool" trivially).
        let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
        let eps = eps_step as f32 * 0.1;
        let base = Rng::seed_from_u64(seed ^ 0xBA5E);
        for attack in decision_attacks() {
            if let Err(msg) = check_attack(attack.as_ref(), &model, &imgs, &labels, eps, &base) {
                prop_assert!(false, "{msg} (arch {arch}, seed {seed})");
            }
        }
    }
}

/// Decision-attack batches must not depend on how the batch is chunked
/// across worker threads, even though RAG/RAU consume different numbers
/// of rng draws per image.
#[test]
fn decision_craft_batch_is_chunking_invariant() {
    let model = small_model(1, 1717);
    let imgs = images(7, 18);
    let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
    let base = Rng::seed_from_u64(19);
    for attack in decision_attacks() {
        let mut reference: Option<Vec<Tensor>> = None;
        for threads in [1, 2, 3, 7] {
            let batch = exec::with(exec::current().with_threads(threads), || {
                attack.craft_batch(&model, &imgs, &labels, 0.4, &base)
            });
            match &reference {
                None => reference = Some(batch),
                Some(r) => assert_eq!(
                    r,
                    &batch,
                    "{} diverges between chunkings (threads {threads})",
                    attack.name()
                ),
            }
        }
        // The single-threaded run equals the scalar path, so by the
        // equality above every chunking does.
        exec::with(exec::current().with_threads(1), || {
            check_attack(attack.as_ref(), &model, &imgs, &labels, 0.4, &base)
        })
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}
