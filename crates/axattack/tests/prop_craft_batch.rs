//! Property tests pinning batched crafting to the per-image path.
//!
//! `Attack::craft_batch` must be a pure performance optimization: for
//! any model, attack, norm and chunking, crafting image `i` in a batch
//! must be *bit-exact* with the scalar
//! `craft(model, &images[i], labels[i], eps, &mut rng.derive(i as u64))`
//! call. PGD's random start makes this the sharpest case: its stream is
//! derived per image, so the result may not depend on which thread chunk
//! an image lands in.
//!
//! Chunking is controlled by the thread count of the execution context,
//! which the sweep scopes with `exec::with`.

use axattack::gradient::{Bim, Fgm, Pgd};
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
            "c-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "c-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "c-convpool",
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

/// The six gradient attack/norm combinations (BIM/PGD with few steps to
/// keep the property cheap).
fn gradient_attacks() -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(Fgm::new(Norm::Linf)),
        Box::new(Fgm::new(Norm::L2)),
        Box::new(Bim::new(Norm::Linf).with_steps(3)),
        Box::new(Bim::new(Norm::L2).with_steps(3)),
        Box::new(Pgd::new(Norm::Linf).with_steps(3)),
        Box::new(Pgd::new(Norm::L2).with_steps(3)),
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
    fn craft_batch_is_bit_exact_with_scalar_crafting(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        eps_step in 1u32..=8,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(5, seed ^ 0x1111);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
        let eps = eps_step as f32 * 0.05;
        let base = Rng::seed_from_u64(seed ^ 0xBA5E);
        for attack in gradient_attacks() {
            if let Err(msg) = check_attack(attack.as_ref(), &model, &imgs, &labels, eps, &base) {
                prop_assert!(false, "{msg} (arch {arch}, seed {seed})");
            }
        }
    }
}

/// Batched crafting must not depend on how the batch is chunked across
/// worker threads: sweep the thread count and require identical output,
/// including PGD whose randomness is derived per image.
#[test]
fn craft_batch_is_chunking_invariant() {
    let model = small_model(2, 4242);
    let imgs = images(7, 77);
    let labels: Vec<usize> = (0..imgs.len()).map(|i| (i * 3) % 4).collect();
    let base = Rng::seed_from_u64(9);
    for attack in gradient_attacks() {
        let mut reference: Option<Vec<Tensor>> = None;
        for threads in [1, 2, 3, 7] {
            let batch = exec::with(exec::current().with_threads(threads), || {
                attack.craft_batch(&model, &imgs, &labels, 0.12, &base)
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
            check_attack(attack.as_ref(), &model, &imgs, &labels, 0.12, &base)
        })
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// The default (per-image) `craft_batch` of decision attacks must follow
/// the same per-image stream contract as the gradient overrides.
#[test]
fn default_craft_batch_uses_per_image_streams() {
    use axattack::suite::AttackId;
    let model = small_model(0, 31);
    let imgs = images(4, 32);
    let labels = vec![0usize, 1, 2, 3];
    let base = Rng::seed_from_u64(33);
    for id in [AttackId::CrL2, AttackId::RagL2, AttackId::RauLinf] {
        let attack = id.build();
        check_attack(attack.as_ref(), &model, &imgs, &labels, 0.2, &base)
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}
