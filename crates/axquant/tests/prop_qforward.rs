//! Property tests pinning the batched plan engine to the per-image path.
//!
//! The batch API must be a pure performance optimization: for any model,
//! placement and quantization level, `forward_batch_with` over N images
//! and M kernels must be *bit-exact* with N×M independent
//! `forward_with` calls, and the exact LUT must be bit-exact with the
//! builtin exact multiplier through the GEMM path.

use axmul::{ExactMul, FaultedMul, MulLut};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axquant::{Placement, QLevel, QuantModel};
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 6, 6];

/// A small random model of one of three shapes that together cover every
/// engine path: dense-only, conv without padding, conv+pad+avgpool.
fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "p-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(36, 8, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "p-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "p-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 3 * 3, 4, rng)),
            ],
        ),
    }
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

/// An approximate kernel with structure the engine must not assume away:
/// asymmetric and biased, including `mul(w, 0) != 0`.
fn biased_lut() -> MulLut {
    MulLut::from_fn("biased", |a, b| {
        ((a as u16).wrapping_mul(b as u16) & !0x7).wrapping_add((a as u16) & 3)
    })
}

/// Checks batch-vs-scalar bit-exactness and exact-LUT == builtin for one
/// quantized model. Returns an error message on the first mismatch.
fn check_engine(qm: &QuantModel, probes: &[Tensor]) -> Result<(), String> {
    let exact_lut = MulLut::exact();
    let approx = biased_lut();
    let kernels = [&exact_lut, &approx];
    let plan = qm.plan(&IN_DIMS);
    let batch = plan.forward_batch_with(probes, &kernels);
    for (img, row) in probes.iter().zip(&batch) {
        let scalar_exact = qm.forward_with(img, &exact_lut);
        let scalar_approx = qm.forward_with(img, &approx);
        if row[0] != scalar_exact {
            return Err(format!(
                "batch exact-LUT lane != per-image forward_with for {}",
                qm.name()
            ));
        }
        if row[1] != scalar_approx {
            return Err(format!(
                "batch approx lane != per-image forward_with for {}",
                qm.name()
            ));
        }
        // The exact LUT must be indistinguishable from the builtin
        // multiply through the whole GEMM path.
        if scalar_exact != qm.forward_with(img, &ExactMul) {
            return Err(format!("exact LUT != ExactMul for {}", qm.name()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn batch_engine_is_bit_exact_on_random_models(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        wbits in 2u8..=8,
        abits in 2u8..=8,
    ) {
        let model = small_model(arch, seed);
        let calib = images(4, seed ^ 0xCA11B);
        let probes = images(3, seed ^ 0x9A0BE5);
        let level = QLevel::new(wbits, abits);
        for placement in [Placement::ConvOnly, Placement::All] {
            let qm = QuantModel::from_float_with_level(&model, &calib, placement, level)
                .expect("supported topology");
            if let Err(msg) = check_engine(&qm, &probes) {
                prop_assert!(false, "{msg} (placement {placement}, level {level})");
            }
        }
    }
}

/// A stuck-at-faulted multiplier LUT must ride the same batch engine
/// contracts as any other table kernel: `forward_batch_with` under a
/// [`FaultedMul`] is bit-identical across thread counts 1/4 and
/// identical to the per-image `forward_with` path.
#[test]
fn faulted_kernel_batch_forward_is_thread_invariant() {
    use axcirc::faults::{Fault, FaultSet, StuckAt};

    let nl = axmul::Registry::standard()
        .find("17KS")
        .expect("registered")
        .build_netlist();
    // Tie a mid-significance product bit high: defective enough to
    // change products, not so defective that every logit saturates.
    let fault = Fault::new(nl.outputs()[3], StuckAt::One);
    let fk = FaultedMul::from_netlist("17KS", &nl, FaultSet::single(fault));
    let clean = MulLut::from_netlist("17KS", &nl);
    assert_ne!(fk.table(), clean.table(), "the fault must alter the LUT");
    assert!(matches!(
        axmul::MulBackend::of(&fk),
        axmul::MulBackend::Table(_)
    ));

    let model = small_model(2, 41);
    let calib = images(4, 42);
    let probes = images(3, 43);
    let qm = QuantModel::from_float(&model, &calib, Placement::All).expect("supported topology");

    let per_threads: Vec<_> = [1, 4]
        .into_iter()
        .map(|threads| {
            exec::with(exec::current().with_threads(threads), || {
                qm.plan(&IN_DIMS).forward_batch_with(&probes, &[&fk])
            })
        })
        .collect();
    assert_eq!(
        per_threads[0], per_threads[1],
        "faulted batch forward must not depend on thread chunking"
    );
    for (img, row) in probes.iter().zip(&per_threads[0]) {
        assert_eq!(
            row[0],
            qm.forward_with(img, &fk),
            "faulted batch lane != per-image forward_with"
        );
    }
}

/// The full `Placement` × `QLevel` lattice, deterministically: all 49
/// weight/activation bit-width pairs under both placements on the model
/// shape that exercises conv, padding, pooling and dense layers.
#[test]
fn batch_engine_is_bit_exact_on_every_placement_and_qlevel() {
    let model = small_model(2, 77);
    let calib = images(4, 78);
    let probes = images(2, 79);
    for wbits in 2..=8u8 {
        for abits in 2..=8u8 {
            let level = QLevel::new(wbits, abits);
            for placement in [Placement::ConvOnly, Placement::All] {
                let qm = QuantModel::from_float_with_level(&model, &calib, placement, level)
                    .expect("supported topology");
                if let Err(msg) = check_engine(&qm, &probes) {
                    panic!("{msg} (placement {placement}, level {level})");
                }
            }
        }
    }
}
