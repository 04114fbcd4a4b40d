//! Property tests pinning the register-tiled GEMM tier to the scalar
//! reference kernels — **bit-exact**, not within tolerance.
//!
//! The tiled kernels ([`axnn::exec`]: `*_tiled`) only regroup which
//! output elements advance together; every element's addition chain over
//! the dot-product dimension stays sequential and ascending, so for any
//! shape (including odd/prime edges that exercise every remainder path)
//! the two tiers must agree to the last bit. On top of the raw kernels,
//! a whole compiled plan run under the tiled tier must reproduce the
//! reference tier's forward, loss and gradients exactly, for every conv
//! geometry (k ∈ {1, 3, 5}, stride/pad combinations) and every thread
//! chunking. Both settings are scoped with `axutil::exec::with`.

use axnn::exec;
use axnn::layer::{Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axtensor::Tensor;
use axutil::exec::{with, Context};
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;

/// Odd and prime edge lengths: every value here leaves a non-trivial
/// remainder against the 4-wide tiles, so the 2×4 / 4×1 / 1×4 / scalar
/// edge paths all run.
const EDGES: [usize; 8] = [1, 2, 3, 5, 7, 11, 13, 17];

fn filled(rng: &mut Rng, n: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    rng.fill_range_f32(&mut v, -1.0, 1.0);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `conv_forward_tiled` == `conv_forward` for any (oc, rows, cols).
    #[test]
    fn tiled_conv_forward_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        oc_i in 0usize..EDGES.len(),
        rows_i in 0usize..EDGES.len(),
        cols_i in 0usize..EDGES.len(),
    ) {
        let (oc, rows, cols) = (EDGES[oc_i], EDGES[rows_i], EDGES[cols_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let w = filled(rng, oc * cols);
        let bias = filled(rng, oc);
        let patch = filled(rng, rows * cols);
        let mut want = vec![0.0f32; oc * rows];
        let mut got = vec![0.0f32; oc * rows];
        exec::conv_forward(&w, &bias, &patch, rows, cols, &mut want);
        exec::conv_forward_tiled(&w, &bias, &patch, rows, cols, &mut got);
        prop_assert_eq!(want, got);
    }

    /// `conv_backward_dx_tiled` == `conv_backward_dx`.
    #[test]
    fn tiled_conv_backward_dx_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        ic_i in 0usize..EDGES.len(),
        rows_i in 0usize..EDGES.len(),
        cols_i in 0usize..EDGES.len(),
    ) {
        let (in_c, rows, cols) = (EDGES[ic_i], EDGES[rows_i], EDGES[cols_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let wt = filled(rng, in_c * cols);
        let gpatch = filled(rng, rows * cols);
        let mut want = vec![0.0f32; in_c * rows];
        let mut got = vec![0.0f32; in_c * rows];
        exec::conv_backward_dx(&wt, &gpatch, rows, cols, &mut want);
        exec::conv_backward_dx_tiled(&wt, &gpatch, rows, cols, &mut got);
        prop_assert_eq!(want, got);
    }

    /// `conv_backward_params_tiled` == `conv_backward_params`, on
    /// non-zero starting accumulators (the kernels *accumulate*).
    #[test]
    fn tiled_conv_backward_params_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        oc_i in 0usize..EDGES.len(),
        rows_i in 0usize..EDGES.len(),
        cols_i in 0usize..EDGES.len(),
    ) {
        let (oc, rows, cols) = (EDGES[oc_i], EDGES[rows_i], EDGES[cols_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let g = filled(rng, oc * rows);
        let patch = filled(rng, rows * cols);
        let mut want_dw = filled(rng, oc * cols);
        let mut want_db = filled(rng, oc);
        let mut got_dw = want_dw.clone();
        let mut got_db = want_db.clone();
        exec::conv_backward_params(&g, &patch, rows, cols, &mut want_dw, &mut want_db);
        exec::conv_backward_params_tiled(&g, &patch, rows, cols, &mut got_dw, &mut got_db);
        prop_assert_eq!(&want_dw, &got_dw);
        prop_assert_eq!(&want_db, &got_db);
    }

    /// `dense_forward_tiled` == `dense_forward` and
    /// `dense_backward_tiled` == `dense_backward`, including the
    /// zero-gradient row skip (every third gradient forced to `0.0`).
    #[test]
    fn tiled_dense_pair_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        out_i in 0usize..EDGES.len(),
        in_i in 0usize..EDGES.len(),
    ) {
        let (out_dim, in_dim) = (EDGES[out_i], EDGES[in_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let w = filled(rng, out_dim * in_dim);
        let bias = filled(rng, out_dim);
        let x = filled(rng, in_dim);
        let mut want = vec![0.0f32; out_dim];
        let mut got = vec![0.0f32; out_dim];
        exec::dense_forward(&w, &bias, &x, &mut want);
        exec::dense_forward_tiled(&w, &bias, &x, &mut got);
        prop_assert_eq!(want, got);

        let mut g = filled(rng, out_dim);
        for (o, gv) in g.iter_mut().enumerate() {
            if o % 3 == 2 {
                *gv = 0.0; // exercise the skip path
            }
        }
        let mut want_dx = vec![0.0f32; in_dim];
        let mut want_dw = filled(rng, out_dim * in_dim);
        let mut want_db = filled(rng, out_dim);
        let mut got_dx = vec![0.0f32; in_dim];
        let mut got_dw = want_dw.clone();
        let mut got_db = want_db.clone();
        exec::dense_backward(&w, &g, &x, &mut want_dx, Some(&mut want_dw), Some(&mut want_db));
        exec::dense_backward_tiled(&w, &g, &x, &mut got_dx, Some(&mut got_dw), Some(&mut got_db));
        prop_assert_eq!(&want_dx, &got_dx);
        prop_assert_eq!(&want_dw, &got_dw);
        prop_assert_eq!(&want_db, &got_db);
    }
}

/// Conv geometries spanning k ∈ {1, 3, 5} with stride/pad combinations,
/// all on the shared `common::IN_DIMS` = `[2, 8, 8]` input: `(k, stride,
/// pad, out_hw)`.
const GEOMETRIES: [(usize, usize, usize, usize); 5] = [
    (1, 1, 0, 8),
    (3, 1, 1, 8),
    (3, 2, 1, 4),
    (5, 1, 2, 8),
    (5, 2, 0, 2),
];

/// A conv(k, stride, pad) + relu + dense head on the shared input shape.
fn geometry_model(geo: usize, seed: u64) -> Sequential {
    let (k, stride, pad, out_hw) = GEOMETRIES[geo % GEOMETRIES.len()];
    let rng = &mut Rng::seed_from_u64(seed);
    Sequential::new(
        "p-geo",
        vec![
            Layer::Conv2d(Conv2d::new(2, 3, k, stride, pad, rng)),
            Layer::Relu,
            Layer::Flatten,
            Layer::Dense(Dense::new(3 * out_hw * out_hw, 4, rng)),
        ],
    )
}

/// One forward + one batched gradient under the active execution context.
fn probe(model: &Sequential, imgs: &[Tensor], labels: &[usize]) -> (Vec<Tensor>, f32) {
    let outs: Vec<Tensor> = imgs.iter().map(|x| model.forward(x)).collect();
    let (loss, grads) = model.loss_and_param_grads_batch(imgs, labels);
    // Fold the gradients into the loss signature via exact bit sums so a
    // single-bit divergence anywhere fails the comparison.
    let mut sig = loss;
    for t in grads.layers.iter().flatten() {
        for &v in t.data() {
            sig = f32::from_bits(sig.to_bits() ^ v.to_bits().rotate_left(9));
        }
    }
    (outs, sig)
}

/// The full kernel-tier × thread-count matrix: for every conv
/// geometry, the tiled plan must reproduce the reference plan's forward
/// outputs and gradient signature bit-for-bit at every thread chunking.
#[test]
fn kernel_matrix_is_bit_exact_across_geometries_and_threads() {
    // The five conv geometries plus the four shared fixture shapes
    // (dense-only, plain/pooled/strided convs).
    let models: Vec<Sequential> = (0..GEOMETRIES.len())
        .map(|geo| geometry_model(geo, 0xBEEF + geo as u64))
        .chain((0..4).map(|arch| common::small_model(arch, 0xFACE + arch as u64)))
        .collect();
    for (geo, model) in models.iter().enumerate() {
        let imgs = common::images(5, 0x51EE + geo as u64);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
        let reference = Context {
            threads: 1,
            kernel: exec::FloatKernel::Reference,
        };
        let (want_outs, want_sig) = with(reference, || probe(model, &imgs, &labels));
        for kernel in [exec::FloatKernel::Reference, exec::FloatKernel::Tiled] {
            for threads in [1, 2, 3, 7] {
                let (outs, sig) =
                    with(Context { threads, kernel }, || probe(model, &imgs, &labels));
                assert_eq!(
                    outs, want_outs,
                    "forward diverges (geometry {geo}, kernel {kernel:?}, {threads} threads)"
                );
                assert_eq!(
                    sig.to_bits(),
                    want_sig.to_bits(),
                    "gradients diverge (geometry {geo}, kernel {kernel:?}, {threads} threads)"
                );
            }
        }
    }
}

/// `AXDNN_KERNEL` parsing: "reference"/"scalar" (any case) select the
/// reference tier, everything else — including unset — the tiled default.
#[test]
fn kernel_env_override_parses() {
    for (value, want) in [
        (Some("reference"), exec::FloatKernel::Reference),
        (Some("Scalar"), exec::FloatKernel::Reference),
        (Some("REFERENCE"), exec::FloatKernel::Reference),
        (Some("tiled"), exec::FloatKernel::Tiled),
        (Some(" reference"), exec::FloatKernel::Tiled),
        (Some("anything-else"), exec::FloatKernel::Tiled),
        (None, exec::FloatKernel::Tiled),
    ] {
        assert_eq!(
            exec::FloatKernel::parse(value),
            want,
            "AXDNN_KERNEL={value:?}"
        );
    }
    assert_eq!(exec::FloatKernel::default(), exec::FloatKernel::Tiled);
}

/// A plan compiled inside a scoped context dispatches through that
/// context's tier, whatever the process default is.
#[test]
fn plan_compiled_in_scope_reports_the_scoped_tier() {
    let model = common::small_model(1, 0x7E57);
    for kernel in [exec::FloatKernel::Reference, exec::FloatKernel::Tiled] {
        let cx = Context { threads: 2, kernel };
        let plan = with(cx, || model.plan(&common::IN_DIMS));
        assert_eq!(plan.kernel(), kernel);
    }
}
