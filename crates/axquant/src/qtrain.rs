//! Approximation-aware fine-tuning: a [`QPlan`](crate::plan::QPlan)-style
//! backward pass and the retraining driver of the paper's Sec. V.
//!
//! Post-training quantization ([`QuantModel::from_float`]) opens an
//! accuracy gap under approximate multipliers; the defensive-approximation
//! literature (Guesmi et al., "Defensive Approximation" / "Defending with
//! Errors") closes it by *retraining through the approximate forward*.
//! This module implements that loop:
//!
//! * [`QTrainPlan`] compiles a `(QuantModel, shadow model, input shape)`
//!   triple once per epoch. Its forward pass is the quantized engine —
//!   the same [`crate::exec`] kernels as [`QPlan`](crate::plan::QPlan),
//!   running the chosen (exact or LUT) multiplier and recording the `u8`
//!   activation tape. Its backward pass is a **straight-through
//!   estimator** (STE): every quantized layer is linearized as its
//!   dequantized float map `y ≈ relu(W_deq · x_deq + b_deq)`, the fused
//!   requantize/ReLU passes gradient only where the output code is
//!   strictly inside `(0, act_qmax)` (clipped STE — both the ReLU cut and
//!   saturation block gradient), and rounding is treated as identity. The
//!   resulting parameter gradients land in the layout of the float
//!   *shadow* model, ready for [`Sgd::step_scaled`].
//! * [`finetune`] is the driver, in [`axnn::train::fit`] style: per
//!   epoch it requantizes the shadow weights into a fresh plan
//!   (activation scales recalibrated on the calibration set), then runs
//!   SGD + momentum over shuffled minibatches on the batched engine.
//!
//! # Determinism and thread invariance
//!
//! [`QTrainPlan::loss_and_param_grads_batch`] rides the chunked-scratch
//! machinery ([`axutil::parallel::par_map_chunks`], one training scratch
//! per chunk) and reduces per-image gradients in a fixed left-to-right
//! image order, exactly like
//! [`FPlan::loss_and_param_grads_batch`](axnn::plan::FPlan::loss_and_param_grads_batch).
//! Fine-tuned weights and [`FinetuneHistory`] are therefore
//! **bit-identical for any `AXDNN_THREADS` setting**
//! (pinned by `axquant/tests/prop_finetune.rs`).
//!
//! ```
//! use axmul::ExactMul;
//! use axnn::zoo;
//! use axquant::qtrain::{finetune, FinetuneConfig};
//! use axdata::mnist::{MnistConfig, SynthMnist};
//! use axutil::rng::Rng;
//!
//! # fn main() -> Result<(), axutil::AxError> {
//! let data = SynthMnist::generate(&MnistConfig { n: 32, seed: 1, ..Default::default() });
//! let mut shadow = zoo::ffnn(&mut Rng::seed_from_u64(0));
//! let calib: Vec<_> = (0..8).map(|i| data.image(i).clone()).collect();
//! let cfg = FinetuneConfig { epochs: 1, batch_size: 8, ..Default::default() };
//! let (hist, tuned) = finetune(&mut shadow, &data, &calib, &ExactMul, &cfg)?;
//! assert_eq!(hist.losses.len(), 1);
//! assert!(tuned.name().contains("ffnn"));
//! # Ok(())
//! # }
//! ```

use axdata::Dataset;
use axmul::{MulBackend, MulKernel};
use axnn::exec::{self as fexec, FloatGemm};
use axnn::layer::Layer;
use axnn::loss::cross_entropy_with_grad;
use axnn::model::{GradBuffer, Sequential};
use axnn::optim::Sgd;
use axtensor::Tensor;
use axutil::{parallel, AxError};

use crate::exec;
use crate::placement::Placement;
use crate::qlevel::QLevel;
use crate::qmodel::{QLayer, QWeights, QuantModel};

/// One resolved layer of a compiled fine-tuning plan.
#[derive(Debug)]
enum TStep<'m> {
    /// Quantized im2col + GEMM forward; STE conv backward.
    Conv {
        w: &'m QWeights,
        approx: bool,
        /// Index of the conv layer in the *shadow* model's layer stack.
        float_idx: usize,
        in_dims: [usize; 3],
        k: usize,
        stride: usize,
        pad: usize,
        /// Output positions (`oh * ow`) = forward GEMM rows.
        rows: usize,
        /// Patch width (`in_c * k * k`) = forward GEMM columns.
        cols: usize,
        out_dims: [usize; 3],
        /// Dequantization scale of this layer's *input* codes.
        in_scale: f32,
        /// Largest output activation code (`act_qmax` as `u8`).
        qmax_code: u8,
        /// Dequantized weights (`sign * mag * s_w`) re-laid as
        /// `[in_c, out_c * k * k]` in the flipped column order of
        /// [`fexec::grad_im2col`] for the backward GEMM (the parameter
        /// gradients never read the weights, so only the transpose is
        /// materialized).
        wt_deq: Vec<f32>,
        /// Backward gather table ([`fexec::build_grad_gather`]) — built
        /// eagerly: a fine-tuning plan lives a whole epoch.
        gather: Vec<i32>,
        /// Input positions (`h * w`) = backward GEMM rows.
        bwd_rows: usize,
        /// Gradient-patch width (`out_c * k * k`) = backward GEMM cols.
        bwd_cols: usize,
    },
    /// Quantized row GEMM; STE dense backward. `logits` layers
    /// dequantize to f32 instead of requantizing (no ReLU/clip mask).
    Dense {
        w: &'m QWeights,
        approx: bool,
        float_idx: usize,
        in_dim: usize,
        out_dim: usize,
        in_scale: f32,
        qmax_code: u8,
        w_deq: Vec<f32>,
        logits: bool,
    },
    AvgPool {
        k: usize,
        in_dims: [usize; 3],
        out_len: usize,
    },
    /// Shape-only; the tape copies through.
    Flatten,
}

/// A compiled fine-tuning plan for one `(QuantModel, shadow, shape)`.
///
/// The quantized model drives the forward; the shadow [`Sequential`] only
/// fixes the gradient layout (its layer indices and parameter shapes), so
/// the shadow may be mutated by an optimizer while the plan is alive. See
/// the [module docs](self) for the execution model.
#[derive(Debug)]
pub struct QTrainPlan<'m> {
    model: &'m QuantModel,
    steps: Vec<TStep<'m>>,
    in_dims: Vec<usize>,
    in_len: usize,
    n_classes: usize,
    /// Per-step input code lengths; `act_lens[i]` is what step `i` reads.
    act_lens: Vec<usize>,
    /// Largest activation any step reads or writes.
    max_act: usize,
    /// Largest forward `u8` patch any conv step needs.
    max_patch_u8: usize,
    /// Largest f32 patch (forward-dequantized or gradient) any conv
    /// backward needs.
    max_patch_f32: usize,
    /// Zero gradients in the shadow model's layout, cloned per use.
    grads_template: GradBuffer,
    /// Float GEMM tier the STE backward dispatches through, resolved
    /// once at compile time from the active [`axutil::exec::current`]
    /// context — the same dispatch story as [`axnn::plan::FPlan`].
    kernel: fexec::FloatKernel,
}

/// Reusable buffers for executing a [`QTrainPlan`]: the `u8` forward tape
/// (one buffer per step input) plus the f32 logits, patch buffers for the
/// quantized forward and the STE backward, a dequantization buffer and a
/// gradient ping-pong pair. Build one per thread chunk with
/// [`QTrainPlan::scratch`] and reuse it across images.
#[derive(Debug)]
pub struct QTrainScratch {
    /// `acts[i]` holds the `u8` input codes of step `i`.
    acts: Vec<Vec<u8>>,
    /// Final logits (dequantized f32).
    logits: Vec<f32>,
    patch_u8: Vec<u8>,
    patch_f32: Vec<f32>,
    /// Dequantized activation buffer for the backward.
    deq: Vec<f32>,
    /// Gradient ping-pong pair.
    gbuf: [Vec<f32>; 2],
}

impl<'m> QTrainPlan<'m> {
    /// Resolves every layer's geometry, reconstructs the per-layer scale
    /// chain, dequantizes (and pre-transposes) the weights for the STE
    /// backward and maps every quantized layer onto its shadow-model
    /// layer index.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` does not match the model's expected layout,
    /// or if `shadow` does not structurally match `qm` (layer kinds,
    /// shapes, stride/pad — the shadow must be the model `qm` was
    /// quantized from, up to weight values).
    pub fn compile(qm: &'m QuantModel, shadow: &Sequential, input_dims: &[usize]) -> Self {
        let flayers = shadow.layers();
        let mut fi = 0usize;
        let mut dims: Vec<usize> = input_dims.to_vec();
        let in_len: usize = dims.iter().product();
        let mut scale = qm.input_scale();
        let mut max_act = in_len;
        let mut max_patch_u8 = 0usize;
        let mut max_patch_f32 = 0usize;
        let mut n_classes = 0usize;
        let mut act_lens = Vec::new();
        let mut steps = Vec::new();
        for ql in qm.qlayers() {
            act_lens.push(dims.iter().product());
            match ql {
                QLayer::Conv {
                    w,
                    out_c,
                    in_c,
                    k,
                    stride,
                    pad,
                } => {
                    let [c, h, wd] = dims[..] else {
                        panic!("conv input must be [C, H, W], got {dims:?}");
                    };
                    assert_eq!(c, *in_c, "conv channel mismatch");
                    let Some(Layer::Conv2d(fc)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the conv the quantized model expects");
                    };
                    assert_eq!(
                        fc.weight().dims(),
                        &[*out_c, *in_c, *k, *k],
                        "shadow conv {fi} shape mismatch"
                    );
                    assert!(
                        fc.stride() == *stride && fc.pad() == *pad,
                        "shadow conv {fi} stride/pad mismatch"
                    );
                    assert!(
                        matches!(flayers.get(fi + 1), Some(Layer::Relu)),
                        "shadow conv {fi} is not followed by relu"
                    );
                    let oh = (h + 2 * pad - k) / stride + 1;
                    let ow = (wd + 2 * pad - k) / stride + 1;
                    let (rows, cols) = (oh * ow, in_c * k * k);
                    let (bwd_rows, bwd_cols) = (h * wd, out_c * k * k);
                    let wt_deq =
                        transpose_dequantized(&dequantize_weights(w, scale), *out_c, *in_c, *k);
                    let gather =
                        fexec::build_grad_gather([*out_c, oh, ow], [h, wd], *k, *stride, *pad);
                    steps.push(TStep::Conv {
                        w,
                        approx: qm.placement().applies_to_conv(),
                        float_idx: fi,
                        in_dims: [c, h, wd],
                        k: *k,
                        stride: *stride,
                        pad: *pad,
                        rows,
                        cols,
                        out_dims: [*out_c, oh, ow],
                        in_scale: scale,
                        qmax_code: w.act_qmax as u8,
                        wt_deq,
                        gather,
                        bwd_rows,
                        bwd_cols,
                    });
                    max_patch_u8 = max_patch_u8.max(rows * cols);
                    max_patch_f32 = max_patch_f32.max(rows * cols).max(bwd_rows * bwd_cols);
                    // Requantizing layer: the output scale closes the chain.
                    scale = w.dequant / w.requant.expect("conv layers requantize");
                    dims = vec![*out_c, oh, ow];
                    fi += 2; // skip the fused relu
                }
                QLayer::Dense { w, out_dim, in_dim } => {
                    let flat: usize = dims.iter().product();
                    assert_eq!(flat, *in_dim, "dense input size mismatch");
                    let Some(Layer::Dense(fd)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the dense the quantized model expects");
                    };
                    assert_eq!(
                        fd.weight().dims(),
                        &[*out_dim, *in_dim],
                        "shadow dense {fi} shape mismatch"
                    );
                    let w_deq = dequantize_weights(w, scale);
                    let logits = w.requant.is_none();
                    steps.push(TStep::Dense {
                        w,
                        approx: qm.placement().applies_to_dense(),
                        float_idx: fi,
                        in_dim: *in_dim,
                        out_dim: *out_dim,
                        in_scale: scale,
                        qmax_code: w.act_qmax as u8,
                        w_deq,
                        logits,
                    });
                    if logits {
                        assert_eq!(fi + 1, flayers.len(), "shadow logits dense is not final");
                        n_classes = *out_dim;
                        fi += 1;
                    } else {
                        assert!(
                            matches!(flayers.get(fi + 1), Some(Layer::Relu)),
                            "shadow dense {fi} is not followed by relu"
                        );
                        scale = w.dequant / w.requant.expect("hidden dense requantizes");
                        fi += 2;
                    }
                    dims = vec![*out_dim];
                }
                QLayer::AvgPool { k } => {
                    let [c, h, wd] = dims[..] else {
                        panic!("pool input must be [C, H, W], got {dims:?}");
                    };
                    let Some(Layer::AvgPool(fp)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the avgpool the quantized model expects");
                    };
                    assert_eq!(fp.k(), *k, "shadow pool {fi} window mismatch");
                    let (oh, ow) = (h / k, wd / k);
                    steps.push(TStep::AvgPool {
                        k: *k,
                        in_dims: [c, h, wd],
                        out_len: c * oh * ow,
                    });
                    dims = vec![c, oh, ow];
                    fi += 1;
                }
                QLayer::Flatten => {
                    assert!(
                        matches!(flayers.get(fi), Some(Layer::Flatten)),
                        "shadow layer {fi} is not the flatten the quantized model expects"
                    );
                    steps.push(TStep::Flatten);
                    dims = vec![dims.iter().product()];
                    fi += 1;
                }
            }
            max_act = max_act.max(dims.iter().product());
        }
        assert_eq!(fi, flayers.len(), "shadow model has trailing layers");
        debug_assert!(n_classes > 0, "from_float guarantees a final logits layer");
        QTrainPlan {
            model: qm,
            steps,
            in_dims: input_dims.to_vec(),
            in_len,
            n_classes,
            act_lens,
            max_act,
            max_patch_u8,
            max_patch_f32,
            grads_template: shadow.zero_grads(),
            kernel: axutil::exec::current().kernel,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Zero gradients in the shadow model's layout.
    pub fn zero_grads(&self) -> GradBuffer {
        self.grads_template.clone()
    }

    /// Allocates the scratch buffers (forward tape, patches, gradient
    /// ping-pong) this plan needs.
    pub fn scratch(&self) -> QTrainScratch {
        QTrainScratch {
            acts: self.act_lens.iter().map(|&n| vec![0u8; n]).collect(),
            logits: vec![0.0f32; self.n_classes],
            patch_u8: vec![0u8; self.max_patch_u8],
            patch_f32: vec![0.0f32; self.max_patch_f32],
            deq: vec![0.0f32; self.max_act],
            gbuf: [vec![0.0f32; self.max_act], vec![0.0f32; self.max_act]],
        }
    }

    /// Runs the quantized forward under `kernel`, recording the `u8`
    /// activation tape and the f32 logits. Bit-exact with
    /// [`QuantModel::forward_with`] on the same kernel.
    fn run_forward<K: MulKernel + ?Sized>(&self, s: &mut QTrainScratch, x: &Tensor, kernel: &K) {
        assert_eq!(
            x.dims(),
            &self.in_dims[..],
            "input does not match the planned shape"
        );
        let backend = MulBackend::of(kernel);
        exec::quantize_input(
            x.data(),
            self.model.input_qmax(),
            &mut s.acts[0][..self.in_len],
        );
        for (i, step) in self.steps.iter().enumerate() {
            let (head, tail) = s.acts.split_at_mut(i + 1);
            let src = &head[i];
            let backend_for = |approx: bool| if approx { backend } else { MulBackend::Exact };
            match *step {
                TStep::Conv {
                    w,
                    approx,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    ref out_dims,
                    ..
                } => {
                    let in_len = in_dims.iter().product();
                    let out_len = out_dims.iter().product();
                    exec::im2col(
                        &src[..in_len],
                        in_dims,
                        k,
                        stride,
                        pad,
                        rows,
                        cols,
                        &mut s.patch_u8,
                    );
                    exec::gemm_requant(
                        backend_for(approx),
                        w,
                        &s.patch_u8,
                        rows,
                        cols,
                        &mut tail[0][..out_len],
                    );
                }
                TStep::Dense {
                    w,
                    approx,
                    in_dim,
                    out_dim,
                    logits,
                    ..
                } => {
                    if logits {
                        exec::gemm_logits(
                            backend_for(approx),
                            w,
                            &src[..in_dim],
                            1,
                            in_dim,
                            &mut s.logits,
                        );
                    } else {
                        exec::gemm_requant(
                            backend_for(approx),
                            w,
                            &src[..in_dim],
                            1,
                            in_dim,
                            &mut tail[0][..out_dim],
                        );
                    }
                }
                TStep::AvgPool {
                    k,
                    in_dims,
                    out_len,
                } => {
                    let in_len = in_dims.iter().product();
                    exec::avgpool(&src[..in_len], in_dims, k, &mut tail[0][..out_len]);
                }
                TStep::Flatten => {
                    let n = src.len();
                    tail[0][..n].copy_from_slice(src);
                }
            }
        }
    }

    /// The quantized logits for one image (mainly for tests; bit-exact
    /// with [`QuantModel::forward_with`]).
    pub fn forward_logits<K: MulKernel + ?Sized>(
        &self,
        s: &mut QTrainScratch,
        x: &Tensor,
        kernel: &K,
    ) -> Tensor {
        self.run_forward(s, x, kernel);
        Tensor::from_vec(s.logits.clone(), &[self.n_classes])
    }

    /// Back-propagates the cross-entropy gradient down the `u8` tape with
    /// the clipped straight-through estimator, accumulating parameter
    /// gradients into `buf` (shadow-model layout). Returns the loss.
    fn run_backward(&self, s: &mut QTrainScratch, target: usize, buf: &mut GradBuffer) -> f32 {
        let logits = Tensor::from_vec(s.logits.clone(), &[self.n_classes]);
        let (loss, dlogits) = cross_entropy_with_grad(&logits, target);
        let QTrainScratch {
            acts,
            patch_f32,
            deq,
            gbuf,
            ..
        } = s;
        let mut side = 0usize;
        gbuf[side][..self.n_classes].copy_from_slice(dlogits.data());
        for (i, step) in self.steps.iter().enumerate().rev() {
            let in_len = self.act_lens[i];
            let x_codes = &acts[i];
            let (gsrc, gdst) = grad_sides(gbuf, side);
            match *step {
                TStep::Conv {
                    float_idx,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    ref out_dims,
                    in_scale,
                    qmax_code,
                    ref wt_deq,
                    ref gather,
                    bwd_rows,
                    bwd_cols,
                    ..
                } => {
                    let out_len = out_dims.iter().product::<usize>();
                    // Clipped STE through the fused requantize/ReLU: the
                    // gradient passes only where the output code is
                    // strictly inside (0, qmax) — code 0 is the ReLU cut,
                    // code qmax is saturation.
                    ste_mask(&mut gsrc[..out_len], &acts[i + 1][..out_len], qmax_code);
                    // Parameter gradients read the dequantized forward
                    // input (code * in_scale), re-im2col'd in f32.
                    dequantize(&x_codes[..in_len], in_scale, &mut deq[..in_len]);
                    fexec::im2col(
                        &deq[..in_len],
                        in_dims,
                        k,
                        stride,
                        pad,
                        rows,
                        cols,
                        patch_f32,
                    );
                    let (wg, bg) = buf.layers[float_idx].split_at_mut(1);
                    self.kernel.conv_backward_params(
                        &gsrc[..out_len],
                        patch_f32,
                        rows,
                        cols,
                        wg[0].data_mut(),
                        bg[0].data_mut(),
                    );
                    fexec::grad_im2col_indexed(&gsrc[..out_len], gather, patch_f32);
                    self.kernel
                        .conv_backward_dx(wt_deq, patch_f32, bwd_rows, bwd_cols, gdst);
                }
                TStep::Dense {
                    float_idx,
                    in_dim,
                    out_dim,
                    in_scale,
                    qmax_code,
                    ref w_deq,
                    logits,
                    ..
                } => {
                    if !logits {
                        ste_mask(&mut gsrc[..out_dim], &acts[i + 1][..out_dim], qmax_code);
                    }
                    dequantize(&x_codes[..in_dim], in_scale, &mut deq[..in_dim]);
                    let (wg, bg) = buf.layers[float_idx].split_at_mut(1);
                    self.kernel.dense_backward(
                        w_deq,
                        &gsrc[..out_dim],
                        &deq[..in_dim],
                        gdst,
                        Some(wg[0].data_mut()),
                        Some(bg[0].data_mut()),
                    );
                }
                TStep::AvgPool {
                    k,
                    in_dims,
                    out_len,
                } => {
                    // STE treats the rounded integer mean as the exact mean.
                    fexec::avgpool_backward(&gsrc[..out_len], in_dims, k, gdst);
                }
                TStep::Flatten => {
                    gdst[..in_len].copy_from_slice(&gsrc[..in_len]);
                }
            }
            side = 1 - side;
        }
        loss
    }

    /// Cross-entropy loss (of the quantized forward under `kernel`) and
    /// STE parameter gradients for one example, accumulated into a fresh
    /// shadow-layout [`GradBuffer`].
    pub fn loss_and_param_grads<K: MulKernel + ?Sized>(
        &self,
        s: &mut QTrainScratch,
        x: &Tensor,
        target: usize,
        kernel: &K,
    ) -> (f32, GradBuffer) {
        self.run_forward(s, x, kernel);
        let mut buf = self.zero_grads();
        let loss = self.run_backward(s, target, &mut buf);
        (loss, buf)
    }

    /// Summed loss and STE parameter gradients over a whole minibatch —
    /// the fine-tuning hot path.
    ///
    /// The batch is split into contiguous image chunks over threads
    /// ([`axutil::parallel::par_map_chunks`]) with one
    /// [`QTrainPlan::scratch`] per chunk, and per-image gradients are
    /// reduced in a fixed left-to-right image order (single-chunk runs
    /// fold inline — the serial fold *is* the reference order), exactly
    /// like the PR 4 float engine: the sum is **bit-identical** for any
    /// `AXDNN_THREADS` setting.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — a zero "gradient" would silently stall
    /// fine-tuning — and when any image does not match the planned shape
    /// (mixed-shape batches die like the PR 4 entry points).
    pub fn loss_and_param_grads_batch<'a, K, F, G>(
        &self,
        n: usize,
        image: F,
        label: G,
        kernel: &K,
    ) -> (f32, GradBuffer)
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        assert!(n > 0, "loss_and_param_grads_batch needs a non-empty batch");
        // Validate every shape on the caller thread, so a mixed-shape
        // batch dies with this message instead of a worker-thread panic.
        for i in 0..n {
            assert_eq!(
                image(i).dims(),
                &self.in_dims[..],
                "batch image {i} does not match the planned shape"
            );
        }
        if parallel::num_threads().min(n) <= 1 {
            // One chunk: fold as we go — per-image gradients materialize
            // into their own buffer and accumulate in image order, the
            // reference reduction (summing positions of later images
            // straight into the running buffer would reorder the float
            // accumulation).
            let mut s = self.scratch();
            let mut loss = 0.0f32;
            let mut grads = self.zero_grads();
            for i in 0..n {
                let (l, g) = self.loss_and_param_grads(&mut s, image(i), label(i), kernel);
                loss += l;
                grads.accumulate(&g);
            }
            return (loss, grads);
        }
        let per_image: Vec<(f32, GradBuffer)> = parallel::par_map_chunks(n, |range| {
            let mut s = self.scratch();
            range
                .map(|i| self.loss_and_param_grads(&mut s, image(i), label(i), kernel))
                .collect()
        });
        let mut loss = 0.0f32;
        let mut grads = self.zero_grads();
        for (l, g) in &per_image {
            loss += l;
            grads.accumulate(g);
        }
        (loss, grads)
    }
}

/// Dequantizes one layer's weights into the float layout:
/// `w_deq = sign * mag * s_w` with `s_w = dequant / in_scale`.
fn dequantize_weights(w: &QWeights, in_scale: f32) -> Vec<f32> {
    let s_w = w.dequant / in_scale;
    w.mag
        .iter()
        .zip(&w.sign)
        .map(|(&m, &sg)| sg as f32 * m as f32 * s_w)
        .collect()
}

/// Re-lays dequantized conv weights as `[in_c, out_c * k * k]` in the
/// flipped column order of [`fexec::grad_im2col`] — the same transpose
/// [`axnn::plan::FPlan`] pre-computes for its backward GEMM.
fn transpose_dequantized(w_deq: &[f32], out_c: usize, in_c: usize, k: usize) -> Vec<f32> {
    debug_assert_eq!(w_deq.len(), out_c * in_c * k * k);
    let bwd_cols = out_c * k * k;
    let mut wt = vec![0.0f32; in_c * bwd_cols];
    for ci in 0..in_c {
        let dst = &mut wt[ci * bwd_cols..(ci + 1) * bwd_cols];
        let mut j = 0;
        for o in 0..out_c {
            for ky in (0..k).rev() {
                for kx in (0..k).rev() {
                    dst[j] = w_deq[((o * in_c + ci) * k + ky) * k + kx];
                    j += 1;
                }
            }
        }
    }
    wt
}

/// Dequantizes activation codes: `out[i] = codes[i] * scale`.
fn dequantize(codes: &[u8], scale: f32, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = c as f32 * scale;
    }
}

/// The clipped-STE gradient mask for a fused requantize/ReLU output:
/// zeroes the gradient where the output code is `0` (ReLU cut / rounded
/// to zero) or `qmax` (saturated).
fn ste_mask(g: &mut [f32], codes: &[u8], qmax: u8) {
    for (gv, &c) in g.iter_mut().zip(codes) {
        if c == 0 || c == qmax {
            *gv = 0.0;
        }
    }
}

/// Splits the gradient ping-pong pair into `(read, write)` for `side`.
/// Both sides are mutable: the read side is masked in place by the
/// clipped STE before the backward kernels consume it.
fn grad_sides(g: &mut [Vec<f32>; 2], side: usize) -> (&mut Vec<f32>, &mut Vec<f32>) {
    let (lo, hi) = g.split_at_mut(1);
    if side == 0 {
        (&mut lo[0], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[0])
    }
}

/// Fine-tuning hyper-parameters, in [`axnn::train::TrainConfig`] style.
///
/// The defaults are deliberately tamer than float training: the
/// quantized forward is **frozen for a whole epoch** (per-epoch
/// requantization), so within an epoch every batch's gradient comes from
/// the same stale linearization and momentum compounds them into one
/// effective step of roughly `lr * batches / (1 - momentum)` times the
/// gradient. Keep that product comparable to a single float-training
/// step or fine-tuning diverges.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Shuffling / batching seed.
    pub seed: u64,
    /// Where approximation applies in the quantized forward.
    pub placement: Placement,
    /// Quantization level of the forward.
    pub level: QLevel,
    /// Sample cap for the per-epoch quantized accuracy.
    pub eval_cap: usize,
    /// Requantize the shadow weights into a fresh quantized forward
    /// every `N` batches *within* an epoch. `0` (the default) keeps
    /// today's per-epoch schedule bitwise: one requantization after the
    /// epoch's last batch. Smaller values trade requantization cost for
    /// a fresher linearization — ensemble fine-tuning, where the
    /// effective forward moves per query, wants `1`.
    pub requant_every: usize,
    /// Print one line per epoch to stderr when true.
    pub verbose: bool,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 2,
            batch_size: 32,
            lr: 0.004,
            momentum: 0.5,
            weight_decay: 1e-4,
            lr_decay: 0.7,
            seed: 0x51E7,
            placement: Placement::ConvOnly,
            level: QLevel::INT8,
            eval_cap: 2000,
            requant_every: 0,
            verbose: false,
        }
    }
}

/// Per-epoch fine-tuning record.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneHistory {
    /// Quantized clean accuracy (under the fine-tuning kernel) of the
    /// *post-training quantization* baseline, before any update.
    pub initial_accuracy: f32,
    /// Mean training loss (quantized forward) per epoch.
    pub losses: Vec<f32>,
    /// Quantized clean accuracy after each epoch's requantization.
    pub accuracies: Vec<f32>,
}

/// Approximation-aware fine-tuning: retrains the float `shadow` weights
/// against the quantized/approximate forward under `kernel`.
///
/// Per epoch: the current shadow weights are requantized
/// ([`QuantModel::from_float_with_level`], activation scales recalibrated
/// on `calib`) into a fresh [`QTrainPlan`], then SGD + momentum
/// ([`Sgd::step_scaled`], fused `1/n` mean scaling) runs over shuffled
/// minibatches on the batched STE engine. The quantized model is rebuilt
/// after the epoch and its clean accuracy recorded. With
/// [`FinetuneConfig::requant_every`] `= N > 0` the rebuild additionally
/// happens every `N` batches within the epoch (a fresher linearization);
/// the default `0` reproduces the per-epoch schedule bitwise.
///
/// Returns the history plus the **final requantized model** (the victim
/// the defense ships), so callers evaluate it directly instead of paying
/// a duplicate quantization/calibration pass.
///
/// Deterministic *and thread-invariant*: same inputs produce bit-identical
/// shadow weights and [`FinetuneHistory`] for any `AXDNN_THREADS`.
///
/// # Errors
///
/// Returns [`AxError::Config`] when quantization rejects the model
/// topology or `calib` is empty.
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn finetune<K: MulKernel + ?Sized>(
    shadow: &mut Sequential,
    data: &Dataset,
    calib: &[Tensor],
    kernel: &K,
    cfg: &FinetuneConfig,
) -> Result<(FinetuneHistory, QuantModel), AxError> {
    assert!(!data.is_empty(), "cannot fine-tune on an empty dataset");
    let in_dims = data.image(0).dims().to_vec();
    let mut qm = QuantModel::from_float_with_level(shadow, calib, cfg.placement, cfg.level)?;
    let initial_accuracy = qm.accuracy_with(data, kernel, cfg.eval_cap);
    let mut opt = Sgd::new(shadow, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut history = FinetuneHistory {
        initial_accuracy,
        losses: Vec::with_capacity(cfg.epochs),
        accuracies: Vec::with_capacity(cfg.epochs),
    };
    for epoch in 0..cfg.epochs {
        let batches = data.batch_indices(
            cfg.batch_size,
            cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        // `requant_every == 0` makes the whole epoch one chunk, so the
        // single rebuild below lands after the last batch — the original
        // per-epoch schedule, bit for bit.
        let chunk_len = if cfg.requant_every == 0 {
            batches.len().max(1)
        } else {
            cfg.requant_every
        };
        for chunk in batches.chunks(chunk_len) {
            {
                // The plan borrows the chunk's quantized model; the
                // shadow is only read at compile time, so the optimizer
                // can mutate it batch by batch while the plan is alive.
                let plan = QTrainPlan::compile(&qm, shadow, &in_dims);
                for batch in chunk {
                    let n = batch.len();
                    let (loss_sum, grads) = plan.loss_and_param_grads_batch(
                        n,
                        |k| data.image(batch[k]),
                        |k| data.label(batch[k]),
                        kernel,
                    );
                    opt.step_scaled(shadow, &grads, 1.0 / n as f32);
                    loss_acc += (loss_sum / n as f32) as f64;
                }
            }
            // Requantization of the shadow weights into the plan the
            // *next* chunk (or epoch) trains against.
            qm = QuantModel::from_float_with_level(shadow, calib, cfg.placement, cfg.level)?;
        }
        let mean_loss = (loss_acc / batches.len() as f64) as f32;
        let acc = qm.accuracy_with(data, kernel, cfg.eval_cap);
        history.losses.push(mean_loss);
        history.accuracies.push(acc);
        if cfg.verbose {
            eprintln!(
                "[finetune {}] epoch {}/{}: loss {:.4}, quantized acc {:.2}%",
                qm.name(),
                epoch + 1,
                cfg.epochs,
                mean_loss,
                100.0 * acc
            );
        }
        opt.set_lr((opt.lr() * cfg.lr_decay).max(1e-5));
    }
    Ok((history, qm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul::{ExactMul, MulLut, Registry};
    use axnn::layer::{AvgPool2d, Conv2d, Dense};
    use axnn::zoo;
    use axutil::rng::Rng;

    fn calib_images(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut t = Tensor::zeros(dims);
                rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
                t
            })
            .collect()
    }

    /// A small conv+pool+dense model in the supported topology.
    fn small_conv(seed: u64) -> Sequential {
        let rng = &mut Rng::seed_from_u64(seed);
        Sequential::new(
            "small-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 6, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(6, 4, rng)),
            ],
        )
    }

    #[test]
    fn forward_tape_is_bit_exact_with_qplan() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(3));
        let calib = calib_images(4, &[1, 28, 28], 4);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 28, 28]);
        let mut s = plan.scratch();
        let approx = Registry::standard().build_lut("L40").unwrap();
        let exact = MulLut::exact();
        for img in calib_images(3, &[1, 28, 28], 5) {
            assert_eq!(
                plan.forward_logits(&mut s, &img, &exact),
                qm.forward_with(&img, &exact)
            );
            assert_eq!(
                plan.forward_logits(&mut s, &img, &approx),
                qm.forward_with(&img, &approx)
            );
        }
    }

    #[test]
    fn forward_tape_matches_on_pool_and_pad_topology() {
        let model = small_conv(7);
        let calib = calib_images(4, &[1, 8, 8], 8);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let mut s = plan.scratch();
        let approx = Registry::standard().build_lut("17KS").unwrap();
        for img in &calib {
            assert_eq!(
                plan.forward_logits(&mut s, img, &approx),
                qm.forward_with(img, &approx)
            );
        }
    }

    #[test]
    fn ste_gradients_approximate_float_gradients_under_exact_kernel() {
        // With the exact multiplier and INT8 quantization, the STE
        // gradient should point close to the true float gradient.
        let model = small_conv(11);
        let calib = calib_images(8, &[1, 8, 8], 12);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let mut s = plan.scratch();
        let x = &calib[0];
        let (_, ste) = plan.loss_and_param_grads(&mut s, x, 2, &ExactMul);
        let (_, float) = model.loss_and_grads(x, 2);
        for (layer_idx, (a, b)) in ste.layers.iter().zip(&float.layers).enumerate() {
            for (ta, tb) in a.iter().zip(b) {
                let dot: f32 = ta.data().iter().zip(tb.data()).map(|(x, y)| x * y).sum();
                let na = ta.l2_norm();
                let nb = tb.l2_norm();
                if na > 1e-6 && nb > 1e-6 {
                    let cos = dot / (na * nb);
                    assert!(
                        cos > 0.8,
                        "layer {layer_idx}: STE gradient diverges (cos {cos})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_grads_are_bit_exact_with_per_image_fold() {
        let model = small_conv(21);
        let calib = calib_images(8, &[1, 8, 8], 22);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let approx = Registry::standard().build_lut("L40").unwrap();
        let images = calib_images(5, &[1, 8, 8], 23);
        let labels: Vec<usize> = (0..5).map(|i| i % 4).collect();
        let (loss, grads) =
            plan.loss_and_param_grads_batch(5, |i| &images[i], |i| labels[i], &approx);
        let mut s = plan.scratch();
        let mut want_loss = 0.0f32;
        let mut want = plan.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            let (l, g) = plan.loss_and_param_grads(&mut s, img, lbl, &approx);
            want_loss += l;
            want.accumulate(&g);
        }
        assert_eq!(loss, want_loss);
        assert_eq!(grads, want);
    }

    #[test]
    fn finetune_reduces_quantized_loss() {
        // An untrained model fine-tuned through the exact quantized
        // forward must learn (loss drops over epochs).
        let data = {
            let mut rng = Rng::seed_from_u64(31);
            let mut imgs = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..60 {
                let label = rng.index(4);
                let mut t = Tensor::zeros(&[1, 8, 8]);
                rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
                t.data_mut()[label * 7] += 1.0;
                imgs.push(t);
                labels.push(label);
            }
            Dataset::new("tiny", imgs, labels, 4)
        };
        let mut shadow = small_conv(32);
        let calib: Vec<Tensor> = (0..8).map(|i| data.image(i).clone()).collect();
        let cfg = FinetuneConfig {
            epochs: 4,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let (hist, tuned) = finetune(&mut shadow, &data, &calib, &ExactMul, &cfg).unwrap();
        assert_eq!(hist.losses.len(), 4);
        assert!(
            hist.losses.last().unwrap() < hist.losses.first().unwrap(),
            "losses {:?}",
            hist.losses
        );
        assert!(
            hist.accuracies.last().unwrap() >= &hist.initial_accuracy,
            "acc {:?} from {}",
            hist.accuracies,
            hist.initial_accuracy
        );
        // The returned victim is the final requantization of the shadow.
        let again =
            QuantModel::from_float_with_level(&shadow, &calib, cfg.placement, cfg.level).unwrap();
        assert_eq!(tuned, again);
    }

    /// `requant_every: 0` and "requantize after more batches than the
    /// epoch has" are the same schedule, so they must agree bitwise —
    /// the default preserves today's per-epoch behaviour exactly.
    #[test]
    fn requant_every_zero_is_bitwise_per_epoch() {
        let data = {
            let mut rng = Rng::seed_from_u64(91);
            let mut imgs = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..24 {
                let label = rng.index(4);
                let mut t = Tensor::zeros(&[1, 8, 8]);
                rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
                t.data_mut()[label * 7] += 1.0;
                imgs.push(t);
                labels.push(label);
            }
            Dataset::new("tiny", imgs, labels, 4)
        };
        let calib: Vec<Tensor> = (0..6).map(|i| data.image(i).clone()).collect();
        let lut = Registry::standard().build_lut("17KS").unwrap();
        let base = FinetuneConfig {
            epochs: 2,
            batch_size: 8,
            lr: 0.03,
            ..Default::default()
        };
        let mut shadow_a = small_conv(92);
        let (hist_a, qm_a) = finetune(&mut shadow_a, &data, &calib, &lut, &base).unwrap();
        let mut shadow_b = small_conv(92);
        let cfg_b = FinetuneConfig {
            requant_every: 1000, // one chunk per epoch, like 0
            ..base.clone()
        };
        let (hist_b, qm_b) = finetune(&mut shadow_b, &data, &calib, &lut, &cfg_b).unwrap();
        assert_eq!(hist_a, hist_b);
        assert_eq!(shadow_a, shadow_b);
        assert_eq!(qm_a, qm_b);

        // A genuinely finer schedule changes the trajectory: each chunk
        // trains against a fresher linearization.
        let mut shadow_c = small_conv(92);
        let cfg_c = FinetuneConfig {
            requant_every: 1,
            ..base
        };
        let (hist_c, _) = finetune(&mut shadow_c, &data, &calib, &lut, &cfg_c).unwrap();
        assert_eq!(hist_c.losses.len(), 2);
        assert!(hist_c.losses.iter().all(|l| l.is_finite()));
        assert!(hist_c.accuracies.iter().all(|a| (0.0..=1.0).contains(a)));
        assert_ne!(
            shadow_c, shadow_a,
            "per-batch requantization must actually change the linearization"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn empty_batch_is_rejected() {
        let model = small_conv(41);
        let calib = calib_images(2, &[1, 8, 8], 42);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let _ =
            plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!(), &ExactMul);
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn mixed_shape_batch_is_rejected() {
        let model = small_conv(43);
        let calib = calib_images(2, &[1, 8, 8], 44);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let ok = calib[0].clone();
        let bad = Tensor::zeros(&[8, 8]); // same length, different shape
        let images = [ok, bad];
        let _ = plan.loss_and_param_grads_batch(2, |i| &images[i], |_| 0, &ExactMul);
    }

    #[test]
    #[should_panic(expected = "is not the conv")]
    fn mismatched_shadow_is_rejected() {
        let model = small_conv(45);
        let calib = calib_images(2, &[1, 8, 8], 46);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let other = zoo::ffnn(&mut Rng::seed_from_u64(47));
        let _ = QTrainPlan::compile(&qm, &other, &[1, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn finetune_rejects_empty_dataset() {
        let mut shadow = small_conv(48);
        let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
        let calib = calib_images(2, &[1, 8, 8], 49);
        let _ = finetune(
            &mut shadow,
            &data,
            &calib,
            &ExactMul,
            &FinetuneConfig::default(),
        );
    }
}
