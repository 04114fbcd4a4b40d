//! Compiled float execution plans: shape resolution, scratch reuse, a
//! forward tape and the batched autodiff engine behind the gradient
//! attacks.
//!
//! An [`FPlan`] is compiled once per `(model, input shape)` pair: every
//! layer's output geometry, im2col patch footprint and activation length
//! is resolved up front (conv layers additionally pre-transpose their
//! weights for the input-gradient GEMM), so running an image does no
//! shape math and no allocation — all intermediate state, including the
//! forward tape the backward pass replays, lives in a reusable
//! [`FScratch`].
//!
//! [`Sequential::forward`], [`Sequential::input_gradient`] and
//! [`Sequential::loss_and_grads`] are thin wrappers over this engine and
//! remain bit-compatible with the seed layer-by-layer path (see
//! [`crate::exec`] for the accumulation-order argument). The batch entry
//! points ([`FPlan::input_gradient_batch_indexed`] and the
//! [`Sequential::input_gradient_batch`] family) run `N` images per pass,
//! chunked over threads via [`axutil::parallel::par_map_chunks`] with one
//! scratch per chunk — the engine `axattack`'s batched crafting steps on.
//!
//! Training rides the same engine through
//! [`FPlan::loss_and_param_grads_batch`]: a whole minibatch runs on one
//! plan with one *training* scratch per thread chunk
//! ([`FPlan::train_scratch`] additionally stores each conv layer's
//! forward im2col patches so the parameter-gradient backward reuses them
//! instead of re-extracting), and the per-image gradients are reduced in
//! a fixed left-to-right image order — the summed [`GradBuffer`] is
//! bit-identical to the seed per-image [`Sequential::loss_and_grads`]
//! fold for **any** thread chunking.
//!
//! # Plan caching and in-place weights
//!
//! Compiling a plan is cheap but not free (shape arithmetic plus one
//! conv-weight transpose per conv layer), so every multi-call driver in
//! the workspace hoists one plan out of its loop: the attack loops and
//! batch entry points compile once per crafting run, the sweep drivers
//! (`core::eval`, `core::algorithm1`) compile once per grid, and
//! one-shot wrappers ([`Sequential::forward`], [`Sequential::accuracy`])
//! remain the only fresh-plan-per-call sites — by design, they are the
//! convenience tier. Training goes one further: a borrowed plan
//! pre-transposes the *current* weights, which would force a recompile
//! after every optimizer step, so [`Sequential::plan_owned`] /
//! [`FPlan::into_owned`] produce a plan that **owns** its parameters and
//! is updated in place through [`FPlan::with_params_mut`] — the
//! optimizer writes straight into the plan's tensors and only the
//! changed conv layers' packed backward panels are re-derived
//! ([`crate::optim::Sgd::step_plan_scaled`]). [`crate::train::fit`]
//! compiles exactly one plan per run this way and writes the weights
//! back with [`FPlan::store_weights_into`] at the end.
//! [`BackwardTables`] still lets the geometry-only backward gather
//! tables survive recompiles for callers that *do* rebuild borrowed
//! plans (e.g. per-epoch requantization in `axquant::qtrain`).
//!
//! ```
//! use axnn::zoo;
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! let model = zoo::ffnn(&mut Rng::seed_from_u64(0));
//! let plan = model.plan(&[1, 28, 28]);
//! let mut scratch = plan.scratch();
//! let x = Tensor::full(&[1, 28, 28], 0.4);
//! let (loss, grad) = plan.input_gradient(&mut scratch, &x, 3);
//! assert_eq!(grad.dims(), &[1, 28, 28]);
//! assert!(loss > 0.0);
//! // Bit-identical to the wrapper (which compiles a fresh plan per call).
//! assert_eq!(model.input_gradient(&x, 3), (loss, grad));
//! ```

use std::sync::{Arc, OnceLock};

use axtensor::Tensor;
use axutil::parallel;

use crate::exec::{self, FloatGemm};
use crate::layer::Layer;
use crate::loss::cross_entropy_with_grad;
use crate::model::{GradBuffer, Sequential};

/// A plan-held parameter tensor: borrowed from the compiled model (the
/// zero-copy default) or owned by the plan itself so an optimizer can
/// update it in place ([`FPlan::with_params_mut`]) without recompiling.
#[derive(Debug)]
enum PlanParam<'m> {
    Borrowed(&'m Tensor),
    Owned(Tensor),
}

impl PlanParam<'_> {
    fn data(&self) -> &[f32] {
        self.tensor().data()
    }

    fn dims(&self) -> &[usize] {
        self.tensor().dims()
    }

    fn tensor(&self) -> &Tensor {
        match self {
            PlanParam::Borrowed(t) => t,
            PlanParam::Owned(t) => t,
        }
    }

    /// The owned tensor, for in-place updates.
    ///
    /// # Panics
    ///
    /// Panics on a borrowed parameter — in-place updates require an
    /// owned plan ([`FPlan::into_owned`]).
    fn owned_mut(&mut self) -> &mut Tensor {
        match self {
            PlanParam::Borrowed(_) => {
                panic!("plan borrows its parameters; compile an owned plan for in-place updates")
            }
            PlanParam::Owned(t) => t,
        }
    }

    fn into_owned(self) -> PlanParam<'static> {
        match self {
            PlanParam::Borrowed(t) => PlanParam::Owned(t.clone()),
            PlanParam::Owned(t) => PlanParam::Owned(t),
        }
    }
}

/// One resolved layer of a compiled plan.
#[derive(Debug)]
enum FStep<'m> {
    /// im2col + GEMM forward; transposed-GEMM input gradient.
    Conv {
        w: PlanParam<'m>,
        b: PlanParam<'m>,
        in_dims: [usize; 3],
        k: usize,
        stride: usize,
        pad: usize,
        /// Output positions (`oh * ow`) = forward GEMM rows.
        rows: usize,
        /// Patch width (`in_c * k * k`) = forward GEMM columns.
        cols: usize,
        out_dims: [usize; 3],
        /// Weights re-laid as `[in_c, out_c * k * k]` in the flipped
        /// column order of [`exec::grad_im2col`], computed once at
        /// compile time for the backward GEMM.
        wt: Vec<f32>,
        /// Gather-index table for the backward gradient patches
        /// ([`exec::build_grad_gather`]), built by
        /// [`FPlan::prepare_backward`]. Batch entry points build it once
        /// and amortize it across all images and steps; one-shot wrapper
        /// calls skip it and use the direct gather instead. `Arc` so the
        /// geometry-only table outlives the plan via [`BackwardTables`]
        /// and survives the per-optimizer-step recompiles of training.
        gather: OnceLock<Arc<Vec<i32>>>,
        /// Input positions (`h * w`) = backward GEMM rows.
        bwd_rows: usize,
        /// Gradient-patch width (`out_c * k * k`) = backward GEMM columns.
        bwd_cols: usize,
    },
    /// Row GEMM with bias added last.
    Dense {
        w: PlanParam<'m>,
        b: PlanParam<'m>,
        in_dim: usize,
        out_dim: usize,
    },
    AvgPool {
        k: usize,
        in_dims: [usize; 3],
    },
    Relu {
        len: usize,
    },
    /// Shape-only on flat buffers.
    Flatten,
}

/// A compiled float execution plan for one [`Sequential`] and input
/// shape.
///
/// Cheap to build (shape arithmetic plus one conv-weight transpose per
/// conv layer); holds references into the model's parameters — or owned
/// copies after [`FPlan::into_owned`], which detaches the plan from the
/// model so optimizers can update it in place. See the
/// [module docs](self) for the execution model.
#[derive(Debug)]
pub struct FPlan<'m> {
    steps: Vec<FStep<'m>>,
    in_dims: Vec<usize>,
    in_len: usize,
    /// Per-step input activation lengths; `act_lens[i]` is what layer `i`
    /// reads, and the final logits buffer is tracked separately.
    act_lens: Vec<usize>,
    out_len: usize,
    /// Largest activation any step reads or writes (gradient ping-pong
    /// buffers are sized to this).
    max_act: usize,
    /// Largest forward or backward im2col patch any conv step needs.
    max_patch: usize,
    /// GEMM tier every kernel call dispatches through, resolved once at
    /// compile time from the active [`axutil::exec::current`] context.
    kernel: exec::FloatKernel,
}

/// Reusable buffers for executing an [`FPlan`]: the forward tape (one
/// activation buffer per layer input plus the logits), the shared im2col
/// patch buffer and a gradient ping-pong pair. Build one per thread with
/// [`FPlan::scratch`] (or [`FPlan::train_scratch`] for parameter-gradient
/// loops) and reuse it across images and attack steps.
#[derive(Debug)]
pub struct FScratch {
    /// `acts[i]` is the input to step `i`; `acts.last()` holds the logits.
    acts: Vec<Vec<f32>>,
    patch: Vec<f32>,
    grad: [Vec<f32>; 2],
    /// Per-step forward im2col patches (empty for non-conv steps, and
    /// empty overall for a plain [`FPlan::scratch`]). When present, the
    /// forward pass writes each conv layer's patches here and the
    /// parameter-gradient backward reads them back instead of re-running
    /// `im2col` — identical bytes, one extraction instead of two.
    fwd_patches: Vec<Vec<f32>>,
}

/// The geometry of one conv step's backward gather table — the full key
/// [`exec::build_grad_gather`] is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GatherKey {
    out_dims: [usize; 3],
    in_hw: [usize; 2],
    k: usize,
    stride: usize,
    pad: usize,
}

/// Backward gather-index tables lifted out of a compiled [`FPlan`],
/// re-installable into any later plan with identical conv geometry.
///
/// The tables depend only on layer geometry — never on weights — so they
/// can outlive any particular plan. The float training loop no longer
/// needs this (its owned plan is updated in place, see
/// [`FPlan::with_params_mut`]), but callers that genuinely rebuild
/// borrowed plans — per-epoch requantization in `axquant::qtrain`, or
/// repeated sweeps over the same geometry — extract the tables once
/// ([`FPlan::backward_tables`]) and install them into each fresh plan
/// ([`FPlan::install_backward_tables`]), keeping the recompile down to
/// shape arithmetic plus the weight transpose. Cloning is cheap (the
/// tables are shared via [`Arc`]).
#[derive(Debug, Clone, Default)]
pub struct BackwardTables {
    /// One entry per conv step, in step order.
    entries: Vec<(GatherKey, Arc<Vec<i32>>)>,
}

impl Sequential {
    /// Compiles a float execution plan for inputs of shape `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` does not match the model's expected layout
    /// (`[C, H, W]` into a first conv/pool layer, flattened length into a
    /// first dense layer).
    pub fn plan(&self, input_dims: &[usize]) -> FPlan<'_> {
        FPlan::compile(self, input_dims)
    }

    /// Like [`Sequential::plan`], but the returned plan owns a copy of
    /// every parameter tensor, detaching it from the model's lifetime so
    /// an optimizer can update it in place ([`FPlan::with_params_mut`])
    /// instead of recompiling after every step.
    pub fn plan_owned(&self, input_dims: &[usize]) -> FPlan<'static> {
        FPlan::compile(self, input_dims).into_owned()
    }
}

/// Re-lays conv weights (`[out_c, in_c, k, k]` row-major data in `wd`)
/// as the packed backward panel `[in_c, out_c * k * k]` in the flipped
/// column order of [`exec::grad_im2col`]:
/// `wt[c][(o, ky desc, kx desc)] = w[o][c][ky][kx]`. Shared between plan
/// compilation and the in-place repack after a weight update.
fn transpose_conv_weights(wd: &[f32], oc: usize, ic: usize, k: usize, wt: &mut [f32]) {
    let bwd_cols = oc * k * k;
    debug_assert_eq!(wt.len(), ic * bwd_cols);
    for ci in 0..ic {
        let dst = &mut wt[ci * bwd_cols..(ci + 1) * bwd_cols];
        let mut j = 0;
        for o in 0..oc {
            for ky in (0..k).rev() {
                for kx in (0..k).rev() {
                    dst[j] = wd[((o * ic + ci) * k + ky) * k + kx];
                    j += 1;
                }
            }
        }
    }
}

impl<'m> FPlan<'m> {
    /// Resolves every layer's geometry once. See [`Sequential::plan`].
    pub fn compile(model: &'m Sequential, input_dims: &[usize]) -> Self {
        let mut dims: Vec<usize> = input_dims.to_vec();
        let in_len: usize = dims.iter().product();
        let mut max_act = in_len;
        let mut max_patch = 0usize;
        let mut act_lens = Vec::with_capacity(model.layers().len());
        let mut steps = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            act_lens.push(dims.iter().product());
            match layer {
                Layer::Conv2d(c) => {
                    let [ic, h, w] = dims[..] else {
                        panic!("conv input must be [C, H, W], got {dims:?}");
                    };
                    let [oc, wic, kh, kw] = *c.weight().dims() else {
                        unreachable!("conv weights are 4-D");
                    };
                    assert_eq!(ic, wic, "conv channel mismatch");
                    assert_eq!(kh, kw, "square kernels only");
                    let (k, stride, pad) = (kh, c.stride(), c.pad());
                    let oh = (h + 2 * pad)
                        .checked_sub(k)
                        .expect("kernel larger than input")
                        / stride
                        + 1;
                    let ow = (w + 2 * pad)
                        .checked_sub(k)
                        .expect("kernel larger than input")
                        / stride
                        + 1;
                    let (rows, cols) = (oh * ow, ic * k * k);
                    let (bwd_rows, bwd_cols) = (h * w, oc * k * k);
                    // Pre-transpose the weights into grad_im2col's flipped
                    // column order (the packed backward panel).
                    let mut wt = vec![0.0f32; ic * bwd_cols];
                    transpose_conv_weights(c.weight().data(), oc, ic, k, &mut wt);
                    max_patch = max_patch.max(rows * cols).max(bwd_rows * bwd_cols);
                    steps.push(FStep::Conv {
                        w: PlanParam::Borrowed(c.weight()),
                        b: PlanParam::Borrowed(c.bias()),
                        in_dims: [ic, h, w],
                        k,
                        stride,
                        pad,
                        rows,
                        cols,
                        out_dims: [oc, oh, ow],
                        wt,
                        gather: OnceLock::new(),
                        bwd_rows,
                        bwd_cols,
                    });
                    dims = vec![oc, oh, ow];
                }
                Layer::Dense(d) => {
                    let flat: usize = dims.iter().product();
                    let [out_dim, in_dim] = *d.weight().dims() else {
                        unreachable!("dense weights are 2-D");
                    };
                    assert_eq!(flat, in_dim, "dense input size mismatch");
                    steps.push(FStep::Dense {
                        w: PlanParam::Borrowed(d.weight()),
                        b: PlanParam::Borrowed(d.bias()),
                        in_dim,
                        out_dim,
                    });
                    dims = vec![out_dim];
                }
                Layer::AvgPool(p) => {
                    let [c, h, w] = dims[..] else {
                        panic!("pool input must be [C, H, W], got {dims:?}");
                    };
                    let k = p.k();
                    assert!(h % k == 0 && w % k == 0, "pool window does not tile input");
                    let (oh, ow) = (h / k, w / k);
                    steps.push(FStep::AvgPool {
                        k,
                        in_dims: [c, h, w],
                    });
                    dims = vec![c, oh, ow];
                }
                Layer::Relu => {
                    steps.push(FStep::Relu {
                        len: dims.iter().product(),
                    });
                }
                Layer::Flatten => {
                    steps.push(FStep::Flatten);
                    dims = vec![dims.iter().product()];
                }
            }
            max_act = max_act.max(dims.iter().product());
        }
        FPlan {
            steps,
            in_dims: input_dims.to_vec(),
            in_len,
            act_lens,
            out_len: dims.iter().product(),
            max_act,
            max_patch,
            kernel: axutil::exec::current().kernel,
        }
    }

    /// The planned input shape.
    pub fn input_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Length of the logits vector.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// The GEMM tier this plan dispatches through (resolved from the
    /// active execution context at compile time).
    pub fn kernel(&self) -> exec::FloatKernel {
        self.kernel
    }

    /// Clones every borrowed parameter into the plan, detaching it from
    /// the model's lifetime. The owned plan can then be updated in place
    /// with [`FPlan::with_params_mut`] and written back with
    /// [`FPlan::store_weights_into`]. Already-owned parameters move as
    /// is, so the call is idempotent.
    pub fn into_owned(self) -> FPlan<'static> {
        let FPlan {
            steps,
            in_dims,
            in_len,
            act_lens,
            out_len,
            max_act,
            max_patch,
            kernel,
        } = self;
        let steps = steps
            .into_iter()
            .map(|step| match step {
                FStep::Conv {
                    w,
                    b,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    out_dims,
                    wt,
                    gather,
                    bwd_rows,
                    bwd_cols,
                } => FStep::Conv {
                    w: w.into_owned(),
                    b: b.into_owned(),
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    out_dims,
                    wt,
                    gather,
                    bwd_rows,
                    bwd_cols,
                },
                FStep::Dense {
                    w,
                    b,
                    in_dim,
                    out_dim,
                } => FStep::Dense {
                    w: w.into_owned(),
                    b: b.into_owned(),
                    in_dim,
                    out_dim,
                },
                FStep::AvgPool { k, in_dims } => FStep::AvgPool { k, in_dims },
                FStep::Relu { len } => FStep::Relu { len },
                FStep::Flatten => FStep::Flatten,
            })
            .collect();
        FPlan {
            steps,
            in_dims,
            in_len,
            act_lens,
            out_len,
            max_act,
            max_patch,
            kernel,
        }
    }

    /// Hands every parameter tensor (one `[weight, bias]` group per
    /// conv/dense step, empty groups for the rest — the exact
    /// [`GradBuffer`] layout) to `f` for in-place mutation, then
    /// re-derives the packed backward panels of the conv layers so the
    /// plan's pre-transposed weights stay consistent with the update.
    /// Dense layers need no repack (their forward reads the row-major
    /// weights directly), so a dense-only model's update is pure
    /// write-through.
    ///
    /// # Panics
    ///
    /// Panics if the plan borrows its parameters — compile with
    /// [`Sequential::plan_owned`] / [`FPlan::into_owned`] first.
    pub fn with_params_mut<R>(&mut self, f: impl FnOnce(&mut [Vec<&mut Tensor>]) -> R) -> R {
        let out = {
            let mut params: Vec<Vec<&mut Tensor>> = self
                .steps
                .iter_mut()
                .map(|step| match step {
                    FStep::Conv { w, b, .. } | FStep::Dense { w, b, .. } => {
                        vec![w.owned_mut(), b.owned_mut()]
                    }
                    _ => vec![],
                })
                .collect();
            f(&mut params)
        };
        self.repack_conv_panels();
        out
    }

    /// Recomputes every conv step's packed backward panel from its
    /// (possibly just-updated) weights.
    fn repack_conv_panels(&mut self) {
        for step in &mut self.steps {
            if let FStep::Conv { w, wt, .. } = step {
                let &[oc, ic, k, _] = w.dims() else {
                    unreachable!("conv weights are 4-D");
                };
                transpose_conv_weights(w.data(), oc, ic, k, wt);
            }
        }
    }

    /// Copies the plan's owned parameters back into `model` — the final
    /// write-back after an in-place training run. `model` must be the
    /// model the plan was compiled from (layer kinds and parameter
    /// shapes are checked).
    ///
    /// # Panics
    ///
    /// Panics on a borrowed plan, or when `model`'s structure does not
    /// match the plan's.
    pub fn store_weights_into(&self, model: &mut Sequential) {
        let layers = model.layers_mut();
        assert_eq!(layers.len(), self.steps.len(), "model/plan layer mismatch");
        for (layer, step) in layers.iter_mut().zip(&self.steps) {
            let mut params = layer.params_mut();
            match step {
                FStep::Conv { w, b, .. } | FStep::Dense { w, b, .. } => {
                    assert_eq!(params.len(), 2, "model/plan layer mismatch");
                    for (dst, src) in params.iter_mut().zip([w, b]) {
                        let src = match src {
                            PlanParam::Owned(t) => t,
                            PlanParam::Borrowed(_) => {
                                panic!("plan borrows its parameters; nothing to write back")
                            }
                        };
                        assert_eq!(dst.dims(), src.dims(), "model/plan shape mismatch");
                        dst.data_mut().copy_from_slice(src.data());
                    }
                }
                _ => assert!(params.is_empty(), "model/plan layer mismatch"),
            }
        }
    }

    /// Pre-builds the backward gather-index tables
    /// ([`exec::build_grad_gather`]) for every conv layer.
    ///
    /// Replaces the per-element stride divisions of the direct gradient
    /// gather with a table walk. Building a table costs about as much as
    /// one direct gather, so this pays off whenever a plan runs more
    /// than a couple of backward passes — the batch entry points and the
    /// batched attack loops call it up front; one-shot wrapper calls
    /// (`Sequential::input_gradient`) skip it. Results are bit-identical
    /// either way; idempotent and thread-safe.
    pub fn prepare_backward(&self) {
        for step in &self.steps {
            if let FStep::Conv {
                in_dims,
                k,
                stride,
                pad,
                out_dims,
                gather,
                ..
            } = step
            {
                gather.get_or_init(|| {
                    Arc::new(exec::build_grad_gather(
                        *out_dims,
                        [in_dims[1], in_dims[2]],
                        *k,
                        *stride,
                        *pad,
                    ))
                });
            }
        }
    }

    /// Builds (if necessary) and extracts every conv layer's backward
    /// gather table, keyed by its geometry, for reuse across plan
    /// recompiles — see [`BackwardTables`].
    pub fn backward_tables(&self) -> BackwardTables {
        self.prepare_backward();
        BackwardTables {
            entries: self
                .conv_gather_slots()
                .map(|(key, gather)| {
                    let table = gather.get().expect("prepare_backward ran").clone();
                    (key, table)
                })
                .collect(),
        }
    }

    /// Installs gather tables extracted from a geometrically identical
    /// plan (same conv layers, shapes, strides and padding), making
    /// [`FPlan::prepare_backward`] a no-op. Idempotent; slots that are
    /// already initialized keep their table (the bytes are equal either
    /// way).
    ///
    /// # Panics
    ///
    /// Panics if `tables` came from a plan with different conv geometry.
    pub fn install_backward_tables(&self, tables: &BackwardTables) {
        let slots: Vec<_> = self.conv_gather_slots().collect();
        assert_eq!(
            slots.len(),
            tables.entries.len(),
            "conv step count mismatch"
        );
        for ((key, gather), (t_key, table)) in slots.into_iter().zip(&tables.entries) {
            assert_eq!(key, *t_key, "conv geometry mismatch");
            gather.get_or_init(|| table.clone());
        }
    }

    /// Every conv step's gather slot with its geometry key, in step order.
    fn conv_gather_slots(&self) -> impl Iterator<Item = (GatherKey, &OnceLock<Arc<Vec<i32>>>)> {
        self.steps.iter().filter_map(|step| {
            if let FStep::Conv {
                in_dims,
                k,
                stride,
                pad,
                out_dims,
                gather,
                ..
            } = step
            {
                Some((
                    GatherKey {
                        out_dims: *out_dims,
                        in_hw: [in_dims[1], in_dims[2]],
                        k: *k,
                        stride: *stride,
                        pad: *pad,
                    },
                    gather,
                ))
            } else {
                None
            }
        })
    }

    /// Allocates the scratch buffers (forward tape, im2col patch and
    /// gradient ping-pong) this plan needs.
    pub fn scratch(&self) -> FScratch {
        let mut acts: Vec<Vec<f32>> = self.act_lens.iter().map(|&n| vec![0.0f32; n]).collect();
        acts.push(vec![0.0f32; self.out_len]);
        FScratch {
            acts,
            patch: vec![0.0f32; self.max_patch],
            grad: [vec![0.0f32; self.max_act], vec![0.0f32; self.max_act]],
            fwd_patches: Vec::new(),
        }
    }

    /// Like [`FPlan::scratch`], plus one forward-patch buffer per conv
    /// layer: the forward pass stores every conv layer's im2col patches
    /// so the parameter-gradient backward reuses them instead of
    /// re-extracting. Identical results either way — the stored buffer
    /// holds exactly the bytes the recomputation would produce — at the
    /// cost of the summed conv patch footprint, so use this for training
    /// loops and [`FPlan::scratch`] for input-gradient work.
    pub fn train_scratch(&self) -> FScratch {
        let mut s = self.scratch();
        s.fwd_patches = self
            .steps
            .iter()
            .map(|step| match step {
                FStep::Conv { rows, cols, .. } => vec![0.0f32; rows * cols],
                _ => Vec::new(),
            })
            .collect();
        s
    }

    /// Runs the forward pass, recording every layer input in the tape.
    /// Leaves the logits in the tape's final buffer.
    fn run_forward(&self, s: &mut FScratch, x: &Tensor) {
        assert_eq!(
            x.len(),
            self.in_len,
            "input does not match the planned shape"
        );
        let FScratch {
            acts,
            patch,
            fwd_patches,
            ..
        } = s;
        acts[0][..self.in_len].copy_from_slice(x.data());
        for (i, step) in self.steps.iter().enumerate() {
            let (head, tail) = acts.split_at_mut(i + 1);
            let src = &head[i];
            let dst = &mut tail[0];
            match *step {
                FStep::Conv {
                    ref w,
                    ref b,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    ..
                } => {
                    // Training scratches keep this layer's patches for the
                    // parameter-gradient backward; plain scratches share
                    // one buffer across layers.
                    let pbuf: &mut Vec<f32> = if fwd_patches.is_empty() {
                        patch
                    } else {
                        &mut fwd_patches[i]
                    };
                    exec::im2col(src, in_dims, k, stride, pad, rows, cols, pbuf);
                    self.kernel
                        .conv_forward(w.data(), b.data(), pbuf, rows, cols, dst);
                }
                FStep::Dense {
                    ref w,
                    ref b,
                    in_dim,
                    ..
                } => {
                    self.kernel
                        .dense_forward(w.data(), b.data(), &src[..in_dim], dst);
                }
                FStep::AvgPool { k, in_dims, .. } => {
                    exec::avgpool(src, in_dims, k, dst);
                }
                FStep::Relu { .. } => exec::relu(src, dst),
                FStep::Flatten => dst.copy_from_slice(src),
            }
        }
    }

    /// The logits slice after [`FPlan::run_forward`].
    fn logits<'s>(&self, s: &'s FScratch) -> &'s [f32] {
        s.acts.last().expect("tape holds the logits")
    }

    /// Runs one image forward, returning logits. Bit-compatible with the
    /// seed layer-by-layer path (see the [module docs](self)).
    pub fn forward(&self, s: &mut FScratch, x: &Tensor) -> Tensor {
        self.run_forward(s, x);
        Tensor::from_vec(self.logits(s).to_vec(), &[self.out_len])
    }

    /// The predicted class for one image.
    pub fn predict(&self, s: &mut FScratch, x: &Tensor) -> usize {
        self.run_forward(s, x);
        argmax(self.logits(s))
    }

    /// Back-propagates the loss gradient down the tape (the forward pass
    /// must have run). Returns the loss and the ping-pong side holding
    /// the input gradient; parameter gradients are accumulated into
    /// `buf` when provided.
    fn run_backward(
        &self,
        s: &mut FScratch,
        target: usize,
        mut buf: Option<&mut GradBuffer>,
    ) -> (f32, usize) {
        let logits = Tensor::from_vec(self.logits(s).to_vec(), &[self.out_len]);
        let (loss, dlogits) = cross_entropy_with_grad(&logits, target);
        let FScratch {
            acts,
            patch,
            grad,
            fwd_patches,
        } = s;
        let mut side = 0usize;
        grad[side][..self.out_len].copy_from_slice(dlogits.data());
        for (i, step) in self.steps.iter().enumerate().rev() {
            let in_len = self.act_lens[i];
            let x = &acts[i];
            let (gsrc, gdst) = grad_sides(grad, side);
            match *step {
                FStep::Conv {
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    out_dims,
                    ref wt,
                    ref gather,
                    bwd_rows,
                    bwd_cols,
                    ..
                } => {
                    let g = &gsrc[..out_dims.iter().product::<usize>()];
                    if let Some(buf) = buf.as_deref_mut() {
                        // Parameter grads read the *forward* patches of
                        // this layer's input: straight off the training
                        // scratch's tape when present, recomputed on
                        // demand otherwise (same bytes either way).
                        let fp: &[f32] = if fwd_patches.is_empty() {
                            exec::im2col(&x[..in_len], in_dims, k, stride, pad, rows, cols, patch);
                            patch
                        } else {
                            &fwd_patches[i]
                        };
                        let (wg, bg) = buf.layers[i].split_at_mut(1);
                        self.kernel.conv_backward_params(
                            g,
                            fp,
                            rows,
                            cols,
                            wg[0].data_mut(),
                            bg[0].data_mut(),
                        );
                    }
                    // The indexed gather and the direct one produce the
                    // same bytes; which runs is purely a cost trade-off
                    // (see `prepare_backward`).
                    match gather.get() {
                        Some(table) => exec::grad_im2col_indexed(g, table, patch),
                        None => exec::grad_im2col(
                            g,
                            out_dims,
                            [in_dims[1], in_dims[2]],
                            k,
                            stride,
                            pad,
                            patch,
                        ),
                    }
                    self.kernel
                        .conv_backward_dx(wt, patch, bwd_rows, bwd_cols, gdst);
                }
                FStep::Dense {
                    ref w,
                    in_dim,
                    out_dim,
                    ..
                } => {
                    let (dw, db) = match buf.as_deref_mut() {
                        Some(buf) => {
                            let (wg, bg) = buf.layers[i].split_at_mut(1);
                            (Some(wg[0].data_mut()), Some(bg[0].data_mut()))
                        }
                        None => (None, None),
                    };
                    self.kernel.dense_backward(
                        w.data(),
                        &gsrc[..out_dim],
                        &x[..in_dim],
                        gdst,
                        dw,
                        db,
                    );
                }
                FStep::AvgPool { k, in_dims, .. } => {
                    let [c, h, w] = in_dims;
                    let out_len = c * (h / k) * (w / k);
                    exec::avgpool_backward(&gsrc[..out_len], in_dims, k, gdst);
                }
                FStep::Relu { len } => {
                    exec::relu_backward(&x[..len], &gsrc[..len], gdst);
                }
                FStep::Flatten => {
                    gdst[..in_len].copy_from_slice(&gsrc[..in_len]);
                }
            }
            side = 1 - side;
        }
        (loss, side)
    }

    /// Cross-entropy loss and the gradient with respect to the input —
    /// the quantity gradient-based adversarial attacks ascend.
    /// Bit-compatible with the seed [`Sequential::input_gradient`] path.
    pub fn input_gradient(&self, s: &mut FScratch, x: &Tensor, target: usize) -> (f32, Tensor) {
        self.run_forward(s, x);
        let (loss, side) = self.run_backward(s, target, None);
        (
            loss,
            Tensor::from_vec(s.grad[side][..self.in_len].to_vec(), x.dims()),
        )
    }

    /// Cross-entropy loss and parameter gradients for one example.
    /// Bit-compatible with the seed [`Sequential::loss_and_grads`] path.
    pub fn loss_and_grads(&self, s: &mut FScratch, x: &Tensor, target: usize) -> (f32, GradBuffer) {
        self.run_forward(s, x);
        let mut buf = self.zero_grads();
        let (loss, _) = self.run_backward(s, target, Some(&mut buf));
        (loss, buf)
    }

    fn zero_layer_grads(&self, i: usize) -> Vec<Tensor> {
        match &self.steps[i] {
            FStep::Conv { w, b, .. } | FStep::Dense { w, b, .. } => {
                vec![Tensor::zeros(w.dims()), Tensor::zeros(b.dims())]
            }
            _ => vec![],
        }
    }

    /// Input gradients for `n` images in parallel image chunks with one
    /// scratch per chunk. `image(i)` / `label(i)` supply the examples;
    /// returns one `(loss, gradient)` pair per image, in index order and
    /// bit-identical to per-image [`FPlan::input_gradient`] calls
    /// regardless of how the work is chunked.
    pub fn input_gradient_batch_indexed<'a, F, G>(
        &self,
        n: usize,
        image: F,
        label: G,
    ) -> Vec<(f32, Tensor)>
    where
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        self.prepare_backward();
        parallel::par_map_chunks(n, |range| {
            let mut s = self.scratch();
            range
                .map(|i| self.input_gradient(&mut s, image(i), label(i)))
                .collect()
        })
    }

    /// Correct-prediction count over `n` examples in parallel image
    /// chunks with one scratch per chunk — the shared core behind
    /// [`Sequential::accuracy`] and [`crate::train::eval_on`].
    pub fn count_correct<'a, F, G>(&self, n: usize, image: F, label: G) -> usize
    where
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        parallel::par_map_chunks(n, |range| {
            let mut s = self.scratch();
            range
                .map(|i| usize::from(self.predict(&mut s, image(i)) == label(i)))
                .collect()
        })
        .into_iter()
        .sum()
    }

    /// Summed cross-entropy loss and parameter gradients over a whole
    /// minibatch — the training hot path.
    ///
    /// The batch is split into contiguous image chunks over threads
    /// ([`axutil::parallel::par_map_chunks`]); each chunk runs on one
    /// [`FPlan::train_scratch`] (forward tape and conv patches reused
    /// across its images). The per-image gradients are then reduced in a
    /// fixed left-to-right image order into one [`GradBuffer`], so the
    /// sum — and the summed loss — is **bit-identical** to the seed
    /// per-image fold
    /// `for i { loss += l_i; grads.accumulate(&g_i) }` regardless of how
    /// the work is chunked: chunk results are concatenated in index
    /// order before the reduction, because a chunk-level pre-sum would
    /// tie the float accumulation order to the thread count. (When the
    /// whole batch runs as one chunk the fold happens inline — the
    /// serial fold *is* the reference order — so each per-image gradient
    /// is accumulated and freed immediately instead of all `n` being
    /// buffered until the fold.)
    ///
    /// Callers wanting the *mean* divide by `n` afterwards, exactly like
    /// the seed loop ([`crate::train::batch_gradient`] does).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — a zero gradient there would silently
    /// stall training, matching the non-empty conventions of
    /// [`Sequential::accuracy`].
    pub fn loss_and_param_grads_batch<'a, F, G>(
        &self,
        n: usize,
        image: F,
        label: G,
    ) -> (f32, GradBuffer)
    where
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        assert!(n > 0, "loss_and_param_grads_batch needs a non-empty batch");
        self.prepare_backward();
        if parallel::num_threads().min(n) <= 1 {
            // One chunk: fold as we go — this is exactly the reference
            // image-order reduction, without buffering per-image grads.
            let mut s = self.train_scratch();
            let mut loss = 0.0f32;
            let mut grads = self.zero_grads();
            for i in 0..n {
                let (l, g) = self.loss_and_grads(&mut s, image(i), label(i));
                loss += l;
                grads.accumulate(&g);
            }
            return (loss, grads);
        }
        let per_image: Vec<(f32, GradBuffer)> = parallel::par_map_chunks(n, |range| {
            let mut s = self.train_scratch();
            range
                .map(|i| self.loss_and_grads(&mut s, image(i), label(i)))
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

    /// Zero gradients shaped like the planned model's parameters (the
    /// same layout as [`Sequential::zero_grads`]).
    pub fn zero_grads(&self) -> GradBuffer {
        GradBuffer {
            layers: (0..self.steps.len())
                .map(|i| self.zero_layer_grads(i))
                .collect(),
        }
    }
}

/// Splits the gradient ping-pong pair into `(read, write)` for `side`.
fn grad_sides(grad: &mut [Vec<f32>; 2], side: usize) -> (&Vec<f32>, &mut Vec<f32>) {
    let (lo, hi) = grad.split_at_mut(1);
    if side == 0 {
        (&lo[0], &mut hi[0])
    } else {
        (&hi[0], &mut lo[0])
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use axutil::rng::Rng;

    fn rand_image(dims: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        Rng::seed_from_u64(seed).fill_range_f32(t.data_mut(), 0.0, 1.0);
        t
    }

    /// The seed layer-by-layer forward, kept as the reference path.
    fn seed_forward(m: &Sequential, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in m.layers() {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// The seed layer-by-layer input gradient, kept as the reference path.
    fn seed_input_gradient(m: &Sequential, x: &Tensor, target: usize) -> (f32, Tensor) {
        let (inputs, logits) = m.forward_trace(x);
        let (loss, mut grad) = cross_entropy_with_grad(&logits, target);
        for (i, layer) in m.layers().iter().enumerate().rev() {
            grad = layer.backward(&inputs[i], &grad, None);
        }
        (loss, grad)
    }

    #[test]
    fn lenet_plan_is_bit_identical_to_seed_paths() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(3));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        for seed in 0..4 {
            let x = rand_image(&[1, 28, 28], seed);
            let y = plan.forward(&mut s, &x);
            assert_eq!(y.data(), seed_forward(&model, &x).reshaped(&[10]).data());
            let (loss, grad) = plan.input_gradient(&mut s, &x, seed as usize % 10);
            let (sl, sg) = seed_input_gradient(&model, &x, seed as usize % 10);
            assert_eq!(loss, sl);
            assert_eq!(grad, sg);
        }
    }

    #[test]
    fn alexnet_padded_plan_matches_seed() {
        let model = zoo::alexnet_mini(&mut Rng::seed_from_u64(5));
        let plan = model.plan(&[3, 32, 32]);
        let mut s = plan.scratch();
        let x = rand_image(&[3, 32, 32], 9);
        assert_eq!(
            plan.forward(&mut s, &x).data(),
            seed_forward(&model, &x).data()
        );
        let (_, grad) = plan.input_gradient(&mut s, &x, 7);
        let (_, sg) = seed_input_gradient(&model, &x, 7);
        assert_eq!(grad, sg);
    }

    #[test]
    fn strided_conv_backward_matches_seed() {
        use crate::layer::{Conv2d, Dense, Layer};
        let mut rng = Rng::seed_from_u64(8);
        let model = Sequential::new(
            "strided",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, &mut rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 4 * 4, 5, &mut rng)),
            ],
        );
        let plan = model.plan(&[2, 7, 7]);
        let mut s = plan.scratch();
        let x = rand_image(&[2, 7, 7], 11);
        let (loss, grad) = plan.input_gradient(&mut s, &x, 2);
        let (sl, sg) = seed_input_gradient(&model, &x, 2);
        assert_eq!(loss, sl);
        assert_eq!(grad, sg);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(12));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let a = rand_image(&[1, 28, 28], 1);
        let b = rand_image(&[1, 28, 28], 2);
        let first = plan.input_gradient(&mut s, &a, 3);
        let other = plan.input_gradient(&mut s, &b, 5);
        let again = plan.input_gradient(&mut s, &a, 3);
        assert_eq!(first, again);
        assert_ne!(first, other);
    }

    #[test]
    fn loss_and_grads_matches_seed_path() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(21));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let x = rand_image(&[1, 28, 28], 22);
        let (loss, buf) = plan.loss_and_grads(&mut s, &x, 4);
        // Seed reference: forward_trace + Layer::backward with param grads.
        let (inputs, logits) = model.forward_trace(&x);
        let (sl, mut grad) = cross_entropy_with_grad(&logits, 4);
        let mut sbuf = model.zero_grads();
        for (i, layer) in model.layers().iter().enumerate().rev() {
            let pg = &mut sbuf.layers[i];
            let slice = if pg.is_empty() {
                None
            } else {
                Some(pg.as_mut_slice())
            };
            grad = layer.backward(&inputs[i], &grad, slice);
        }
        assert_eq!(loss, sl);
        assert_eq!(buf, sbuf);
    }

    #[test]
    fn batched_input_gradients_match_scalar() {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(31));
        let images: Vec<Tensor> = (0..7).map(|i| rand_image(&[1, 28, 28], 40 + i)).collect();
        let labels: Vec<usize> = (0..7).map(|i| (i as usize * 3) % 10).collect();
        let batch = model.input_gradient_batch(&images, &labels);
        for (i, (img, &lbl)) in images.iter().zip(&labels).enumerate() {
            assert_eq!(batch[i], model.input_gradient(img, lbl).1, "image {i}");
        }
        let with_loss = model.loss_and_input_grads_batch(&images, &labels);
        for (i, (img, &lbl)) in images.iter().zip(&labels).enumerate() {
            assert_eq!(with_loss[i], model.input_gradient(img, lbl), "image {i}");
        }
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn wrong_input_shape_is_rejected() {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(1));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let _ = plan.forward(&mut s, &Tensor::zeros(&[1, 8, 8]));
    }

    #[test]
    fn train_scratch_matches_plain_scratch_bit_for_bit() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(40));
        let plan = model.plan(&[1, 28, 28]);
        let mut plain = plan.scratch();
        let mut train = plan.train_scratch();
        for seed in 0..3 {
            let x = rand_image(&[1, 28, 28], 50 + seed);
            let target = seed as usize % 10;
            assert_eq!(
                plan.loss_and_grads(&mut train, &x, target),
                plan.loss_and_grads(&mut plain, &x, target),
            );
            assert_eq!(
                plan.input_gradient(&mut train, &x, target),
                plan.input_gradient(&mut plain, &x, target),
            );
        }
    }

    #[test]
    fn backward_tables_survive_a_recompile() {
        let mut model = zoo::lenet5(&mut Rng::seed_from_u64(41));
        let x = rand_image(&[1, 28, 28], 42);
        let tables = model.plan(&[1, 28, 28]).backward_tables();
        // Change the weights (as an optimizer step would), recompile, and
        // install the cached tables: the indexed backward must equal the
        // direct gather of a table-less plan on the new weights.
        for layer in model.layers_mut() {
            for p in layer.params_mut() {
                p.map_inplace(|v| v * 0.5 + 0.01);
            }
        }
        let plan = model.plan(&[1, 28, 28]);
        plan.install_backward_tables(&tables);
        let mut s = plan.train_scratch();
        let got = plan.loss_and_grads(&mut s, &x, 6);
        let fresh = model.plan(&[1, 28, 28]);
        let mut fs = fresh.scratch();
        assert_eq!(got, fresh.loss_and_grads(&mut fs, &x, 6));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn backward_tables_reject_mismatched_geometry() {
        let lenet = zoo::lenet5(&mut Rng::seed_from_u64(43));
        let tables = lenet.plan(&[1, 28, 28]).backward_tables();
        let other = zoo::lenet5_for(1, 32, &mut Rng::seed_from_u64(44));
        other.plan(&[1, 32, 32]).install_backward_tables(&tables);
    }

    #[test]
    fn batched_param_grads_match_serial_fold() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(45));
        let images: Vec<Tensor> = (0..5).map(|i| rand_image(&[1, 28, 28], 60 + i)).collect();
        let labels: Vec<usize> = (0..5).map(|i| (i * 7) % 10).collect();
        let plan = model.plan(&[1, 28, 28]);
        let (loss, grads) =
            plan.loss_and_param_grads_batch(images.len(), |i| &images[i], |i| labels[i]);
        let mut want_loss = 0.0f32;
        let mut want = model.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            let (l, g) = model.loss_and_grads(img, lbl);
            want_loss += l;
            want.accumulate(&g);
        }
        assert_eq!(loss, want_loss);
        assert_eq!(grads, want);
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn empty_param_grad_batch_is_rejected() {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(46));
        let plan = model.plan(&[1, 28, 28]);
        let _ = plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!());
    }
}
