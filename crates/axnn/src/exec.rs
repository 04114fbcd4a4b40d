//! Execution kernels for the compiled float engine.
//!
//! These are the hot loops behind [`crate::plan::FPlan`]: `im2col` patch
//! extraction, the GEMM that lowers conv and dense layers to one inner
//! dot-product shape (forward *and* input-gradient backward), average
//! pooling and ReLU. Everything works on flat `f32` scratch slices so the
//! plan can reuse buffers across images and attack steps.
//!
//! # Bit-compatibility with the layer-by-layer path
//!
//! The seed engine ([`crate::layer::Layer::forward`] /
//! [`crate::layer::Layer::backward`]) is kept as the reference
//! implementation, and every kernel here reproduces its floating-point
//! accumulation order exactly:
//!
//! * conv forward accumulators start at the bias and add products in
//!   `(channel, ky, kx)` order; padded positions become `0` patch entries
//!   whose products (`w * 0.0 = ±0.0`) leave the accumulator unchanged;
//! * dense forward accumulates the dot product first and adds the bias
//!   last, exactly like `matvec` + bias;
//! * the conv input gradient is a transposed GEMM over *gradient* patches
//!   whose column order `(out_channel asc, ky desc, kx desc)` replays the
//!   seed's per-element summation order (`o`, then `oy` asc ⇔ `ky` desc,
//!   then `ox` asc ⇔ `kx` desc);
//! * the dense backward keeps `matvec_t`'s zero-gradient row skip.
//!
//! The only observable difference is the sign of exact zeros produced by
//! padded positions, which compares equal under `==` and does not occur
//! for the zero-padding-free paper architectures.
//!
//! # Kernel tiers
//!
//! Every GEMM-shaped kernel ships in two tiers selected by
//! [`FloatKernel`] (mirroring `axmul::MulBackend`'s dispatch style):
//!
//! * [`FloatKernel::Reference`] — the scalar loops above, kept verbatim
//!   as the bit-exact reference implementation;
//! * [`FloatKernel::Tiled`] — register-tiled variants
//!   ([`conv_forward_tiled`], [`dense_forward_tiled`],
//!   [`dense_backward_tiled`], [`conv_backward_dx_tiled`],
//!   [`conv_backward_params_tiled`]) that process 4×4 output blocks
//!   (or 4-row groups) with independent accumulators sharing operand
//!   loads.
//!
//! The tiled tier is **bit-identical** to the reference, not merely
//! close: tiling here never reassociates a floating-point sum. Each
//! output element keeps its own accumulator whose additions run in the
//! exact reference order — a 4×4 tile is sixteen *independent* sequential
//! chains advanced in lockstep, and the fused multi-row backward passes
//! append to each destination element in the same ascending-row order as
//! the reference's sequential passes (including `dense_backward`'s
//! zero-gradient row skip, which is applied *before* grouping rows). The
//! speedup comes from instruction-level parallelism (many independent
//! FP dependency chains instead of one latency-bound chain) and 4× reuse
//! of every loaded operand, not from vectorizing a single dot product —
//! which is why no ULP tolerance and no thread-invariance caveat is
//! needed anywhere. Plans resolve the tier once at compile time from the
//! active execution context ([`axutil::exec::current`]), whose process
//! default comes from `AXDNN_KERNEL`.

/// Extracts conv patches: row `p = oy * ow + ox` of `out` is the
/// `[in_c * k * k]` receptive field of output position `(oy, ox)`,
/// zero-filled where the window overhangs the (zero-)padded input.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    dims: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let [c, h, w] = dims;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert!(out.len() >= rows * cols);
    let ow = (w + 2 * pad - k) / stride + 1;
    for p in 0..rows {
        let (oy, ox) = (p / ow, p % ow);
        let dst = &mut out[p * cols..(p + 1) * cols];
        let mut j = 0;
        for ci in 0..c {
            let base = ci * h * w;
            for ky in 0..k {
                let iy = (oy * stride + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    dst[j..j + k].fill(0.0);
                    j += k;
                    continue;
                }
                let row = base + iy as usize * w;
                for kx in 0..k {
                    let ix = (ox * stride + kx) as isize - pad as isize;
                    dst[j] = if ix < 0 || ix >= w as isize {
                        0.0
                    } else {
                        x[row + ix as usize]
                    };
                    j += 1;
                }
            }
        }
    }
}

/// Conv forward GEMM: `out[o * rows + p] = bias[o] + w[o] · patch[p]`.
///
/// Accumulators start at the bias — the seed conv's summation order.
pub fn conv_forward(
    w: &[f32],
    bias: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let out_c = bias.len();
    debug_assert_eq!(w.len(), out_c * cols);
    debug_assert!(patch.len() >= rows * cols);
    for o in 0..out_c {
        let wrow = &w[o * cols..(o + 1) * cols];
        let b = bias[o];
        for p in 0..rows {
            let prow = &patch[p * cols..(p + 1) * cols];
            let mut acc = b;
            for (&wv, &a) in wrow.iter().zip(prow) {
                acc += wv * a;
            }
            out[o * rows + p] = acc;
        }
    }
}

/// Dense forward: `out = W x + b` with the dot product accumulated first
/// and the bias added last — the seed dense's (`matvec` + bias) order.
pub fn dense_forward(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let (out_dim, in_dim) = (bias.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    for o in 0..out_dim {
        let wrow = &w[o * in_dim..(o + 1) * in_dim];
        let mut acc = 0.0f32;
        for (&wv, &xv) in wrow.iter().zip(x) {
            acc += wv * xv;
        }
        out[o] = acc + bias[o];
    }
}

/// Dense backward: writes `dx = Wᵀ g` (mirroring `matvec_t`, including
/// its zero-gradient row skip) and, when requested, accumulates `dw` and
/// `db` in the seed order.
pub fn dense_backward(
    w: &[f32],
    g: &[f32],
    x: &[f32],
    dx: &mut [f32],
    dw: Option<&mut [f32]>,
    db: Option<&mut [f32]>,
) {
    let (out_dim, in_dim) = (g.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    if let Some(dw) = dw {
        for o in 0..out_dim {
            let gv = g[o];
            if gv == 0.0 {
                continue;
            }
            let row = &mut dw[o * in_dim..(o + 1) * in_dim];
            for (d, &xv) in row.iter_mut().zip(x) {
                *d += gv * xv;
            }
        }
    }
    if let Some(db) = db {
        for (d, &gv) in db.iter_mut().zip(g) {
            *d += gv;
        }
    }
    dx[..in_dim].fill(0.0);
    for o in 0..out_dim {
        let gv = g[o];
        if gv == 0.0 {
            continue;
        }
        let row = &w[o * in_dim..(o + 1) * in_dim];
        for (d, &wv) in dx[..in_dim].iter_mut().zip(row) {
            *d += wv * gv;
        }
    }
}

/// Extracts *gradient* patches for the conv input gradient: row
/// `r = y * w + x` of `out` lists, in `(o asc, ky desc, kx desc)` column
/// order, the upstream gradient value `g[o, oy, ox]` that weight
/// `w[o, ·, ky, kx]` connects to input position `(y, x)` — or `0` when no
/// such output position exists (stride misalignment or out of range).
///
/// Together with [`conv_backward_dx`] and the plan's pre-transposed
/// weights this replays the seed backward's per-element summation order.
/// Walks the backward gather geometry in patch order — the single
/// source of truth behind [`grad_im2col`] and [`build_grad_gather`].
///
/// Calls `emit` once per patch element (input position major, then
/// `(o asc, ky desc, kx desc)` columns) with the flat index of the
/// upstream gradient value feeding it, or `None` where the patch is
/// zero-filled (stride misalignment or out of range). Monomorphized per
/// sink, so both callers keep their flat loops.
fn for_each_gather_source(
    g_dims: [usize; 3],
    in_hw: [usize; 2],
    k: usize,
    stride: usize,
    pad: usize,
    mut emit: impl FnMut(Option<usize>),
) {
    let [oc, oh, ow] = g_dims;
    let [h, w] = in_hw;
    for y in 0..h {
        for x in 0..w {
            for o in 0..oc {
                let g_base = o * oh * ow;
                for ky in (0..k).rev() {
                    let ny = y + pad;
                    let valid_y = ny >= ky && (ny - ky) % stride == 0 && (ny - ky) / stride < oh;
                    if !valid_y {
                        for _ in 0..k {
                            emit(None);
                        }
                        continue;
                    }
                    let g_row = g_base + (ny - ky) / stride * ow;
                    for kx in (0..k).rev() {
                        let nx = x + pad;
                        emit(
                            if nx >= kx && (nx - kx) % stride == 0 && (nx - kx) / stride < ow {
                                Some(g_row + (nx - kx) / stride)
                            } else {
                                None
                            },
                        );
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub fn grad_im2col(
    g: &[f32],
    g_dims: [usize; 3],
    in_hw: [usize; 2],
    k: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let [oc, oh, ow] = g_dims;
    let [h, w] = in_hw;
    debug_assert_eq!(g.len(), oc * oh * ow);
    debug_assert!(out.len() >= h * w * oc * k * k);
    let mut i = 0;
    for_each_gather_source(g_dims, in_hw, k, stride, pad, |src| {
        out[i] = src.map_or(0.0, |idx| g[idx]);
        i += 1;
    });
}

/// Builds the gather-index table behind [`grad_im2col`]: entry
/// `(r, j)` holds the flat index into the upstream gradient feeding
/// input position `r` through column `j`, or `-1` where the patch is
/// zero-filled. Built once per plan ([`crate::plan::FPlan`]'s
/// `prepare_backward`) so the per-image gather in
/// [`grad_im2col_indexed`] is a branch-light table walk instead of
/// per-element stride divisions.
pub fn build_grad_gather(
    g_dims: [usize; 3],
    in_hw: [usize; 2],
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<i32> {
    let [oc, ..] = g_dims;
    let [h, w] = in_hw;
    let mut table = Vec::with_capacity(h * w * oc * k * k);
    for_each_gather_source(g_dims, in_hw, k, stride, pad, |src| {
        table.push(src.map_or(-1, |idx| idx as i32));
    });
    table
}

/// Materializes gradient patches through a pre-built
/// [`build_grad_gather`] table: `out[i] = g[table[i]]`, zero where the
/// table holds `-1`. Produces exactly the bytes [`grad_im2col`] would.
pub fn grad_im2col_indexed(g: &[f32], table: &[i32], out: &mut [f32]) {
    for (o, &idx) in out[..table.len()].iter_mut().zip(table) {
        *o = if idx >= 0 { g[idx as usize] } else { 0.0 };
    }
}

/// Conv input-gradient GEMM: `dx[c * rows + r] = wt[c] · gpatch[r]` where
/// `wt` is the plan's pre-transposed weight matrix (`[in_c, oc * k * k]`
/// in [`grad_im2col`]'s column order) and `rows = h * w` input positions.
pub fn conv_backward_dx(wt: &[f32], gpatch: &[f32], rows: usize, cols: usize, dx: &mut [f32]) {
    let in_c = wt.len() / cols;
    debug_assert_eq!(wt.len(), in_c * cols);
    debug_assert!(gpatch.len() >= rows * cols);
    for c in 0..in_c {
        let wrow = &wt[c * cols..(c + 1) * cols];
        for r in 0..rows {
            let prow = &gpatch[r * cols..(r + 1) * cols];
            let mut acc = 0.0f32;
            for (&wv, &gv) in wrow.iter().zip(prow) {
                acc += wv * gv;
            }
            dx[c * rows + r] = acc;
        }
    }
}

/// Accumulates conv parameter gradients from the forward im2col patches:
/// `dw[o][j] += Σ_p g[o, p] * patch[p, j]` (the seed's `o, p, j` loop
/// order) and `db[o] += Σ_p g[o, p]`.
pub fn conv_backward_params(
    g: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let out_c = db.len();
    debug_assert_eq!(dw.len(), out_c * cols);
    debug_assert!(patch.len() >= rows * cols);
    for o in 0..out_c {
        let wrow = &mut dw[o * cols..(o + 1) * cols];
        for p in 0..rows {
            let gv = g[o * rows + p];
            db[o] += gv;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (d, &a) in wrow.iter_mut().zip(prow) {
                *d += gv * a;
            }
        }
    }
}

pub use axutil::exec::FloatKernel;

/// Kernel-tier dispatch for the float GEMM family, mirroring
/// `axmul::MulBackend`: the tier ([`FloatKernel`], owned by the execution
/// context in [`axutil::exec`]) is resolved once, usually at plan compile
/// time from [`axutil::exec::current`], and then dispatched per call.
///
/// Both tiers produce **bit-identical** results — see the
/// [module docs](self) for why tiling does not reassociate any sum — so
/// the choice is purely a performance A/B switch.
pub trait FloatGemm: Copy {
    /// The tier to dispatch to.
    fn tier(self) -> FloatKernel;

    /// [`conv_forward`] under this tier.
    fn conv_forward(
        self,
        w: &[f32],
        bias: &[f32],
        patch: &[f32],
        rows: usize,
        cols: usize,
        out: &mut [f32],
    ) {
        match self.tier() {
            FloatKernel::Reference => conv_forward(w, bias, patch, rows, cols, out),
            FloatKernel::Tiled => conv_forward_tiled(w, bias, patch, rows, cols, out),
        }
    }

    /// [`dense_forward`] under this tier.
    fn dense_forward(self, w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
        match self.tier() {
            FloatKernel::Reference => dense_forward(w, bias, x, out),
            FloatKernel::Tiled => dense_forward_tiled(w, bias, x, out),
        }
    }

    /// [`dense_backward`] under this tier.
    fn dense_backward(
        self,
        w: &[f32],
        g: &[f32],
        x: &[f32],
        dx: &mut [f32],
        dw: Option<&mut [f32]>,
        db: Option<&mut [f32]>,
    ) {
        match self.tier() {
            FloatKernel::Reference => dense_backward(w, g, x, dx, dw, db),
            FloatKernel::Tiled => dense_backward_tiled(w, g, x, dx, dw, db),
        }
    }

    /// [`conv_backward_dx`] under this tier.
    fn conv_backward_dx(
        self,
        wt: &[f32],
        gpatch: &[f32],
        rows: usize,
        cols: usize,
        dx: &mut [f32],
    ) {
        match self.tier() {
            FloatKernel::Reference => conv_backward_dx(wt, gpatch, rows, cols, dx),
            FloatKernel::Tiled => conv_backward_dx_tiled(wt, gpatch, rows, cols, dx),
        }
    }

    /// [`conv_backward_params`] under this tier.
    fn conv_backward_params(
        self,
        g: &[f32],
        patch: &[f32],
        rows: usize,
        cols: usize,
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        match self.tier() {
            FloatKernel::Reference => conv_backward_params(g, patch, rows, cols, dw, db),
            FloatKernel::Tiled => conv_backward_params_tiled(g, patch, rows, cols, dw, db),
        }
    }
}

impl FloatGemm for FloatKernel {
    fn tier(self) -> FloatKernel {
        self
    }
}

/// Register-tile edge length: output blocks are `TILE × TILE`
/// accumulators, row groups are `TILE` rows.
const TILE: usize = 4;

/// Shared register-tiled kernel behind [`conv_forward_tiled`] and
/// [`conv_backward_dx_tiled`]: `out[i * n + j] = init_i + a[i] · b[j]`
/// over the `m` rows of `a` and `n` rows of `b` (both `k` wide,
/// row-major), where `init_i` is `bias[i]` or `0.0`.
///
/// Full 4×4 blocks advance sixteen independent accumulators per `t`
/// step, sharing four `a` and four `b` loads; a leftover *pair* of rows
/// runs as 2×4 blocks (shapes like LeNet-5's conv1 with `m = 6` would
/// otherwise push a third of the work through single-row strips), and
/// the remaining edges fall back to 4×1 / 1×4 strips and finally the
/// scalar reference loop. Every accumulator's addition chain over `t` is
/// sequential and ascending — identical to the reference.
fn gemm_nt_tiled(
    a: &[f32],
    bias: Option<&[f32]>,
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert!(b.len() >= n * k);
    let init = |i: usize| bias.map_or(0.0, |bv| bv[i]);
    let mut i = 0;
    while i + TILE <= m {
        let ar: [&[f32]; TILE] = core::array::from_fn(|r| &a[(i + r) * k..(i + r) * k + k]);
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc: [[f32; TILE]; TILE] = core::array::from_fn(|r| [init(i + r); TILE]);
            for t in 0..k {
                let av: [f32; TILE] = core::array::from_fn(|r| ar[r][t]);
                let bv: [f32; TILE] = core::array::from_fn(|c| br[c][t]);
                for r in 0..TILE {
                    for c in 0..TILE {
                        acc[r][c] += av[r] * bv[c];
                    }
                }
            }
            for r in 0..TILE {
                for c in 0..TILE {
                    out[(i + r) * n + j + c] = acc[r][c];
                }
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc: [f32; TILE] = core::array::from_fn(|r| init(i + r));
            for (t, &bt) in brow.iter().enumerate() {
                for r in 0..TILE {
                    acc[r] += ar[r][t] * bt;
                }
            }
            for r in 0..TILE {
                out[(i + r) * n + j] = acc[r];
            }
            j += 1;
        }
        i += TILE;
    }
    if i + 2 <= m {
        let ar: [&[f32]; 2] = core::array::from_fn(|r| &a[(i + r) * k..(i + r) * k + k]);
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc: [[f32; TILE]; 2] = core::array::from_fn(|r| [init(i + r); TILE]);
            for t in 0..k {
                let av = [ar[0][t], ar[1][t]];
                let bv: [f32; TILE] = core::array::from_fn(|c| br[c][t]);
                for r in 0..2 {
                    for c in 0..TILE {
                        acc[r][c] += av[r] * bv[c];
                    }
                }
            }
            for r in 0..2 {
                for c in 0..TILE {
                    out[(i + r) * n + j + c] = acc[r][c];
                }
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc = [init(i), init(i + 1)];
            for (t, &bt) in brow.iter().enumerate() {
                acc[0] += ar[0][t] * bt;
                acc[1] += ar[1][t] * bt;
            }
            out[i * n + j] = acc[0];
            out[(i + 1) * n + j] = acc[1];
            j += 1;
        }
        i += 2;
    }
    while i < m {
        let arow = &a[i * k..i * k + k];
        let seed = init(i);
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc = [seed; TILE];
            for (t, &at) in arow.iter().enumerate() {
                for c in 0..TILE {
                    acc[c] += at * br[c][t];
                }
            }
            for c in 0..TILE {
                out[i * n + j + c] = acc[c];
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc = seed;
            for (&wv, &xv) in arow.iter().zip(brow) {
                acc += wv * xv;
            }
            out[i * n + j] = acc;
            j += 1;
        }
        i += 1;
    }
}

/// Register-tiled [`conv_forward`]: 4×4 `(out_channel, position)` blocks,
/// accumulators seeded with the bias. Bit-identical to the reference.
pub fn conv_forward_tiled(
    w: &[f32],
    bias: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let out_c = bias.len();
    debug_assert_eq!(w.len(), out_c * cols);
    gemm_nt_tiled(w, Some(bias), patch, out_c, rows, cols, out);
}

/// Register-tiled [`conv_backward_dx`]: the same 4×4 blocking over
/// `(in_channel, position)`, accumulators seeded with `0.0`.
/// Bit-identical to the reference.
pub fn conv_backward_dx_tiled(
    wt: &[f32],
    gpatch: &[f32],
    rows: usize,
    cols: usize,
    dx: &mut [f32],
) {
    let in_c = wt.len() / cols;
    debug_assert_eq!(wt.len(), in_c * cols);
    gemm_nt_tiled(wt, None, gpatch, in_c, rows, cols, dx);
}

/// Register-tiled [`dense_forward`]: 4-row output groups share every
/// `x[t]` load across four independent dot-product chains; the bias is
/// still added last. Bit-identical to the reference.
pub fn dense_forward_tiled(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let (out_dim, in_dim) = (bias.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut o = 0;
    while o + TILE <= out_dim {
        let wr: [&[f32]; TILE] =
            core::array::from_fn(|r| &w[(o + r) * in_dim..(o + r) * in_dim + in_dim]);
        let mut acc = [0.0f32; TILE];
        for (t, &xv) in x.iter().enumerate() {
            for r in 0..TILE {
                acc[r] += wr[r][t] * xv;
            }
        }
        for r in 0..TILE {
            out[o + r] = acc[r] + bias[o + r];
        }
        o += TILE;
    }
    while o < out_dim {
        let wrow = &w[o * in_dim..(o + 1) * in_dim];
        let mut acc = 0.0f32;
        for (&wv, &xv) in wrow.iter().zip(x) {
            acc += wv * xv;
        }
        out[o] = acc + bias[o];
        o += 1;
    }
}

/// Splits four strictly ascending rows of a `width`-column row-major
/// matrix into simultaneous mutable slices (for the fused multi-row
/// backward passes).
fn rows4_mut(
    buf: &mut [f32],
    width: usize,
    o: [usize; 4],
) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
    debug_assert!(o[0] < o[1] && o[1] < o[2] && o[2] < o[3]);
    let (head0, tail0) = buf.split_at_mut(o[1] * width);
    let r0 = &mut head0[o[0] * width..(o[0] + 1) * width];
    let (head1, tail1) = tail0.split_at_mut((o[2] - o[1]) * width);
    let r1 = &mut head1[..width];
    let (head2, tail2) = tail1.split_at_mut((o[3] - o[2]) * width);
    let r2 = &mut head2[..width];
    let r3 = &mut tail2[..width];
    (r0, r1, r2, r3)
}

/// Register-tiled [`dense_backward`]: the zero-gradient row skip is
/// applied first (exactly like the reference), then the surviving rows
/// are processed in fused ascending groups of four that share every
/// `x[t]` / `dx[t]` access. Each `dw`/`dx` element still receives its
/// additions in the reference order, so the result is bit-identical —
/// including the skip's `-0.0` preservation.
pub fn dense_backward_tiled(
    w: &[f32],
    g: &[f32],
    x: &[f32],
    dx: &mut [f32],
    dw: Option<&mut [f32]>,
    db: Option<&mut [f32]>,
) {
    let (out_dim, in_dim) = (g.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    if let Some(dw) = dw {
        let mut idx = [0usize; TILE];
        let mut gv4 = [0.0f32; TILE];
        let mut cnt = 0usize;
        for (o, &gv) in g.iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            idx[cnt] = o;
            gv4[cnt] = gv;
            cnt += 1;
            if cnt == TILE {
                let (r0, r1, r2, r3) = rows4_mut(dw, in_dim, idx);
                let [g0, g1, g2, g3] = gv4;
                for (t, &xv) in x.iter().enumerate() {
                    r0[t] += g0 * xv;
                    r1[t] += g1 * xv;
                    r2[t] += g2 * xv;
                    r3[t] += g3 * xv;
                }
                cnt = 0;
            }
        }
        for r in 0..cnt {
            let row = &mut dw[idx[r] * in_dim..(idx[r] + 1) * in_dim];
            let gv = gv4[r];
            for (d, &xv) in row.iter_mut().zip(x) {
                *d += gv * xv;
            }
        }
    }
    if let Some(db) = db {
        for (d, &gv) in db.iter_mut().zip(g) {
            *d += gv;
        }
    }
    dx[..in_dim].fill(0.0);
    let mut idx = [0usize; TILE];
    let mut gv4 = [0.0f32; TILE];
    let mut cnt = 0usize;
    for (o, &gv) in g.iter().enumerate() {
        if gv == 0.0 {
            continue;
        }
        idx[cnt] = o;
        gv4[cnt] = gv;
        cnt += 1;
        if cnt == TILE {
            let wr: [&[f32]; TILE] =
                core::array::from_fn(|r| &w[idx[r] * in_dim..idx[r] * in_dim + in_dim]);
            let [g0, g1, g2, g3] = gv4;
            for (t, d) in dx[..in_dim].iter_mut().enumerate() {
                let mut v = *d;
                v += wr[0][t] * g0;
                v += wr[1][t] * g1;
                v += wr[2][t] * g2;
                v += wr[3][t] * g3;
                *d = v;
            }
            cnt = 0;
        }
    }
    for r in 0..cnt {
        let row = &w[idx[r] * in_dim..(idx[r] + 1) * in_dim];
        let gv = gv4[r];
        for (d, &wv) in dx[..in_dim].iter_mut().zip(row) {
            *d += wv * gv;
        }
    }
}

/// Register-tiled [`conv_backward_params`]: four `dw` rows advance
/// together so each im2col patch row is loaded once per group instead of
/// once per output channel. Every `dw[o][j]` and `db[o]` chain still
/// accumulates over positions `p` in ascending order — bit-identical to
/// the reference.
pub fn conv_backward_params_tiled(
    g: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let out_c = db.len();
    debug_assert_eq!(dw.len(), out_c * cols);
    debug_assert!(patch.len() >= rows * cols);
    let mut o = 0;
    while o + TILE <= out_c {
        let (r0, r1, r2, r3) = rows4_mut(dw, cols, [o, o + 1, o + 2, o + 3]);
        for p in 0..rows {
            let g0 = g[o * rows + p];
            let g1 = g[(o + 1) * rows + p];
            let g2 = g[(o + 2) * rows + p];
            let g3 = g[(o + 3) * rows + p];
            db[o] += g0;
            db[o + 1] += g1;
            db[o + 2] += g2;
            db[o + 3] += g3;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (t, &a) in prow.iter().enumerate() {
                r0[t] += g0 * a;
                r1[t] += g1 * a;
                r2[t] += g2 * a;
                r3[t] += g3 * a;
            }
        }
        o += TILE;
    }
    while o < out_c {
        let wrow = &mut dw[o * cols..(o + 1) * cols];
        for p in 0..rows {
            let gv = g[o * rows + p];
            db[o] += gv;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (d, &a) in wrow.iter_mut().zip(prow) {
                *d += gv * a;
            }
        }
        o += 1;
    }
}

/// ReLU forward: `out[i] = max(x[i], 0)`.
pub fn relu(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.max(0.0);
    }
}

/// ReLU backward: passes the gradient where the forward input was
/// strictly positive.
pub fn relu_backward(x: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &xv), &gv) in out.iter_mut().zip(x).zip(g) {
        *o = if xv > 0.0 { gv } else { 0.0 };
    }
}

/// Non-overlapping average pooling, mirroring the seed's
/// `sum * (1 / k²)` evaluation order.
pub fn avgpool(x: &[f32], dims: [usize; 3], k: usize, out: &mut [f32]) {
    let [c, h, w] = dims;
    debug_assert!(h % k == 0 && w % k == 0, "pool window must tile input");
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        acc += x[row + dx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
}

/// Average-pool backward: spreads each gradient value scaled by `1 / k²`
/// over its window (windows do not overlap, so every element is written
/// exactly once).
pub fn avgpool_backward(g: &[f32], in_dims: [usize; 3], k: usize, dx: &mut [f32]) {
    let [c, h, w] = in_dims;
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[(ch * oh + oy) * ow + ox] * inv;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx_i in 0..k {
                        dx[row + dx_i] = gv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_identity_for_1x1_kernel() {
        let x: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; 8];
        im2col(&x, [2, 2, 2], 1, 1, 0, 4, 2, &mut out);
        assert_eq!(out, vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let x = vec![9.0f32; 4]; // [1, 2, 2]
        let (rows, cols) = (4, 9); // 3x3 kernel, pad 1 on 2x2 -> 2x2 output
        let mut out = vec![f32::NAN; rows * cols];
        im2col(&x, [1, 2, 2], 3, 1, 1, rows, cols, &mut out);
        assert_eq!(out[..cols], [0.0, 0.0, 0.0, 0.0, 9.0, 9.0, 0.0, 9.0, 9.0]);
        let total: f32 = out.iter().sum();
        assert_eq!(total, 4.0 * 4.0 * 9.0, "each pixel appears in four patches");
    }

    #[test]
    fn conv_forward_starts_at_bias() {
        // One 2x2 patch row of ones against weights [1, 2, 3, 4], bias 0.5.
        let patch = [1.0f32; 4];
        let mut out = [0.0f32; 1];
        conv_forward(&[1.0, 2.0, 3.0, 4.0], &[0.5], &patch, 1, 4, &mut out);
        assert_eq!(out, [10.5]);
    }

    #[test]
    fn dense_forward_adds_bias_last() {
        let mut out = [0.0f32; 2];
        dense_forward(&[1.0, 2.0, -1.0, 0.5], &[0.1, -0.1], &[3.0, 4.0], &mut out);
        assert!((out[0] - 11.1).abs() < 1e-6);
        assert!((out[1] - (-1.1)).abs() < 1e-6);
    }

    #[test]
    fn dense_backward_matches_transpose() {
        let w = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2]
        let g = [5.0f32, 6.0];
        let x = [7.0f32, 8.0];
        let mut dx = [f32::NAN; 2];
        let mut dw = [0.0f32; 4];
        let mut db = [0.0f32; 2];
        dense_backward(&w, &g, &x, &mut dx, Some(&mut dw), Some(&mut db));
        assert_eq!(dx, [1.0 * 5.0 + 3.0 * 6.0, 2.0 * 5.0 + 4.0 * 6.0]);
        assert_eq!(dw, [35.0, 40.0, 42.0, 48.0]);
        assert_eq!(db, [5.0, 6.0]);
    }

    #[test]
    fn grad_im2col_flips_kernel_order() {
        // 1 output channel, 2x2 gradient from a 3x3 input with k=2, s=1.
        let g = [1.0f32, 2.0, 3.0, 4.0];
        let cols = 4; // oc * k * k
        let mut out = vec![f32::NAN; 9 * cols];
        grad_im2col(&g, [1, 2, 2], [3, 3], 2, 1, 0, &mut out);
        // Input position (0, 0) only connects to output (0, 0) via weight
        // (ky, kx) = (0, 0), which sits *last* in the flipped column order.
        assert_eq!(out[..cols], [0.0, 0.0, 0.0, 1.0]);
        // Centre position (1, 1) connects to all four outputs; the column
        // order walks the kernel flipped, so the gradient values appear in
        // plain output order (the *weights* are flipped, not the grads).
        let centre = &out[4 * cols..5 * cols];
        assert_eq!(centre, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn indexed_gather_matches_direct_grad_im2col() {
        // Awkward geometry on purpose: stride 2, pad 1, 2 channels.
        let (g_dims, in_hw, k, stride, pad) = ([2usize, 3, 3], [5usize, 5], 3usize, 2usize, 1usize);
        let g: Vec<f32> = (1..=18).map(|v| v as f32).collect();
        let cols = g_dims[0] * k * k;
        let mut direct = vec![f32::NAN; 25 * cols];
        grad_im2col(&g, g_dims, in_hw, k, stride, pad, &mut direct);
        let table = build_grad_gather(g_dims, in_hw, k, stride, pad);
        let mut indexed = vec![f32::NAN; 25 * cols];
        grad_im2col_indexed(&g, &table, &mut indexed);
        assert_eq!(direct, indexed);
    }

    #[test]
    fn avgpool_roundtrip() {
        let x: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut y = [0.0f32; 4];
        avgpool(&x, [1, 4, 4], 2, &mut y);
        assert_eq!(y[0], (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        let mut dx = [f32::NAN; 16];
        avgpool_backward(&[4.0, 0.0, 0.0, 0.0], [1, 4, 4], 2, &mut dx);
        assert_eq!(dx[0], 1.0);
        assert_eq!(dx[5], 1.0);
        assert_eq!(dx[2], 0.0);
    }

    /// Deterministic pseudo-random fill so the tiled-vs-reference checks
    /// cover non-trivial values without pulling in a RNG dependency.
    fn fill(seed: u32, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn tiled_conv_forward_is_bit_exact() {
        // Odd sizes on purpose: full tiles plus row and column edges.
        let (out_c, rows, cols) = (6, 7, 13);
        let w = fill(1, out_c * cols);
        let bias = fill(2, out_c);
        let patch = fill(3, rows * cols);
        let mut reference = vec![0.0f32; out_c * rows];
        let mut tiled = vec![0.0f32; out_c * rows];
        conv_forward(&w, &bias, &patch, rows, cols, &mut reference);
        conv_forward_tiled(&w, &bias, &patch, rows, cols, &mut tiled);
        assert_eq!(reference, tiled);
    }

    #[test]
    fn tiled_dense_pair_is_bit_exact() {
        let (out_dim, in_dim) = (11, 17);
        let w = fill(4, out_dim * in_dim);
        let bias = fill(5, out_dim);
        let x = fill(6, in_dim);
        let mut reference = vec![0.0f32; out_dim];
        let mut tiled = vec![0.0f32; out_dim];
        dense_forward(&w, &bias, &x, &mut reference);
        dense_forward_tiled(&w, &bias, &x, &mut tiled);
        assert_eq!(reference, tiled);

        // Backward with zeroed gradient rows so the skip-grouping runs.
        let mut g = fill(7, out_dim);
        for o in (0..out_dim).step_by(3) {
            g[o] = 0.0;
        }
        let (mut dx_r, mut dx_t) = (vec![f32::NAN; in_dim], vec![f32::NAN; in_dim]);
        let (mut dw_r, mut dw_t) = (fill(8, out_dim * in_dim), fill(8, out_dim * in_dim));
        let (mut db_r, mut db_t) = (fill(9, out_dim), fill(9, out_dim));
        dense_backward(&w, &g, &x, &mut dx_r, Some(&mut dw_r), Some(&mut db_r));
        dense_backward_tiled(&w, &g, &x, &mut dx_t, Some(&mut dw_t), Some(&mut db_t));
        assert_eq!(dx_r, dx_t);
        assert_eq!(dw_r, dw_t);
        assert_eq!(db_r, db_t);
    }

    #[test]
    fn tiled_conv_backward_is_bit_exact() {
        let (out_c, rows, cols) = (5, 9, 11);
        let g = fill(10, out_c * rows);
        let patch = fill(11, rows * cols);
        let (mut dw_r, mut dw_t) = (fill(12, out_c * cols), fill(12, out_c * cols));
        let (mut db_r, mut db_t) = (fill(13, out_c), fill(13, out_c));
        conv_backward_params(&g, &patch, rows, cols, &mut dw_r, &mut db_r);
        conv_backward_params_tiled(&g, &patch, rows, cols, &mut dw_t, &mut db_t);
        assert_eq!(dw_r, dw_t);
        assert_eq!(db_r, db_t);

        let in_c = 3;
        let wt = fill(14, in_c * cols);
        let gpatch = fill(15, rows * cols);
        let (mut dx_r, mut dx_t) = (vec![f32::NAN; in_c * rows], vec![f32::NAN; in_c * rows]);
        conv_backward_dx(&wt, &gpatch, rows, cols, &mut dx_r);
        conv_backward_dx_tiled(&wt, &gpatch, rows, cols, &mut dx_t);
        assert_eq!(dx_r, dx_t);
    }

    #[test]
    fn kernel_dispatch_routes_both_tiers() {
        let patch = [1.0f32; 4];
        for kernel in [FloatKernel::Reference, FloatKernel::Tiled] {
            let mut out = [0.0f32; 1];
            kernel.conv_forward(&[1.0, 2.0, 3.0, 4.0], &[0.5], &patch, 1, 4, &mut out);
            assert_eq!(out, [10.5]);
        }
        assert_eq!(FloatKernel::default(), FloatKernel::Tiled);
        assert_eq!(FloatKernel::Reference.name(), "reference");
        assert_eq!(FloatKernel::Tiled.name(), "tiled");
    }

    #[test]
    fn relu_pair() {
        let x = [-1.0f32, 0.0, 2.0];
        let mut y = [f32::NAN; 3];
        relu(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let mut dx = [f32::NAN; 3];
        relu_backward(&x, &[5.0, 5.0, 5.0], &mut dx);
        assert_eq!(dx, [0.0, 0.0, 5.0]);
    }
}
