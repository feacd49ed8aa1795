//! Convolution and pooling kernels: a 2-D convolution lowered one image at a
//! time through its column matrix (`im2col` / `col2im`), and max / average
//! pooling.
//!
//! Layout convention: image batches are rank-4 `[N, C, H, W]` (batch, channel,
//! height, width), matching the layer implementations in `fedcross-nn`. An
//! image's column matrix is `[C * k * k, OH * OW]`: one row per kernel tap,
//! one column per output pixel. The forward product `W · cols_n` then lands
//! directly in the image's `[OC, OH * OW]` output block, and the backward
//! products read the same cached columns (see [`conv2d_param_grads`] and
//! [`conv2d_input_grad_into`]).

use crate::linalg::{gemm_accum, parallel_worthwhile, transpose_into, K_BLOCK_ROWS, NR};
use crate::{Tensor, TensorPool};
use rayon::prelude::*;
use std::ops::Range;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Kernel height/width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added to each spatial border.
    pub padding: usize,
}

impl Conv2dGeom {
    /// Creates a geometry descriptor.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of extent `size`.
    ///
    /// # Panics
    /// Panics if the window is larger than the padded input
    /// (`size + 2 * padding < kernel`).
    pub fn out_size(&self, size: usize) -> usize {
        let padded = size + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "window of {} exceeds input of {size} padded by {} on each side",
            self.kernel,
            self.padding
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Shape `(C * k * k, OH * OW)` of one image's column matrix
/// ([`im2col_image_into`]) for the `[N, C, H, W]` batch `input`.
pub fn im2col_shape(input: &Tensor, geom: Conv2dGeom) -> (usize, usize) {
    assert_eq!(input.rank(), 4, "im2col expects an [N, C, H, W] tensor");
    let dims = input.dims();
    let (c, h, w) = (dims[1], dims[2], dims[3]);
    (
        c * geom.kernel * geom.kernel,
        geom.out_size(h) * geom.out_size(w),
    )
}

/// The output pixels `oys × oxs` whose input under kernel tap `(ky, kx)`
/// (`o * stride + tap - padding` on each axis) lies inside an `h × w` image
/// with an `oh × ow` output; both ranges are empty when either is.
fn tap_window(
    (ky, kx): (usize, usize),
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    geom: Conv2dGeom,
) -> (Range<usize>, Range<usize>) {
    let div_ceil = |x: usize| match geom.stride {
        1 => x,
        s => x.div_ceil(s),
    };
    let axis = |tap: usize, size: usize, out: usize| {
        let hi = div_ceil((size + geom.padding).saturating_sub(tap)).min(out);
        let lo = div_ceil(geom.padding.saturating_sub(tap));
        lo.min(hi)..hi
    };
    let (oys, oxs) = (axis(ky, h, oh), axis(kx, w, ow));
    if oys.is_empty() || oxs.is_empty() {
        (0..0, 0..0)
    } else {
        (oys, oxs)
    }
}

/// Unfolds one `[C, H, W]` image into its column matrix `[C * k * k, OH * OW]`,
/// written into `cols` (fully overwritten): row `(c * k + ky) * k + kx` holds
/// the input value under kernel tap `(c, ky, kx)` for every output pixel, in
/// pixel order, and zero where the tap falls on padding.
///
/// Each (tap, output row) is one contiguous run of the input row (a strided
/// gather when the stride exceeds 1), so a convolution becomes the product
/// `W [OC, C * k * k] · cols` with the output pixels on the GEMM's 8-wide
/// register axis.
///
/// # Panics
/// Panics if `image` does not hold `C * H * W` values or `cols` does not hold
/// `C * k * k * OH * OW`.
pub fn im2col_image_into(image: &[f32], dims: [usize; 3], geom: Conv2dGeom, cols: &mut [f32]) {
    let [c, h, w] = dims;
    let k = geom.kernel;
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    assert_eq!(
        image.len(),
        c * h * w,
        "im2col_image_into: wrong image size"
    );
    assert_eq!(
        cols.len(),
        c * k * k * oh * ow,
        "im2col_image_into: wrong cols size"
    );
    let channels = image
        .chunks_exact(h * w)
        .zip(cols.chunks_exact_mut(k * k * oh * ow));
    for (plane, channel) in channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = &mut channel[(ky * k + kx) * oh * ow..][..oh * ow];
                let (oys, oxs) = tap_window((ky, kx), (h, w), (oh, ow), geom);
                // A tap that reaches into the padding zeroes its whole row
                // first, so each run below is one plain copy.
                if oys.len() < oh || oxs.len() < ow {
                    row.fill(0.0);
                }
                let ix = oxs.start * geom.stride + kx;
                for oy in oys {
                    let dst = &mut row[oy * ow + oxs.start..oy * ow + oxs.end];
                    let iy = oy * geom.stride + ky - geom.padding;
                    let src = &plane[iy * w + ix - geom.padding..(iy + 1) * w];
                    if geom.stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(geom.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds one image's column matrix `[C * k * k, OH * OW]` back into the
/// `[C, H, W]` image, summing overlapping contributions, written into
/// `image` (fully overwritten before the sums accumulate). This is the
/// adjoint of [`im2col_image_into`] and propagates a convolution's gradient
/// to its input.
///
/// Every input element receives its contributions in increasing output-pixel
/// order, the order of a scalar loop over pixels: the taps of each channel
/// are walked in descending `(ky, kx)`, because a larger tap reaches a given
/// input element from an earlier output pixel.
///
/// # Panics
/// Panics if `cols` does not hold `C * k * k * OH * OW` values or `image`
/// does not hold `C * H * W`.
pub fn col2im_image_into(cols: &[f32], dims: [usize; 3], geom: Conv2dGeom, image: &mut [f32]) {
    let [c, h, w] = dims;
    let k = geom.kernel;
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    assert_eq!(
        cols.len(),
        c * k * k * oh * ow,
        "col2im_image_into: wrong cols size"
    );
    assert_eq!(
        image.len(),
        c * h * w,
        "col2im_image_into: wrong image size"
    );
    image.fill(0.0);
    let channels = image
        .chunks_exact_mut(h * w)
        .zip(cols.chunks_exact(k * k * oh * ow));
    for (plane, channel) in channels {
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let row = &channel[(ky * k + kx) * oh * ow..][..oh * ow];
                let (oys, oxs) = tap_window((ky, kx), (h, w), (oh, ow), geom);
                let ix = oxs.start * geom.stride + kx;
                for oy in oys {
                    let src = &row[oy * ow + oxs.start..oy * ow + oxs.end];
                    let iy = oy * geom.stride + ky - geom.padding;
                    let dst = &mut plane[iy * w + ix - geom.padding..(iy + 1) * w];
                    if geom.stride == 1 {
                        for (d, &v) in dst[..src.len()].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(geom.stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward pass of a 2-D convolution over the `[N, C, H, W]` batch `input`
/// with filters `weight` (`[OC, C * k * k]`, one filter per row) and `bias`
/// (`[OC]`): lowers each image into its slice of `cols` (`N * C * k * k *
/// OH * OW` elements, reshaped to `[N, C * k * k, OH * OW]`) and writes
/// `weight · cols_n + bias` into its slice of `out` (`N * OC * OH * OW`
/// elements, reshaped to `[N, OC, OH, OW]`). Both are fully overwritten.
///
/// Each output accumulates `weight[oc, p] · cols_n[p, s]` in increasing `p`
/// from `+0.0`, and the bias is added after. Outside a rayon worker (an
/// evaluation on the round thread) a batch worth the shared flop threshold
/// splits its images across threads; inside one (a client's training job)
/// the images run serially. Either way every output element is computed by
/// the same serial loop, so the result does not depend on the schedule.
///
/// # Panics
/// Panics on a rank or shape mismatch between the operands.
pub fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeom,
    cols: &mut Tensor,
    out: &mut Tensor,
) {
    let (taps, pixels) = im2col_shape(input, geom);
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let oc = weight.dims()[0];
    assert_eq!(
        weight.dims(),
        &[oc, taps],
        "conv2d: weight must be [OC, C*k*k]"
    );
    assert_eq!(
        bias.numel(),
        oc,
        "conv2d: bias must hold one value per filter"
    );
    assert!(
        c > 0 && oc > 0,
        "conv2d: needs at least one input and one output channel"
    );
    assert_eq!(cols.numel(), n * taps * pixels, "conv2d: wrong cols size");
    assert_eq!(out.numel(), n * oc * pixels, "conv2d: wrong output size");
    cols.reshape_in_place(&[n, taps, pixels]);
    out.reshape_in_place(&[n, oc, geom.out_size(h), geom.out_size(w)]);
    let (weight, bias) = (weight.data(), bias.data());
    let lower = |(image, (cols, out)): (&[f32], (&mut [f32], &mut [f32]))| {
        im2col_image_into(image, [c, h, w], geom, cols);
        out.fill(0.0);
        gemm_accum(out, weight, cols, oc, taps, pixels, 0, taps);
        for (row, &b) in out.chunks_exact_mut(pixels).zip(bias) {
            for v in row {
                *v += b;
            }
        }
    };
    let jobs = input.data().chunks_exact(c * h * w).zip(
        cols.data_mut()
            .chunks_exact_mut(taps * pixels)
            .zip(out.data_mut().chunks_exact_mut(oc * pixels)),
    );
    let split = n > 1
        && rayon::current_thread_index().is_none()
        && rayon::current_num_threads() > 1
        && parallel_worthwhile(n * oc, taps, pixels);
    if split {
        // alloc: bounded — one job per image, built only on the thread-split path outside a worker
        let jobs: Vec<_> = jobs.collect();
        jobs.into_par_iter().for_each(lower);
    } else {
        jobs.for_each(lower);
    }
}

/// Accumulates a 2-D convolution's parameter gradients from `grad_output`
/// (`[N, OC, OH, OW]`) and the columns its forward pass built (`cols`,
/// `[N, C * k * k, OH * OW]`): `grad_weight += Σ_n dY_n · cols_nᵀ` and
/// `grad_bias += Σ dY` over every image and pixel. Scratch comes from
/// `pool`.
///
/// The sums keep [`Tensor::matmul_at_b_into`]'s grouping over the
/// `N * OH * OW` pixel rows: one serial pass from `+0.0` in increasing pixel
/// order, unless the product is worth the shared flop threshold and spans
/// more than one 1024-row block, in which case each block is reduced from
/// `+0.0` and the blocks are added in order (a block edge may fall inside an
/// image). The pixels of one image are contiguous in both operands, so each
/// image's `dY_n` is transposed into `[OH * OW, OC]` and the channels take
/// the GEMM's register axis, padded to a multiple of half a register tile;
/// one or two channels instead repeat across the half tile and share it
/// with consecutive taps, so no lane is padding. The columns are read as
/// cached. The bias gradient is one serial pass per channel.
///
/// # Panics
/// Panics on a shape mismatch between the operands.
pub fn conv2d_param_grads(
    grad_output: &Tensor,
    cols: &Tensor,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
    pool: &mut TensorPool,
) {
    assert_eq!(
        grad_output.rank(),
        4,
        "conv2d: grad_output must be [N, OC, OH, OW]"
    );
    let dims = grad_output.dims();
    let (n, oc, pixels) = (dims[0], dims[1], dims[2] * dims[3]);
    assert_eq!(cols.rank(), 3, "conv2d: cols must be [N, C*k*k, OH*OW]");
    let taps = cols.dims()[1];
    assert_eq!(
        cols.dims(),
        &[n, taps, pixels],
        "conv2d: cols do not match grad_output"
    );
    assert_eq!(
        grad_weight.dims(),
        &[oc, taps],
        "conv2d: grad_weight must be [OC, C*k*k]"
    );
    assert_eq!(
        grad_bias.numel(),
        oc,
        "conv2d: grad_bias must hold one value per filter"
    );
    assert!(
        oc > 0 && taps > 0,
        "conv2d: needs at least one filter and one tap"
    );
    let half_tile = NR / 2;
    // One or two channels share the lanes of a half tile with their taps
    // (`narrow_weight_grad`); more take whole lanes, padded with zeros.
    let lanes = if oc <= 2 {
        oc
    } else {
        oc.next_multiple_of(half_tile)
    };
    let width = lanes.max(half_tile);
    let copies = width / lanes;
    let rows = n * pixels;
    let block = if parallel_worthwhile(oc, rows, taps) && rows > K_BLOCK_ROWS {
        K_BLOCK_ROWS
    } else {
        rows
    };
    // dY_nᵀ, one row of `width` lanes per pixel: the channel values, repeated
    // `copies` times. Lanes past them stay zero.
    let mut dyt = pool.take_zeroed(&[pixels, width]);
    let mut partial = pool.take_zeroed(&[taps, lanes]);
    let mut dwt = pool.take_zeroed(&[taps, lanes]);
    let mut db = pool.take_zeroed(&[width]);
    let mut row = 0;
    for (dy, cols) in grad_output
        .data()
        .chunks_exact(oc * pixels)
        .zip(cols.data().chunks_exact(taps * pixels))
    {
        let dyt = dyt.data_mut();
        for (o, channel) in dy.chunks_exact(pixels).enumerate() {
            for (s, &v) in channel.iter().enumerate() {
                for copy in 0..copies {
                    dyt[s * width + copy * oc + o] = v;
                }
            }
        }
        for pixel in dyt.chunks_exact(width) {
            let groups = db.data_mut().chunks_exact_mut(half_tile);
            for (g, v) in groups.zip(pixel.chunks_exact(half_tile)) {
                for (g, &v) in g.iter_mut().zip(v) {
                    *g += v;
                }
            }
        }
        // This image's pixels, cut where the batch's row blocks end.
        let mut s = 0;
        while s < pixels {
            let end = pixels.min(s + block - row % block);
            let out = partial.data_mut();
            match oc {
                1 => narrow_weight_grad::<4>(out, cols, dyt, pixels, (s, end)),
                2 => narrow_weight_grad::<2>(out, cols, dyt, pixels, (s, end)),
                _ => gemm_accum(out, cols, dyt, taps, pixels, lanes, s, end),
            }
            row += end - s;
            s = end;
            if row % block == 0 || row == rows {
                dwt.add_assign(&partial);
                partial.fill(0.0);
            }
        }
    }
    for (o, grad_row) in grad_weight.data_mut().chunks_exact_mut(taps).enumerate() {
        for (g, tap) in grad_row.iter_mut().zip(dwt.data().chunks_exact(lanes)) {
            *g += tap[o];
        }
    }
    for (g, &v) in grad_bias.data_mut().iter_mut().zip(db.data()) {
        *g += v;
    }
    pool.recycle(dyt);
    pool.recycle(partial);
    pool.recycle(dwt);
    pool.recycle(db);
}

/// Adds `Σ_{s in lo..hi} cols[t, s] · dY[o, s]` to `out[t * OC + o]` for a
/// layer of one or two output channels (`OC = 4 / G`) without padding
/// lanes: each four-lane accumulator holds `G` consecutive taps × the `OC`
/// channels, so one loaded column value serves `OC` lanes and `dy4` holds
/// each pixel's channel values repeated `G` times. Every element
/// accumulates in increasing `s`, the order of [`gemm_accum`].
fn narrow_weight_grad<const G: usize>(
    out: &mut [f32],
    cols: &[f32],
    dy4: &[f32],
    pixels: usize,
    (lo, hi): (usize, usize),
) {
    const TILE: usize = 3;
    const LANES: usize = NR / 2;
    let oc = LANES / G;
    let taps = out.len() / oc;
    for t0 in (0..taps).step_by(TILE * G) {
        // Lane `l` of accumulator `a` is tap `t0 + a·G + l / oc`, channel
        // `l % oc`. Taps past the last one repeat it and are not stored.
        let tap = |a: usize, l: usize| t0 + a * G + l / oc;
        let row = |t: usize| &cols[t.min(taps - 1) * pixels + lo..t.min(taps - 1) * pixels + hi];
        let rows: [[&[f32]; G]; TILE] =
            std::array::from_fn(|a| std::array::from_fn(|g| row(t0 + a * G + g)));
        let mut acc = [[0f32; LANES]; TILE];
        for (a, acc) in acc.iter_mut().enumerate() {
            for (l, x) in acc.iter_mut().enumerate() {
                if tap(a, l) < taps {
                    *x = out[tap(a, l) * oc + l % oc];
                }
            }
        }
        for (q, d) in dy4[lo * LANES..hi * LANES].chunks_exact(LANES).enumerate() {
            for (acc, rows) in acc.iter_mut().zip(&rows) {
                let vals: [f32; G] = std::array::from_fn(|g| rows[g][q]);
                for (l, x) in acc.iter_mut().enumerate() {
                    *x += vals[l / oc] * d[l];
                }
            }
        }
        for (a, acc) in acc.iter().enumerate() {
            for (l, &x) in acc.iter().enumerate() {
                if tap(a, l) < taps {
                    out[tap(a, l) * oc + l % oc] = x;
                }
            }
        }
    }
}

/// Input gradient of a 2-D convolution: for each image, `weightᵀ · dY_n`
/// (`[C * k * k, OH * OW]`, each element summed over the output channels in
/// increasing order from `+0.0`) folded back by [`col2im_image_into`],
/// written into `grad_input` (`[N, C, H, W]`, the input's dims; fully
/// overwritten). Scratch comes from `pool`.
///
/// # Panics
/// Panics on a shape mismatch between the operands.
pub fn conv2d_input_grad_into(
    grad_output: &Tensor,
    weight: &Tensor,
    geom: Conv2dGeom,
    grad_input: &mut Tensor,
    pool: &mut TensorPool,
) {
    let (taps, pixels) = im2col_shape(grad_input, geom);
    let dims = grad_input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let oc = weight.dims()[0];
    assert_eq!(
        weight.dims(),
        &[oc, taps],
        "conv2d: weight must be [OC, C*k*k]"
    );
    assert_eq!(
        grad_output.numel(),
        n * oc * pixels,
        "conv2d: wrong grad_output size"
    );
    let mut wt = pool.take_uninit(&[taps, oc]);
    transpose_into(weight.data(), oc, taps, wt.data_mut());
    let mut dcols = pool.take_uninit(&[taps, pixels]);
    for (dy, dx) in grad_output
        .data()
        .chunks_exact(oc * pixels)
        .zip(grad_input.data_mut().chunks_exact_mut(c * h * w))
    {
        dcols.fill(0.0);
        gemm_accum(dcols.data_mut(), wt.data(), dy, taps, oc, pixels, 0, oc);
        col2im_image_into(dcols.data(), [c, h, w], geom, dx);
    }
    pool.recycle(wt);
    pool.recycle(dcols);
}

/// 2-D max pooling over an `[N, C, H, W]` tensor: writes the pooled
/// `[N, C, OH, OW]` tensor into `out` (fully overwritten) and, for each
/// output element, the flat index of the input element that won into
/// `argmax` (cleared and refilled, reusing its capacity) for the backward
/// pass.
///
/// # Panics
/// Panics if `input` is not rank-4 or `out` has the wrong element count.
pub fn max_pool2d_into(
    input: &Tensor,
    geom: Conv2dGeom,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) {
    assert_eq!(input.rank(), 4, "max_pool2d expects an [N, C, H, W] tensor");
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let k = geom.kernel;
    let oh = geom.out_size(h);
    let ow = geom.out_size(w);
    assert_eq!(out.numel(), n * c * oh * ow, "max_pool2d_into: wrong output size");
    out.reshape_in_place(&[n, c, oh, ow]);
    argmax.clear();
    argmax.resize(n * c * oh * ow, 0);
    let out = out.data_mut();
    let data = input.data();

    if geom.padding == 0 {
        // Common case (all pooling layers in the model zoo): every window is
        // fully in bounds, so the per-element boundary checks vanish. The
        // scan order (ky outer, kx inner, strict `>`) is identical to the
        // general loop, so winners and ties resolve to the same argmax.
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h;
                for oy in 0..oh {
                    let iy0 = oy * geom.stride;
                    for ox in 0..ow {
                        let out_idx = ((ni * c + ci) * oh + oy) * ow + ox;
                        let ix0 = ox * geom.stride;
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..k {
                            let row = (plane + iy0 + ky) * w + ix0;
                            for (kx, &v) in data[row..row + k].iter().enumerate() {
                                if v > best {
                                    best = v;
                                    best_idx = row + kx;
                                }
                            }
                        }
                        out[out_idx] = best;
                        argmax[out_idx] = best_idx;
                    }
                }
            }
        }
        return;
    }

    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_idx = ((ni * c + ci) * oh + oy) * ow + ox;
                    let iy0 = (oy * geom.stride) as isize - geom.padding as isize;
                    let ix0 = (ox * geom.stride) as isize - geom.padding as isize;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[out_idx] = best;
                    argmax[out_idx] = best_idx;
                }
            }
        }
    }
}

/// Backward pass of max pooling: routes each output gradient to the input
/// position that produced the maximum, writing into `grad_input` (fully
/// overwritten).
pub fn max_pool2d_backward_into(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
    grad_input: &mut Tensor,
) {
    assert_eq!(
        grad_output.numel(),
        argmax.len(),
        "argmax length must match output size"
    );
    let numel: usize = input_dims.iter().product();
    assert_eq!(grad_input.numel(), numel, "max_pool2d_backward_into: wrong size");
    grad_input.reshape_in_place(input_dims);
    grad_input.fill(0.0);
    let gi = grad_input.data_mut();
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        gi[idx] += g;
    }
}

/// Global average pooling `[N, C, H, W] -> [N, C]`, written into `out`
/// (fully overwritten).
pub fn global_avg_pool2d_into(input: &Tensor, out: &mut Tensor) {
    assert_eq!(input.rank(), 4, "global_avg_pool2d expects rank-4 input");
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(out.numel(), n * c, "global_avg_pool2d_into: wrong output size");
    out.reshape_in_place(&[n, c]);
    let area = (h * w) as f32;
    let out = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let start = (ni * c + ci) * h * w;
            let sum: f32 = input.data()[start..start + h * w].iter().sum();
            out[ni * c + ci] = sum / area;
        }
    }
}

/// Backward pass of global average pooling: spreads each gradient uniformly
/// over the spatial positions it averaged, writing into `out` (fully
/// overwritten).
pub fn global_avg_pool2d_backward_into(
    grad_output: &Tensor,
    input_dims: &[usize],
    out: &mut Tensor,
) {
    assert_eq!(input_dims.len(), 4, "expected [N, C, H, W] dims");
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    assert_eq!(grad_output.dims(), &[n, c], "grad_output must be [N, C]");
    assert_eq!(out.numel(), n * c * h * w, "wrong output size");
    out.reshape_in_place(input_dims);
    let area = (h * w) as f32;
    let out = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let g = grad_output.data()[ni * c + ci] / area;
            let start = (ni * c + ci) * h * w;
            for v in &mut out[start..start + h * w] {
                *v = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`im2col_image_into`] over every image of `input`, on a fresh
    /// NaN-filled `[N, C*k*k, OH*OW]` output.
    fn unfold(input: &Tensor, geom: Conv2dGeom) -> Tensor {
        let (taps, pixels) = im2col_shape(input, geom);
        let d = input.dims();
        let mut out = Tensor::full(&[d[0], taps, pixels], f32::NAN);
        let images = input.data().chunks_exact(d[1] * d[2] * d[3]);
        for (image, cols) in images.zip(out.data_mut().chunks_exact_mut(taps * pixels)) {
            im2col_image_into(image, [d[1], d[2], d[3]], geom, cols);
        }
        out
    }

    /// Input coordinate under tap offset `t` of output coordinate `o`, if it
    /// lies inside `0..size`.
    fn source(o: usize, t: usize, size: usize, geom: Conv2dGeom) -> Option<usize> {
        let i = (o * geom.stride + t) as isize - geom.padding as isize;
        (0..size as isize).contains(&i).then_some(i as usize)
    }

    /// The column matrix of one image, one scalar read per element.
    fn naive_cols(image: &[f32], [c, h, w]: [usize; 3], geom: Conv2dGeom) -> Vec<f32> {
        let (k, oh, ow) = (geom.kernel, geom.out_size(h), geom.out_size(w));
        let mut cols = Vec::new();
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            cols.push(match (source(oy, ky, h, geom), source(ox, kx, w, geom)) {
                                (Some(iy), Some(ix)) => image[(ci * h + iy) * w + ix],
                                _ => 0.0,
                            });
                        }
                    }
                }
            }
        }
        cols
    }

    /// Folds one image's column matrix back by a scalar scatter over output
    /// pixels in increasing order, then channels and taps.
    fn naive_fold(cols: &[f32], [c, h, w]: [usize; 3], geom: Conv2dGeom) -> Vec<f32> {
        let (k, oh, ow) = (geom.kernel, geom.out_size(h), geom.out_size(w));
        let mut image = vec![0f32; c * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            if let (Some(iy), Some(ix)) =
                                (source(oy, ky, h, geom), source(ox, kx, w, geom))
                            {
                                image[(ci * h + iy) * w + ix] +=
                                    cols[((ci * k + ky) * k + kx) * oh * ow + oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
        image
    }

    fn patterned(dims: &[usize], seed: usize) -> Tensor {
        let numel = dims.iter().product();
        Tensor::from_vec(
            (0..numel)
                .map(|i| (((i + seed) * 37 % 23) as f32 - 11.0) * 0.13)
                .collect(),
            dims,
        )
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `(N, C, OC, H = W, kernel, stride, padding)`: 3x3 same convolutions
    /// on and off the 8-wide pixel tile, a 1x1 kernel, stride 2 with a 5x5
    /// kernel, an output smaller than the kernel, a kernel wider than the
    /// unpadded image, one and two filters (the narrow weight gradient,
    /// also over 1024-row partials), a batch whose weight gradient sums
    /// 1024-row partials with a block edge inside an image, and one worth
    /// splitting across threads.
    const SHAPES: [(usize, usize, usize, usize, usize, usize, usize); 11] = [
        (2, 3, 5, 9, 3, 1, 1),
        (1, 1, 2, 7, 3, 2, 0),
        (3, 2, 4, 8, 1, 1, 0),
        (3, 4, 6, 11, 5, 2, 2),
        (2, 2, 3, 4, 5, 1, 2),
        (1, 2, 9, 1, 3, 1, 2),
        (2, 3, 2, 16, 3, 1, 1),
        (3, 2, 1, 9, 3, 1, 1),
        (64, 3, 2, 16, 3, 1, 1),
        (25, 3, 16, 7, 3, 1, 1),
        (8, 3, 16, 16, 3, 1, 1),
    ];

    #[test]
    fn im2col_matches_the_naive_unfold_on_every_geometry() {
        for (seed, &(n, c, _, hw, k, s, p)) in SHAPES.iter().enumerate() {
            let geom = Conv2dGeom::new(k, s, p);
            let input = patterned(&[n, c, hw, hw], seed);
            let cols = unfold(&input, geom);
            let naive: Vec<f32> = input
                .data()
                .chunks_exact(c * hw * hw)
                .flat_map(|image| naive_cols(image, [c, hw, hw], geom))
                .collect();
            assert_eq!(bits(cols.data()), bits(&naive), "shape {:?}", SHAPES[seed]);
        }
    }

    #[test]
    fn col2im_matches_the_naive_scatter_in_pixel_order() {
        for (seed, &(_, c, _, hw, k, s, p)) in SHAPES.iter().enumerate() {
            let geom = Conv2dGeom::new(k, s, p);
            let input = patterned(&[1, c, hw, hw], 0);
            let (taps, pixels) = im2col_shape(&input, geom);
            let cols = patterned(&[taps, pixels], seed);
            let mut folded = vec![f32::NAN; c * hw * hw];
            col2im_image_into(cols.data(), [c, hw, hw], geom, &mut folded);
            let naive = naive_fold(cols.data(), [c, hw, hw], geom);
            assert_eq!(bits(&folded), bits(&naive), "shape {:?}", SHAPES[seed]);
        }
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1x1 kernel, stride 1, no padding: each image's columns are its
        // channel planes.
        let input = Tensor::arange(2 * 3 * 2 * 2).reshape(&[2, 3, 2, 2]);
        let cols = unfold(&input, Conv2dGeom::new(1, 1, 0));
        assert_eq!(cols.dims(), &[2, 3, 4]);
        assert_eq!(cols.data(), input.data());
        // First output pixel of the first image: channel values at (0,0).
        let pixel0: Vec<f32> = (0..3).map(|t| cols.data()[t * 4]).collect();
        assert_eq!(pixel0, [0.0, 4.0, 8.0]);
    }

    #[test]
    fn im2col_known_patch() {
        // Single 1-channel 3x3 image, 2x2 kernel, stride 1, no padding: one
        // row per tap, one column per output pixel.
        let input = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let cols = unfold(&input, Conv2dGeom::new(2, 1, 0));
        assert_eq!(cols.dims(), &[1, 4, 4]);
        let column = |s: usize| -> Vec<f32> { (0..4).map(|t| cols.data()[t * 4 + s]).collect() };
        assert_eq!(column(0), [0.0, 1.0, 3.0, 4.0]);
        assert_eq!(column(3), [4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_respects_padding() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let cols = unfold(&input, Conv2dGeom::new(3, 1, 1));
        assert_eq!(cols.dims(), &[1, 9, 4]);
        // Top-left output: only the bottom-right 2x2 of the kernel overlaps the image.
        let nonzero = (0..9).filter(|&t| cols.data()[t * 4] != 0.0).count();
        assert_eq!(nonzero, 4);
    }

    #[test]
    fn conv_via_im2col_matches_direct_computation() {
        // 1 image, 1 channel 4x4, one 3x3 kernel of all ones => output = sum of each patch.
        let input = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let geom = Conv2dGeom::new(3, 1, 0);
        let mut cols = Tensor::full(&[9 * 4], f32::NAN);
        let mut out = Tensor::full(&[4], f32::NAN);
        let (weight, bias) = (Tensor::ones(&[1, 9]), Tensor::zeros(&[1]));
        conv2d_forward_into(&input, &weight, &bias, geom, &mut cols, &mut out);
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Patch sums computed by hand.
        assert_eq!(out.data(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y (adjoint test).
        let geom = Conv2dGeom::new(3, 1, 1);
        let dims = [2usize, 5, 5];
        let x: Vec<f32> = (0..50).map(|i| ((i * 7 % 11) as f32) - 5.0).collect();
        let mut cols = vec![f32::NAN; 18 * 25];
        im2col_image_into(&x, dims, geom, &mut cols);
        let y: Vec<f32> = (0..cols.len())
            .map(|i| ((i * 3 % 13) as f32) - 6.0)
            .collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut folded = vec![f32::NAN; 50];
        col2im_image_into(&y, dims, geom, &mut folded);
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn convolution_products_match_naive_loops_bitwise() {
        for (seed, &(n, c, oc, hw, k, s, p)) in SHAPES.iter().enumerate() {
            let geom = Conv2dGeom::new(k, s, p);
            let input = patterned(&[n, c, hw, hw], seed);
            let (taps, pixels) = im2col_shape(&input, geom);
            let weight = patterned(&[oc, taps], seed + 1);
            let bias = patterned(&[oc], seed + 2);
            let side = geom.out_size(hw);
            let grad_out = patterned(&[n, oc, side, side], seed + 3);
            let naive: Vec<Vec<f32>> = input
                .data()
                .chunks_exact(c * hw * hw)
                .map(|image| naive_cols(image, [c, hw, hw], geom))
                .collect();

            // Forward: W[oc,p]·cols[p,s] in increasing p from +0.0, bias after.
            let mut cols = Tensor::full(&[n * taps * pixels], f32::NAN);
            let mut out = Tensor::full(&[n * oc * pixels], f32::NAN);
            conv2d_forward_into(&input, &weight, &bias, geom, &mut cols, &mut out);
            let mut expected = Vec::new();
            for image in &naive {
                for o in 0..oc {
                    for px in 0..pixels {
                        let mut acc = 0f32;
                        for t in 0..taps {
                            acc += weight.data()[o * taps + t] * image[t * pixels + px];
                        }
                        expected.push(acc + bias.data()[o]);
                    }
                }
            }
            assert_eq!(
                bits(out.data()),
                bits(&expected),
                "forward {:?}",
                SHAPES[seed]
            );

            // Parameter gradients: matmul_at_b_into's grouping over the N*OH*OW
            // rows, added onto running totals.
            let mut pool = TensorPool::new();
            let mut grad_w = patterned(&[oc, taps], seed + 4);
            let mut grad_b = patterned(&[oc], seed + 5);
            let (w0, b0) = (grad_w.clone(), grad_b.clone());
            conv2d_param_grads(&grad_out, &cols, &mut grad_w, &mut grad_b, &mut pool);
            let rows = n * pixels;
            let block = if oc * rows * taps >= 1 << 19 && rows > 1024 {
                1024
            } else {
                rows
            };
            let dy =
                |r: usize, o: usize| grad_out.data()[(r / pixels * oc + o) * pixels + r % pixels];
            for o in 0..oc {
                for t in 0..taps {
                    let mut total = 0f32;
                    for start in (0..rows).step_by(block) {
                        let mut partial = 0f32;
                        for r in start..rows.min(start + block) {
                            partial += dy(r, o) * naive[r / pixels][t * pixels + r % pixels];
                        }
                        total += partial;
                    }
                    let want = w0.data()[o * taps + t] + total;
                    assert_eq!(grad_w.data()[o * taps + t].to_bits(), want.to_bits());
                }
                let db = (0..rows).fold(0f32, |acc, r| acc + dy(r, o));
                assert_eq!(grad_b.data()[o].to_bits(), (b0.data()[o] + db).to_bits());
            }

            // Input gradient: Wᵀ·dY summed over channels in increasing order,
            // folded back in pixel order.
            let mut grad_in = Tensor::full(&[n, c, hw, hw], f32::NAN);
            conv2d_input_grad_into(&grad_out, &weight, geom, &mut grad_in, &mut pool);
            let mut expected = Vec::new();
            for dy in grad_out.data().chunks_exact(oc * pixels) {
                let mut dcols = vec![0f32; taps * pixels];
                for t in 0..taps {
                    for px in 0..pixels {
                        for o in 0..oc {
                            dcols[t * pixels + px] +=
                                weight.data()[o * taps + t] * dy[o * pixels + px];
                        }
                    }
                }
                expected.extend(naive_fold(&dcols, [c, hw, hw], geom));
            }
            assert_eq!(
                bits(grad_in.data()),
                bits(&expected),
                "input grad {:?}",
                SHAPES[seed]
            );
        }
    }

    /// [`max_pool2d_into`] on a fresh NaN-filled output and an empty argmax.
    fn max_pool(input: &Tensor, geom: Conv2dGeom) -> (Tensor, Vec<usize>) {
        let d = input.dims();
        let pooled_dims = [d[0], d[1], geom.out_size(d[2]), geom.out_size(d[3])];
        let mut out = Tensor::full(&pooled_dims, f32::NAN);
        let mut argmax = Vec::new();
        max_pool2d_into(input, geom, &mut out, &mut argmax);
        (out, argmax)
    }

    #[test]
    fn geometry_out_size() {
        let g = Conv2dGeom::new(3, 1, 1);
        assert_eq!(g.out_size(8), 8);
        let g2 = Conv2dGeom::new(2, 2, 0);
        assert_eq!(g2.out_size(8), 4);
        let g3 = Conv2dGeom::new(3, 2, 1);
        assert_eq!(g3.out_size(8), 4);
        // Padding can make a window that is larger than the input fit.
        assert_eq!(g3.out_size(1), 1);
    }

    #[test]
    #[should_panic(expected = "window of 3 exceeds input of 2 padded by 0 on each side")]
    fn window_larger_than_the_padded_input_is_rejected() {
        Conv2dGeom::new(3, 1, 0).out_size(2);
    }

    #[test]
    fn max_pool_picks_maxima() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (pooled, _) = max_pool(&input, Conv2dGeom::new(2, 2, 0));
        assert_eq!(pooled.dims(), &[1, 1, 2, 2]);
        assert_eq!(pooled.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_gradient_to_argmax() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]);
        let (_, argmax) = max_pool(&input, Conv2dGeom::new(2, 2, 0));
        let grad_out = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
        let mut grad_in = Tensor::full(&[4], f32::NAN);
        max_pool2d_backward_into(&grad_out, &argmax, input.dims(), &mut grad_in);
        assert_eq!(grad_in.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_averages_each_channel() {
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let mut out = Tensor::full(&[2], f32::NAN);
        global_avg_pool2d_into(&input, &mut out);
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_uniformly() {
        let grad_out = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let mut grad_in = Tensor::full(&[8], f32::NAN);
        global_avg_pool2d_backward_into(&grad_out, &[1, 2, 2, 2], &mut grad_in);
        assert_eq!(grad_in.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_with_stride_one_overlapping_windows() {
        let input = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let (pooled, _) = max_pool(&input, Conv2dGeom::new(2, 1, 0));
        assert_eq!(pooled.dims(), &[1, 1, 2, 2]);
        assert_eq!(pooled.data(), &[4.0, 5.0, 7.0, 8.0]);
    }
}
