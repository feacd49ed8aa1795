//! Convolution and pooling kernels (`im2col` / `col2im`, max / average pooling).
//!
//! Layout convention: image batches are rank-4 `[N, C, H, W]` (batch, channel,
//! height, width), matching the layer implementations in `fedcross-nn`.

use crate::Tensor;

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

/// Unfolds an `[N, C, H, W]` batch into the `im2col` matrix
/// `[N * OH * OW, C * k * k]`.
///
/// Each output row contains the receptive field of one output pixel, so a 2-D
/// convolution becomes a single matrix product against the reshaped kernel
/// bank.
///
/// # Panics
/// Panics if `input` is not rank-4.
pub fn im2col(input: &Tensor, geom: Conv2dGeom) -> Tensor {
    let (rows, row_len) = im2col_shape(input, geom);
    let mut out = Tensor::zeros(&[rows, row_len]);
    im2col_into(input, geom, &mut out);
    out
}

/// Output shape `[N * OH * OW, C * k * k]` of [`im2col`] for `input`.
pub fn im2col_shape(input: &Tensor, geom: Conv2dGeom) -> (usize, usize) {
    assert_eq!(input.rank(), 4, "im2col expects an [N, C, H, W] tensor");
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    (
        n * geom.out_size(h) * geom.out_size(w),
        c * geom.kernel * geom.kernel,
    )
}

/// Destination-passing form of [`im2col`]: unfolds into `out` (which must
/// have `N*OH*OW * C*k*k` elements; contents are fully overwritten). Bitwise
/// identical to the allocating form.
pub fn im2col_into(input: &Tensor, geom: Conv2dGeom, out: &mut Tensor) {
    let (rows, row_len) = im2col_shape(input, geom);
    assert_eq!(out.numel(), rows * row_len, "im2col_into: wrong output size");
    out.reshape_in_place(&[rows, row_len]);
    out.fill(0.0);
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let k = geom.kernel;
    let oh = geom.out_size(h);
    let ow = geom.out_size(w);
    let data = input.data();
    let out = out.data_mut();

    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_idx = (ni * oh + oy) * ow + ox;
                let row = &mut out[row_idx * row_len..(row_idx + 1) * row_len];
                let iy0 = (oy * geom.stride) as isize - geom.padding as isize;
                let ix0 = (ox * geom.stride) as isize - geom.padding as isize;
                // The kx extent of the kernel that lands inside the image is
                // contiguous in both the input row and the im2col row, so
                // each (channel, ky) line is one slice copy instead of k
                // bounds-checked scalar moves.
                let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                            continue;
                        }
                        let col = (ci * k + ky) * k;
                        let src = ((ni * c + ci) * h + iy as usize) * w
                            + (ix0 + kx_lo as isize) as usize;
                        row[col + kx_lo..col + kx_hi]
                            .copy_from_slice(&data[src..src + (kx_hi - kx_lo)]);
                    }
                }
            }
        }
    }
}

/// Folds an `im2col` matrix back into an `[N, C, H, W]` tensor, summing
/// overlapping contributions. This is the adjoint of [`im2col`] and is used to
/// propagate gradients through a convolution to its input.
///
/// # Panics
/// Panics if the column matrix does not match the geometry implied by
/// `input_dims` and `geom`.
pub fn col2im(cols: &Tensor, input_dims: &[usize], geom: Conv2dGeom) -> Tensor {
    let mut out = Tensor::zeros(input_dims);
    col2im_into(cols, input_dims, geom, &mut out);
    out
}

/// Destination-passing form of [`col2im`]: folds into `out` (which must have
/// `N*C*H*W` elements; contents are fully overwritten before the overlapping
/// sums accumulate). Bitwise identical to the allocating form.
pub fn col2im_into(cols: &Tensor, input_dims: &[usize], geom: Conv2dGeom, out: &mut Tensor) {
    assert_eq!(input_dims.len(), 4, "col2im expects [N, C, H, W] dims");
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let k = geom.kernel;
    let oh = geom.out_size(h);
    let ow = geom.out_size(w);
    let row_len = c * k * k;
    assert_eq!(
        cols.dims(),
        &[n * oh * ow, row_len],
        "col matrix shape does not match geometry"
    );
    assert_eq!(out.numel(), n * c * h * w, "col2im_into: wrong output size");
    out.reshape_in_place(input_dims);
    out.fill(0.0);
    let out = out.data_mut();
    let data = cols.data();
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_idx = (ni * oh + oy) * ow + ox;
                let row = &data[row_idx * row_len..(row_idx + 1) * row_len];
                let iy0 = (oy * geom.stride) as isize - geom.padding as isize;
                let ix0 = (ox * geom.stride) as isize - geom.padding as isize;
                // As in im2col_into, the in-bounds kx extent is contiguous on
                // both sides; accumulate it slice-against-slice in ascending
                // kx order (the exact order of the scalar loop).
                let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                            continue;
                        }
                        let col = (ci * k + ky) * k;
                        let dst = ((ni * c + ci) * h + iy as usize) * w
                            + (ix0 + kx_lo as isize) as usize;
                        let src = &row[col + kx_lo..col + kx_hi];
                        for (o, &v) in out[dst..dst + kx_hi - kx_lo].iter_mut().zip(src) {
                            *o += v;
                        }
                    }
                }
            }
        }
    }
}

/// Result of a max-pooling forward pass: the pooled tensor plus the flat index
/// (into the input) of each selected maximum, needed for the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled tensor `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index of the input element that won.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over an `[N, C, H, W]` tensor.
pub fn max_pool2d(input: &Tensor, geom: Conv2dGeom) -> MaxPoolOutput {
    let dims = input.dims();
    let (n, c) = (dims[0], dims[1]);
    let oh = geom.out_size(dims[2]);
    let ow = geom.out_size(dims[3]);
    let mut output = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = Vec::new();
    max_pool2d_into(input, geom, &mut output, &mut argmax);
    MaxPoolOutput { output, argmax }
}

/// Destination-passing form of [`max_pool2d`]: writes the pooled tensor into
/// `out` (fully overwritten) and the winning indices into `argmax` (cleared
/// and refilled, reusing its capacity). Bitwise identical to the allocating
/// form.
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
/// position that produced the maximum.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Tensor {
    let mut grad_input = Tensor::zeros(input_dims);
    max_pool2d_backward_into(grad_output, argmax, input_dims, &mut grad_input);
    grad_input
}

/// Destination-passing form of [`max_pool2d_backward`]; `grad_input` is fully
/// overwritten. Bitwise identical to the allocating form.
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

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
pub fn global_avg_pool2d(input: &Tensor) -> Tensor {
    assert_eq!(input.rank(), 4, "global_avg_pool2d expects rank-4 input");
    let dims = input.dims();
    let mut out = Tensor::zeros(&[dims[0], dims[1]]);
    global_avg_pool2d_into(input, &mut out);
    out
}

/// Destination-passing form of [`global_avg_pool2d`]; `out` is fully
/// overwritten. Bitwise identical to the allocating form.
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
/// over the spatial positions it averaged.
pub fn global_avg_pool2d_backward(grad_output: &Tensor, input_dims: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(input_dims);
    global_avg_pool2d_backward_into(grad_output, input_dims, &mut out);
    out
}

/// Destination-passing form of [`global_avg_pool2d_backward`]; `out` is fully
/// overwritten. Bitwise identical to the allocating form.
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
    fn im2col_identity_kernel_geometry() {
        // 1x1 kernel, stride 1, no padding: im2col is a pure reshape/permute.
        let input = Tensor::arange(2 * 3 * 2 * 2).reshape(&[2, 3, 2, 2]);
        let cols = im2col(&input, Conv2dGeom::new(1, 1, 0));
        assert_eq!(cols.dims(), &[2 * 2 * 2, 3]);
        // First output pixel of first image should contain channel values at (0,0).
        assert_eq!(cols.row(0).data(), &[0.0, 4.0, 8.0]);
    }

    #[test]
    fn im2col_known_patch() {
        // Single 1-channel 3x3 image, 2x2 kernel, stride 1, no padding.
        let input = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let cols = im2col(&input, Conv2dGeom::new(2, 1, 0));
        assert_eq!(cols.dims(), &[4, 4]);
        assert_eq!(cols.row(0).data(), &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(cols.row(3).data(), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_respects_padding() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&input, Conv2dGeom::new(3, 1, 1));
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output: only the bottom-right 2x2 of the kernel overlaps the image.
        let row = cols.row(0);
        let nonzero = row.data().iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 4);
    }

    #[test]
    fn conv_via_im2col_matches_direct_computation() {
        // 1 image, 1 channel 4x4, one 3x3 kernel of all ones => output = sum of each patch.
        let input = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let geom = Conv2dGeom::new(3, 1, 0);
        let cols = im2col(&input, geom);
        let kernel = Tensor::ones(&[9, 1]); // [C*k*k, out_channels]
        let out = cols.matmul(&kernel); // [4, 1]
        // Patch sums computed by hand.
        assert_eq!(out.data(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y (adjoint test).
        let geom = Conv2dGeom::new(3, 1, 1);
        let dims = [2usize, 2, 5, 5];
        let x = Tensor::from_vec(
            (0..dims.iter().product::<usize>())
                .map(|i| ((i * 7 % 11) as f32) - 5.0)
                .collect(),
            &dims,
        );
        let cols = im2col(&x, geom);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| ((i * 3 % 13) as f32) - 6.0).collect(),
            cols.dims(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, &dims, geom);
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {lhs} vs {rhs}");
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
        let pooled = max_pool2d(&input, Conv2dGeom::new(2, 2, 0));
        assert_eq!(pooled.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_gradient_to_argmax() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]);
        let pooled = max_pool2d(&input, Conv2dGeom::new(2, 2, 0));
        let grad_out = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
        let grad_in = max_pool2d_backward(&grad_out, &pooled.argmax, input.dims());
        assert_eq!(grad_in.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_averages_each_channel() {
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let out = global_avg_pool2d(&input);
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_uniformly() {
        let grad_out = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let grad_in = global_avg_pool2d_backward(&grad_out, &[1, 2, 2, 2]);
        assert_eq!(grad_in.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_with_stride_one_overlapping_windows() {
        let input = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let pooled = max_pool2d(&input, Conv2dGeom::new(2, 1, 0));
        assert_eq!(pooled.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4.0, 5.0, 7.0, 8.0]);
    }
}
