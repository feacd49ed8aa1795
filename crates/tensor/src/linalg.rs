//! Dense linear algebra: matrix multiplication and transposition.
//!
//! Matrix multiplication is the dominant kernel of every model in the
//! reproduction (fully-connected layers directly, convolutions via `im2col`,
//! LSTM gate projections). All three variants (`matmul_into`,
//! `matmul_at_b_into`, `matmul_a_bt_into`) share one cache-blocked,
//! register-tiled micro-kernel (`gemm_accum`): the transposed operand is
//! packed into a row-major panel first (tiled transpose), then a single
//! `MR x NR` register tile streams through `KC`-sized blocks of the reduction
//! dimension.
//!
//! **Bitwise stability.** Every output element accumulates its products in
//! strictly increasing `p` (reduction-index) order with one rounded multiply
//! and one rounded add per step — exactly the order of the naive `ikj` loop —
//! so fixed-seed training trajectories are bitwise independent of the
//! blocking parameters and the thread count.

use crate::Tensor;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Minimum number of multiply-accumulate operations (`m·k·n`) before a matmul
/// variant switches to rayon.
///
/// All three variants (`matmul_into`, `matmul_at_b_into`,
/// `matmul_a_bt_into`) share this one flop-based rule, so the parallel/serial
/// decision is consistent regardless of which operand is transposed: tiny
/// products (LSTM cells on small hidden sizes, per-sample ops) stay
/// single-threaded rather than paying the fork/join overhead, while gradient
/// products with a small `m·n` output but a deep `k` reduction (batch
/// dimension) still parallelise.
const PAR_THRESHOLD_FLOPS: usize = 512 * 1024;

/// Reduction-dimension block size of the micro-kernel: the active `KC x NR`
/// panel of `b` (8 KiB) plus `MR` rows of `a` stay L1-resident while a
/// register tile is accumulated.
const KC: usize = 256;
/// Rows per register tile.
const MR: usize = 6;
/// Columns per register tile (one 8-wide f32 vector on AVX2/NEON).
pub(crate) const NR: usize = 8;

/// Rows per partial sum of a deep `matmul_at_b_into` reduction. The length
/// is a fixed constant — never a function of the machine's thread count —
/// so the f32 summation grouping (and therefore every seeded training
/// trajectory) is bitwise identical across machines. The convolution
/// weight gradient ([`crate::conv::conv2d_param_grads`]) keeps the same
/// grouping.
pub(crate) const K_BLOCK_ROWS: usize = 1024;

#[inline]
pub(crate) fn parallel_worthwhile(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= PAR_THRESHOLD_FLOPS
}

/// Process-wide free list of packing buffers for the transposed operand.
///
/// A buffer is taken for one matmul and returned afterwards, so the list
/// holds as many buffers as matmuls ever ran concurrently, each grown to the
/// largest panel it served; steady-state matmuls perform no packing
/// allocations. The list outlives every thread: rayon workers may be
/// short-lived (the workspace's rayon shim spawns fresh threads per parallel
/// call), and a thread-local buffer would die with its thread and be
/// re-grown by the next one.
static PACK_BUFFERS: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

/// Writes the transpose of the row-major `src` matrix (`rows x cols`) into
/// `dst` (`cols x rows`), walking 8x8 tiles so both sides stay cache-resident.
/// Pure data movement — bitwise-neutral by construction.
///
/// # Panics
/// Panics if `dst` is shorter than `rows * cols`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const TILE: usize = 8;
    assert!(dst.len() >= rows * cols, "transpose_into: dst too short");
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                let row = &src[r * cols..r * cols + cols];
                for c in c0..c1 {
                    dst[c * rows + r] = row[c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// `R x W` register tile: accumulates `pc` products into `R * W`
/// accumulators held in registers, loading/storing the output tile once per
/// `KC` block instead of once per `p` step. `R` is monomorphised (`MR` for
/// full tiles, 4/2/1 for the `m % MR` remainder) and `W` is `NR` or, for a
/// remainder of at least `NR / 2` columns, `NR / 2`, so every row count keeps
/// a vectorised inner loop. Per-element accumulation order is strictly
/// increasing `p`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_tile<const R: usize, const W: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    j0: usize,
    p0: usize,
    pc: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let base = (i0 + r) * n + j0;
        acc_row.copy_from_slice(&out[base..base + W]);
    }
    for p in p0..p0 + pc {
        let bv: [f32; W] = b[p * n + j0..p * n + j0 + W]
            .try_into()
            .expect("slice is exactly W elements by construction");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + p];
            for (l, x) in acc_row.iter_mut().enumerate() {
                *x += av * bv[l];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let base = (i0 + r) * n + j0;
        out[base..base + W].copy_from_slice(acc_row);
    }
}

/// Runs the `ic x W` register tile at `(i0, j0)`, monomorphised on the row
/// count `gemm_accum` picked.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile<const W: usize>(
    ic: usize,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    j0: usize,
    p0: usize,
    pc: usize,
    k: usize,
    n: usize,
) {
    match ic {
        MR => micro_tile::<MR, W>(out, a, b, i0, j0, p0, pc, k, n),
        4 => micro_tile::<4, W>(out, a, b, i0, j0, p0, pc, k, n),
        2 => micro_tile::<2, W>(out, a, b, i0, j0, p0, pc, k, n),
        _ => micro_tile::<1, W>(out, a, b, i0, j0, p0, pc, k, n),
    }
}

/// Scalar edge tile for the last `n % (NR / 2)` columns; same per-element
/// accumulation order as the register tile.
#[inline]
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    ic: usize,
    j0: usize,
    jc: usize,
    p0: usize,
    pc: usize,
    k: usize,
    n: usize,
) {
    for i in i0..i0 + ic {
        let a_row = &a[i * k..i * k + k];
        for j in j0..j0 + jc {
            let mut acc = out[i * n + j];
            for p in p0..p0 + pc {
                acc += a_row[p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Accumulates `out[i, j] += Σ_{p in p_lo..p_hi} a[i, p] · b[p, j]` over the
/// row-major operands `a` (`m x k`) and `b` (`k x n`).
///
/// This is the one shared inner kernel of all matmul variants and of the
/// convolution products in [`crate::conv`]. `out` must be initialised (zeros
/// for a plain product, partial sums to continue one).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_accum(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    p_lo: usize,
    p_hi: usize,
) {
    let mut p0 = p_lo;
    while p0 < p_hi {
        let pc = KC.min(p_hi - p0);
        let mut i0 = 0;
        while i0 < m {
            // Pick the widest register tile that fits the remaining rows so
            // the vectorised inner loop covers every row of the matrix.
            let ic = match m - i0 {
                rem if rem >= MR => MR,
                rem if rem >= 4 => 4,
                rem if rem >= 2 => 2,
                _ => 1,
            };
            let mut j0 = 0;
            while j0 + NR <= n {
                tile::<NR>(ic, out, a, b, i0, j0, p0, pc, k, n);
                j0 += NR;
            }
            if j0 + NR / 2 <= n {
                tile::<{ NR / 2 }>(ic, out, a, b, i0, j0, p0, pc, k, n);
                j0 += NR / 2;
            }
            if j0 < n {
                edge_tile(out, a, b, i0, ic, j0, n - j0, p0, pc, k, n);
            }
            i0 += ic;
        }
        p0 += pc;
    }
}

/// Full product `out += a · b`, fanning row blocks out to rayon when the flop
/// count warrants it. Each row's reduction stays on one thread, so the result
/// is bitwise identical to the serial kernel.
///
/// Inside a rayon worker (where client training jobs run at two or more
/// threads) the row blocks would run one after another anyway, each
/// streaming all of `b` again, so the product runs as one serial pass
/// instead.
fn gemm(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let in_worker = rayon::current_thread_index().is_some();
    if parallel_worthwhile(m, k, n) && m > MR && n > 0 && !in_worker {
        out.par_chunks_mut(MR * n)
            .enumerate()
            .for_each(|(chunk, rows_out)| {
                let i0 = chunk * MR;
                let rows = rows_out.len() / n;
                gemm_accum(rows_out, &a[i0 * k..(i0 + rows) * k], b, rows, k, n, 0, k);
            });
    } else {
        gemm_accum(out, a, b, m, k, n, 0, k);
    }
}

/// Runs `body` with a pooled scratch buffer holding the transpose of `src`
/// (`rows x cols`, transposed panel is `cols x rows`).
///
/// The buffer leaves [`PACK_BUFFERS`] for the duration of `body` (no lock is
/// held across the rayon parallel regions inside it), so a nested or
/// concurrent call simply takes another buffer. The smallest buffer that
/// already fits is preferred, so a small panel never claims a large buffer
/// that a concurrent large panel would then have to re-grow.
fn with_packed_transpose<R>(
    src: &[f32],
    rows: usize,
    cols: usize,
    body: impl FnOnce(&[f32]) -> R,
) -> R {
    let len = rows * cols;
    // A panic elsewhere cannot leave the list invalid — every entry is plain
    // scratch whose contents are overwritten before use — so a poisoned lock
    // is recovered rather than propagated.
    let mut scratch = {
        let mut free = PACK_BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
        let fits = |b: &Vec<f32>| b.len() >= len;
        let best = (0..free.len())
            .filter(|&i| fits(&free[i]))
            .min_by_key(|&i| free[i].len())
            .or_else(|| (0..free.len()).max_by_key(|&i| free[i].len()));
        best.map(|i| free.swap_remove(i)).unwrap_or_default()
    };
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    transpose_into(src, rows, cols, &mut scratch);
    let result = body(&scratch[..len]);
    PACK_BUFFERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(scratch);
    result
}

impl Tensor {
    /// Matrix product of two rank-2 tensors, `[m, k] x [k, n] -> [m, n]`,
    /// written into `out` (any tensor with `m * n` elements, reshaped in
    /// place).
    ///
    /// # Panics
    /// Panics if either operand is not rank-2, the inner dimensions differ or
    /// `out` has the wrong element count.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul: left operand must be rank-2");
        assert_eq!(other.rank(), 2, "matmul: right operand must be rank-2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
        assert_eq!(out.numel(), m * n, "matmul_into: wrong output size");
        out.reshape_in_place(&[m, n]);
        out.fill(0.0);
        gemm(out.data_mut(), self.data(), other.data(), m, k, n);
    }

    /// Computes `self^T * other` without materialising the transpose,
    /// `[k, m]^T x [k, n] -> [m, n]`, written into `out` (any tensor with
    /// `m * n` elements, reshaped in place).
    ///
    /// Used by linear/conv backward passes to form weight gradients. The `k`
    /// dimension here is the batch/spatial reduction axis, so it is typically
    /// much larger than the `m x n` output; above the shared flop threshold
    /// the reduction is split into `k`-blocks reduced per thread and summed,
    /// which parallelises even when the output itself is small.
    ///
    /// # Panics
    /// Panics if either operand is not rank-2, the leading dimensions differ
    /// or `out` has the wrong element count.
    pub fn matmul_at_b_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_at_b: left operand must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_at_b: right operand must be rank-2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul_at_b: leading dimensions differ ({k} vs {k2})"
        );
        assert_eq!(out.numel(), m * n, "matmul_at_b_into: wrong output size");
        out.reshape_in_place(&[m, n]);
        out.fill(0.0);
        let b = other.data();
        with_packed_transpose(self.data(), k, m, |at| {
            if parallel_worthwhile(m, k, n) && k >= 2 {
                // Block over k and reduce per block in parallel, then sum the
                // partials in block order.
                let blocks = k.div_ceil(K_BLOCK_ROWS);
                if blocks == 1 {
                    // A single block reduces exactly like the serial kernel;
                    // skip the partial-buffer machinery (and its allocations).
                    gemm_accum(out.data_mut(), at, b, m, k, n, 0, k);
                    return;
                }
                let partials: Vec<Vec<f32>> = (0..blocks)
                    .into_par_iter()
                    .map(|block| {
                        let start = block * K_BLOCK_ROWS;
                        let end = ((block + 1) * K_BLOCK_ROWS).min(k);
                        // alloc: bounded — per-block partials on the multi-block parallel path; single-block path allocates none
                        let mut partial = vec![0f32; m * n];
                        gemm_accum(&mut partial, at, b, m, k, n, start, end);
                        partial
                    })
                    // alloc: bounded — per-block partials on the multi-block parallel path; single-block path allocates none
                    .collect();
                let od = out.data_mut();
                for partial in partials {
                    for (o, &p) in od.iter_mut().zip(&partial) {
                        *o += p;
                    }
                }
            } else {
                gemm_accum(out.data_mut(), at, b, m, k, n, 0, k);
            }
        });
    }

    /// Computes `self * other^T` without materialising the transpose,
    /// `[m, k] x [n, k]^T -> [m, n]`, written into `out` (any tensor with
    /// `m * n` elements, reshaped in place).
    ///
    /// Used by linear/conv backward passes to propagate gradients to inputs.
    ///
    /// # Panics
    /// Panics if either operand is not rank-2, the inner dimensions differ or
    /// `out` has the wrong element count.
    pub fn matmul_a_bt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_a_bt: left operand must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_a_bt: right operand must be rank-2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_a_bt: inner dimensions differ ({k} vs {k2})");
        assert_eq!(out.numel(), m * n, "matmul_a_bt_into: wrong output size");
        out.reshape_in_place(&[m, n]);
        out.fill(0.0);
        with_packed_transpose(other.data(), n, k, |bt| {
            gemm(out.data_mut(), self.data(), bt, m, k, n);
        });
    }

    /// Matrix–vector product: `[m, n] x [n] -> [m]`.
    ///
    /// # Panics
    /// Panics on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec: matrix must be rank-2");
        assert_eq!(v.rank(), 1, "matvec: vector must be rank-1");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert_eq!(n, v.numel(), "matvec: dimension mismatch");
        let mut out = vec![0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data()[i * n..(i + 1) * n];
            *o = row.iter().zip(v.data()).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out, &[m])
    }

    /// Outer product of two rank-1 tensors: `[m] x [n] -> [m, n]`.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer: left operand must be rank-1");
        assert_eq!(other.rank(), 1, "outer: right operand must be rank-1");
        let (m, n) = (self.numel(), other.numel());
        let mut out = vec![0f32; m * n];
        for (i, &a) in self.data().iter().enumerate() {
            for (j, &b) in other.data().iter().enumerate() {
                out[i * n + j] = a * b;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// The seed's naive ikj loop — the bitwise reference every blocked kernel
    /// must reproduce exactly.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a.data()[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a_ip * b.data()[p * n + j];
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Each `*_into` form on a fresh NaN-filled output.
    fn mm(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::full(&[a.dims()[0] * b.dims()[1]], f32::NAN);
        a.matmul_into(b, &mut out);
        out
    }

    fn mm_at_b(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::full(&[a.dims()[1] * b.dims()[1]], f32::NAN);
        a.matmul_at_b_into(b, &mut out);
        out
    }

    fn mm_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::full(&[a.dims()[0] * b.dims()[0]], f32::NAN);
        a.matmul_a_bt_into(b, &mut out);
        out
    }

    fn transposed(a: &Tensor) -> Tensor {
        let (m, n) = (a.dims()[0], a.dims()[1]);
        let mut out = Tensor::full(&[n, m], f32::NAN);
        transpose_into(a.data(), m, n, out.data_mut());
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn patterned(numel: usize, dims: &[usize], scale: f32) -> Tensor {
        Tensor::from_vec(
            (0..numel)
                .map(|i| ((i * 31 % 17) as f32 - 8.0) * scale)
                .collect(),
            dims,
        )
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = mm(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::arange(9).reshape(&[3, 3]);
        let c = mm(&a, &Tensor::eye(3));
        assert_eq!(c.data(), a.data());
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_bad_inner_dim() {
        let _ = mm(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn blocked_kernel_is_bitwise_identical_to_naive_ikj() {
        // Odd shapes: non-multiples of the MR/NR/KC tile sizes, single rows
        // and columns, reduction dims straddling the KC block edge, and
        // column counts that end in the half-width tile (4, 12, 13).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 300, 1),
            (3, 5, 7),
            (4, 8, 8),
            (7, 27, 4),
            (6, 260, 12),
            (11, 9, 13),
            (5, 9, 17),
            (13, 257, 9),
            (16, 511, 24),
            (33, 64, 63),
        ] {
            let a = patterned(m * k, &[m, k], 0.25);
            let b = patterned(k * n, &[k, n], 0.5);
            let blocked = mm(&a, &b);
            let naive = naive_matmul(&a, &b);
            assert_eq!(bits(&blocked), bits(&naive), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_handles_empty_dimensions() {
        assert_eq!(
            mm(&Tensor::zeros(&[0, 4]), &Tensor::zeros(&[4, 3])).dims(),
            &[0, 3]
        );
        assert_eq!(
            mm(&Tensor::zeros(&[2, 0]), &Tensor::zeros(&[0, 3])).data(),
            &[0.0; 6]
        );
        assert_eq!(
            mm(&Tensor::zeros(&[2, 4]), &Tensor::zeros(&[4, 0])).numel(),
            0
        );
    }

    #[test]
    fn into_forms_match_allocating_forms_bitwise() {
        // Each form, writing over a flat NaN-filled output, equals the naive
        // ikj loop over explicitly transposed operands.
        let a = patterned(7 * 13, &[7, 13], 0.3);
        let b = patterned(13 * 9, &[13, 9], 0.7);
        let bt = patterned(9 * 13, &[9, 13], 0.7);
        let at = patterned(13 * 7, &[13, 7], 0.3);
        let (bt_t, at_t) = (transposed(&bt), transposed(&at));
        assert_eq!(bits(&mm(&a, &b)), bits(&naive_matmul(&a, &b)));
        assert_eq!(bits(&mm_a_bt(&a, &bt)), bits(&naive_matmul(&a, &bt_t)));
        assert_eq!(bits(&mm_at_b(&at, &b)), bits(&naive_matmul(&at_t, &b)));
    }

    #[test]
    fn matmul_large_matches_naive() {
        // Large enough to cross the parallel threshold.
        let m = 130;
        let k = 40;
        let n = 135;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i % 7) as f32) * 0.5 - 1.0).collect(),
            &[k, n],
        );
        let c = mm(&a, &b);
        assert_eq!(bits(&c), bits(&naive_matmul(&a, &b)));
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let b = Tensor::from_vec((0..8).map(|i| (i as f32) * 0.5).collect(), &[4, 2]);
        let fused = mm_at_b(&a, &b);
        let explicit = mm(&transposed(&a), &b);
        assert!(approx_eq(fused.data(), explicit.data(), 1e-5));
    }

    #[test]
    fn matmul_at_b_parallel_reduction_matches_explicit_transpose() {
        // Deep k with a small m x n output: crosses the shared flop threshold
        // (m·k·n = 16·4096·16 = 1M) so the blocked parallel reduction runs.
        let (k, m, n) = (4096usize, 16usize, 16usize);
        let a = Tensor::from_vec(
            (0..k * m).map(|i| ((i % 11) as f32) * 0.25 - 1.0).collect(),
            &[k, m],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i % 7) as f32) * 0.5 - 1.5).collect(),
            &[k, n],
        );
        let fused = mm_at_b(&a, &b);
        let explicit = mm(&transposed(&a), &b);
        assert_eq!(fused.dims(), &[m, n]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            // The blocked reduction reassociates the k-sum; allow f32 slack.
            assert!((x - y).abs() < 1e-2 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_a_bt_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..20).map(|i| (i as f32) - 10.0).collect(), &[5, 4]);
        let fused = mm_a_bt(&a, &b);
        let explicit = mm(&a, &transposed(&b));
        assert!(approx_eq(fused.data(), explicit.data(), 1e-5));
    }

    #[test]
    fn fused_transpose_forms_are_bitwise_identical_to_packed_matmul() {
        // matmul_a_bt(a, b) must equal matmul(a, b^T) bit for bit (both run
        // the same kernel over the same packed panel), including odd shapes.
        for &(m, k, n) in &[(1usize, 3usize, 1usize), (5, 11, 7), (12, 300, 20)] {
            let a = patterned(m * k, &[m, k], 0.2);
            let b = patterned(n * k, &[n, k], 0.4);
            assert_eq!(bits(&mm_a_bt(&a, &b)), bits(&mm(&a, &transposed(&b))));
            let at = patterned(k * m, &[k, m], 0.2);
            let c = patterned(k * n, &[k, n], 0.4);
            if !parallel_worthwhile(m, k, n) {
                assert_eq!(bits(&mm_at_b(&at, &c)), bits(&mm(&transposed(&at), &c)));
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(transposed(&transposed(&a)), a);
    }

    #[test]
    fn transpose_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = transposed(&a);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn tiled_transpose_matches_naive_on_odd_shapes() {
        for &(rows, cols) in &[(1usize, 1usize), (3, 17), (8, 8), (9, 33), (40, 7)] {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let mut dst = vec![0f32; rows * cols];
            transpose_into(&src, rows, cols, &mut dst);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(dst[c * rows + r], src[r * cols + c]);
                }
            }
        }
    }

    #[test]
    fn matvec_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        assert_eq!(a.matvec(&v).data(), &[-1.0, -1.0]);
    }

    #[test]
    fn outer_product_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]);
        let o = a.outer(&b);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_associativity_with_identity_chain() {
        let a = Tensor::arange(4).reshape(&[2, 2]);
        let i = Tensor::eye(2);
        let left = mm(&mm(&a, &i), &i);
        assert_eq!(left, a);
    }
}
