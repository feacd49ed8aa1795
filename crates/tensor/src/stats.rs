//! Reductions, norms, distances and model-similarity measures.
//!
//! [`cosine_similarity`] is the similarity measure FedCross uses to pick
//! collaborative models (Section III-B1 of the paper); the flat-parameter
//! variants here operate directly on the flattened model vectors that the
//! cloud server holds.

use crate::Tensor;
use rayon::prelude::*;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            return 0.0;
        }
        self.sum() / self.numel() as f32
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.numel() == 0 {
            return 0.0;
        }
        let mean = self.mean();
        self.data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / self.numel() as f32
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in a rank-1 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(self.numel() > 0, "argmax of empty tensor");
        self.data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Row-wise argmax of a rank-2 tensor (one index per row).
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let cols = self.dims()[1];
        self.data()
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            // alloc: bounded — one index per eval row
            .collect()
    }

    /// Dot product with another tensor of identical shape.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot: element counts differ ({} vs {})",
            self.numel(),
            other.numel()
        );
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance to another tensor of identical shape.
    pub fn squared_distance(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "squared_distance: element counts differ"
        );
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean distance to another tensor of identical shape.
    pub fn distance(&self, other: &Tensor) -> f32 {
        self.squared_distance(other).sqrt()
    }
}

/// Chunk width of the unrolled pairwise kernels below.
///
/// Eight independent accumulator lanes break the serial dependency chain of a
/// naive reduction, so the compiler auto-vectorizes the loop; the same
/// chunked-unrolled structure is used by the in-place fused kernels in
/// `fedcross_nn::params`, keeping the whole parameter plane on one code shape.
pub const KERNEL_LANES: usize = 8;

/// Fused single pass over two slices computing `<x, y>`, `<x, x>` and
/// `<y, y>` in `f64`, with [`KERNEL_LANES`] independent accumulator lanes.
///
/// This is the shared inner loop of [`cosine_similarity`] (FedCross'
/// collaborative-model selection measure): one pass instead of three, with
/// no serial dependency between lanes.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot_and_norms(x: &[f32], y: &[f32]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len(), "dot_and_norms: lengths differ");
    let mut dot = [0f64; KERNEL_LANES];
    let mut nx = [0f64; KERNEL_LANES];
    let mut ny = [0f64; KERNEL_LANES];
    let mut x_chunks = x.chunks_exact(KERNEL_LANES);
    let mut y_chunks = y.chunks_exact(KERNEL_LANES);
    for (xc, yc) in (&mut x_chunks).zip(&mut y_chunks) {
        for lane in 0..KERNEL_LANES {
            let a = xc[lane] as f64;
            let b = yc[lane] as f64;
            dot[lane] += a * b;
            nx[lane] += a * a;
            ny[lane] += b * b;
        }
    }
    for (lane, (&a, &b)) in x_chunks.remainder().iter().zip(y_chunks.remainder()).enumerate() {
        let a = a as f64;
        let b = b as f64;
        dot[lane] += a * b;
        nx[lane] += a * a;
        ny[lane] += b * b;
    }
    (
        dot.iter().sum(),
        nx.iter().sum(),
        ny.iter().sum(),
    )
}

/// Squared Euclidean distance between two slices, accumulated in `f64` with
/// [`KERNEL_LANES`] independent lanes (the shared inner loop of
/// [`euclidean_distance`] and `fedcross_nn::params::squared_distance`).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn squared_distance_slices(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "squared_distance_slices: lengths differ");
    let mut acc = [0f64; KERNEL_LANES];
    let mut x_chunks = x.chunks_exact(KERNEL_LANES);
    let mut y_chunks = y.chunks_exact(KERNEL_LANES);
    for (xc, yc) in (&mut x_chunks).zip(&mut y_chunks) {
        for lane in 0..KERNEL_LANES {
            let d = (xc[lane] - yc[lane]) as f64;
            acc[lane] += d * d;
        }
    }
    for (lane, (&a, &b)) in x_chunks.remainder().iter().zip(y_chunks.remainder()).enumerate() {
        let d = (a - b) as f64;
        acc[lane] += d * d;
    }
    acc.iter().sum()
}

/// The per-pair reduction [`pairwise_matrix`] accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairwise {
    /// `<x_i, x_j>`, the `dot` of [`dot_and_norms`]. The diagonal holds each
    /// model's squared norm, its `nx`.
    Dot,
    /// [`squared_distance_slices`]. The diagonal is zero for finite models.
    SquaredDistance,
}

/// Scalars per block of [`pairwise_matrix`]: every model's block (1 KiB)
/// stays cache-resident while a worker runs all its tiles over it. A
/// multiple of [`KERNEL_LANES`], so no block boundary splits a lane chunk.
const PAIR_BLOCK: usize = 32 * KERNEL_LANES;

/// Models per side of a register tile of [`pairwise_matrix`].
const TILE: usize = 2;

/// Minimum `K²·d` before [`pairwise_matrix`] splits its tiles across rayon.
const PAR_THRESHOLD_SCALARS: usize = 1 << 18;

/// The lane accumulators of one tile, row-major over its `TILE × TILE`
/// pairs.
type TileLanes = [[f64; KERNEL_LANES]; TILE * TILE];

/// The symmetric `K × K` matrix (row-major) of one pairwise reduction over
/// `models`, e.g. the dot products and squared norms cosine selection needs.
///
/// Entry `(i, j)` with `i <= j` is bitwise equal to
/// `dot_and_norms(x_i, x_j).0` or `squared_distance_slices(x_i, x_j)`, and
/// `(j, i)` holds the same value: lane `l` accumulates the terms at
/// positions `≡ l (mod KERNEL_LANES)` in increasing order, and the lanes are
/// summed as the per-pair kernels sum them. A NaN entry is NaN wherever the
/// per-pair kernel's is; Rust leaves the sign and payload of a NaN
/// unspecified.
///
/// One blocked pass over `d` fills the whole upper triangle: the pairs are
/// grouped into 2×2 register tiles, and a worker runs all its tiles over one
/// block of every model before moving on, so it reads each model from
/// memory once rather than once per pair. Above `K²·d ≥ 2¹⁸` scalars the
/// tiles are split into one contiguous run per rayon thread; work is split
/// by pairs, never along `d`, so the result does not depend on the thread
/// count.
///
/// # Panics
/// Panics if the models differ in length.
pub fn pairwise_matrix<V: AsRef<[f32]> + Sync>(models: &[V], kind: Pairwise) -> Vec<f64> {
    match kind {
        Pairwise::Dot => pairwise_with(models, |a, b| a as f64 * b as f64),
        Pairwise::SquaredDistance => pairwise_with(models, |a, b| {
            let d = (a - b) as f64;
            d * d
        }),
    }
}

fn pairwise_with<V, F>(models: &[V], term: F) -> Vec<f64>
where
    V: AsRef<[f32]> + Sync,
    F: Fn(f32, f32) -> f64 + Copy + Sync,
{
    let k = models.len();
    let dim = models.first().map_or(0, |m| m.as_ref().len());
    for model in models {
        assert_eq!(model.as_ref().len(), dim, "pairwise_matrix: lengths differ");
    }
    // Models are grouped in bands of TILE. The last band of an odd K
    // repeats its model, so its tiles recompute an entry they already hold.
    let member = |band: usize, t: usize| (band * TILE + t).min(k.saturating_sub(1));
    let bands = k.div_ceil(TILE);
    let tiles: Vec<(usize, usize)> = (0..bands)
        .flat_map(|r| (r..bands).map(move |c| (r, c)))
        // alloc: bounded — O(K²) tile list, once per pairwise pass
        .collect();
    let parts = if k.saturating_mul(k).saturating_mul(dim) >= PAR_THRESHOLD_SCALARS {
        rayon::current_num_threads().min(tiles.len())
    } else {
        1
    };
    let sweep = |tiles: &[(usize, usize)]| -> Vec<TileLanes> {
        // alloc: bounded — O(K²) lane accumulators, once per pairwise pass
        let mut lanes = vec![[[0f64; KERNEL_LANES]; TILE * TILE]; tiles.len()];
        let mut start = 0;
        while start < dim {
            // Every block but the last is whole chunks; the last carries
            // the remainder into lanes 0.., as the per-pair kernels do.
            let end = dim.min(start + PAIR_BLOCK);
            for (&(r, c), acc) in tiles.iter().zip(&mut lanes) {
                let rows = std::array::from_fn(|t| &models[member(r, t)].as_ref()[start..end]);
                let cols = std::array::from_fn(|t| &models[member(c, t)].as_ref()[start..end]);
                accumulate_tile(acc, rows, cols, term);
            }
            start = end;
        }
        lanes
    };
    let n = tiles.len();
    let per_part: Vec<Vec<TileLanes>> = (0..parts)
        .into_par_iter()
        .map(|p| sweep(&tiles[p * n / parts..(p + 1) * n / parts]))
        // alloc: bounded — one accumulator list per rayon part, once per pairwise pass
        .collect();
    // alloc: bounded — the K×K result matrix, once per pairwise pass
    let mut matrix = vec![0f64; k * k];
    let accumulators = per_part.iter().flat_map(|part| part.iter());
    for (&(r, c), acc) in tiles.iter().zip(accumulators) {
        for (pair, lanes) in acc.iter().enumerate() {
            let (i, j) = (member(r, pair / TILE), member(c, pair % TILE));
            // Diagonal tiles also hold the mirrored pair; the upper one
            // keeps the operand order of the per-pair kernels.
            if i <= j {
                let sum = lanes.iter().sum();
                matrix[i * k + j] = sum;
                matrix[j * k + i] = sum;
            }
        }
    }
    matrix
}

/// Adds one block of a `TILE × TILE` tile's terms into its lane
/// accumulators, in the lane order of [`dot_and_norms`]. One accumulator
/// array per pair, updated in one lane loop, is the shape that vectorises.
#[inline(always)]
fn accumulate_tile<F: Fn(f32, f32) -> f64>(
    acc: &mut TileLanes,
    [r0, r1]: [&[f32]; TILE],
    [c0, c1]: [&[f32]; TILE],
    term: F,
) {
    let [mut s0, mut s1, mut s2, mut s3] = *acc;
    let mut x0 = r0.chunks_exact(KERNEL_LANES);
    let mut x1 = r1.chunks_exact(KERNEL_LANES);
    let mut y0 = c0.chunks_exact(KERNEL_LANES);
    let mut y1 = c1.chunks_exact(KERNEL_LANES);
    for (((p, q), u), v) in (&mut x0).zip(&mut x1).zip(&mut y0).zip(&mut y1) {
        for lane in 0..KERNEL_LANES {
            s0[lane] += term(p[lane], u[lane]);
            s1[lane] += term(p[lane], v[lane]);
            s2[lane] += term(q[lane], u[lane]);
            s3[lane] += term(q[lane], v[lane]);
        }
    }
    let (p, q, u, v) = (
        x0.remainder(),
        x1.remainder(),
        y0.remainder(),
        y1.remainder(),
    );
    for lane in 0..p.len() {
        s0[lane] += term(p[lane], u[lane]);
        s1[lane] += term(p[lane], v[lane]);
        s2[lane] += term(q[lane], u[lane]);
        s3[lane] += term(q[lane], v[lane]);
    }
    *acc = [s0, s1, s2, s3];
}

/// Combines a dot product and two squared norms into the clamped cosine
/// similarity — the one definition shared by [`cosine_similarity`] and the
/// [`pairwise_matrix`] selection path.
pub fn cosine_from_parts(dot: f64, nx: f64, ny: f64) -> f32 {
    let denom = nx.sqrt() * ny.sqrt();
    if denom <= f64::MIN_POSITIVE {
        return 0.0;
    }
    (dot / denom).clamp(-1.0, 1.0) as f32
}

/// Cosine similarity between two flat parameter slices.
///
/// Defined as `<x, y> / (||x|| * ||y||)` and clamped to `[-1, 1]`; returns 0
/// when either vector has (near-)zero norm so that freshly-initialised models
/// never produce NaNs in the selection strategies.
pub fn cosine_similarity(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "cosine_similarity: lengths differ");
    let (dot, nx, ny) = dot_and_norms(x, y);
    cosine_from_parts(dot, nx, ny)
}

/// Euclidean distance between two flat parameter slices.
pub fn euclidean_distance(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "euclidean_distance: lengths differ");
    squared_distance_slices(x, y).sqrt() as f32
}

/// Mean of a slice of f32 values (0 for an empty slice).
pub fn mean_of(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Sample standard deviation of a slice (0 for fewer than two values).
pub fn std_dev_of(values: &[f32]) -> f32 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = mean_of(values);
    let var = values
        .iter()
        .map(|&x| (x - mean) * (x - mean))
        .sum::<f32>()
        / (values.len() - 1) as f32;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_mean_variance() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn max_min_argmax() {
        let t = Tensor::from_vec(vec![3.0, -1.0, 7.0, 2.0], &[4]);
        assert_eq!(t.max(), 7.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn argmax_rows_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.8, 0.1, 0.1], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn dot_and_norms() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.l2_norm(), 5.0);
    }

    #[test]
    fn distances() {
        let a = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.squared_distance(&b), 25.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn cosine_similarity_identical_vectors_is_one() {
        let x = vec![0.5, -1.0, 2.0, 3.0];
        assert!((cosine_similarity(&x, &x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_opposite_vectors_is_minus_one() {
        let x = vec![1.0, 2.0, -3.0];
        let y: Vec<f32> = x.iter().map(|v| -v).collect();
        assert!((cosine_similarity(&x, &y) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_orthogonal_vectors_is_zero() {
        let x = vec![1.0, 0.0];
        let y = vec![0.0, 1.0];
        assert!(cosine_similarity(&x, &y).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_scale_invariant() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.2, -0.4, 1.7];
        let scaled: Vec<f32> = y.iter().map(|v| v * 42.0).collect();
        assert!((cosine_similarity(&x, &y) - cosine_similarity(&x, &scaled)).abs() < 1e-5);
    }

    #[test]
    fn cosine_similarity_zero_vector_returns_zero() {
        let x = vec![0.0, 0.0, 0.0];
        let y = vec![1.0, 2.0, 3.0];
        assert_eq!(cosine_similarity(&x, &y), 0.0);
    }

    #[test]
    fn euclidean_distance_matches_tensor_distance() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 6.0, 3.0];
        assert!((euclidean_distance(&a, &b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dot_and_norms_matches_sequential_reference() {
        // Lengths straddling the unroll width, including the remainder path.
        for n in [0usize, 1, 7, 8, 9, 64, 65, 1000] {
            let x: Vec<f32> = (0..n).map(|i| ((i % 17) as f32) * 0.3 - 2.0).collect();
            let y: Vec<f32> = (0..n).map(|i| ((i % 13) as f32) * -0.7 + 1.0).collect();
            let (dot, nx, ny) = super::dot_and_norms(&x, &y);
            let ref_dot: f64 = x.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
            let ref_nx: f64 = x.iter().map(|&a| (a as f64) * (a as f64)).sum();
            let ref_ny: f64 = y.iter().map(|&b| (b as f64) * (b as f64)).sum();
            assert!((dot - ref_dot).abs() < 1e-9 * (1.0 + ref_dot.abs()));
            assert!((nx - ref_nx).abs() < 1e-9 * (1.0 + ref_nx));
            assert!((ny - ref_ny).abs() < 1e-9 * (1.0 + ref_ny));
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: Rust leaves
    /// the sign and payload of a NaN unspecified.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_pairwise_matches_per_pair_kernels(models: &[Vec<f32>], case: &str) {
        let k = models.len();
        let dot = pairwise_matrix(models, Pairwise::Dot);
        let dist = pairwise_matrix(models, Pairwise::SquaredDistance);
        assert_eq!((dot.len(), dist.len()), (k * k, k * k), "{case}");
        for i in 0..k {
            for j in i..k {
                let (d, ni, nj) = super::dot_and_norms(&models[i], &models[j]);
                let sd = squared_distance_slices(&models[i], &models[j]);
                let at = |i: usize, j: usize| i * k + j;
                assert!(same_bits(dot[at(i, j)], d), "{case}: dot ({i}, {j})");
                assert!(same_bits(dot[at(i, i)], ni), "{case}: norm {i}");
                assert!(same_bits(dot[at(j, j)], nj), "{case}: norm {j}");
                assert!(same_bits(dist[at(i, j)], sd), "{case}: distance ({i}, {j})");
                assert_eq!(dot[at(j, i)].to_bits(), dot[at(i, j)].to_bits(), "{case}");
                assert_eq!(dist[at(j, i)].to_bits(), dist[at(i, j)].to_bits(), "{case}");
            }
        }
    }

    #[test]
    fn pairwise_matrix_entries_are_bitwise_equal_to_the_per_pair_kernels() {
        // Lengths straddle the lane width and the 256-scalar block; the last
        // length per K crosses the parallel threshold, which the thread
        // counts below switch between one and two rayon parts.
        let value = |m: usize, i: usize| ((i * (m + 3) + 7 * m) % 29) as f32 * 0.37 - 5.0;
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            for k in [0usize, 1, 2, 3, 5] {
                let par_dim = (1 << 18) / (k * k).max(1) + 9;
                for dim in [0usize, 1, 7, 8, 9, 255, 256, 257, 1000, par_dim] {
                    let finite: Vec<Vec<f32>> = (0..k)
                        .map(|m| (0..dim).map(|i| value(m, i)).collect())
                        .collect();
                    let case = format!("threads {threads}, K {k}, d {dim}");
                    assert_pairwise_matches_per_pair_kernels(&finite, &case);
                    if dim == 0 {
                        continue;
                    }
                    let mut mixed = finite.clone();
                    for (m, model) in mixed.iter_mut().enumerate() {
                        model[(13 * m) % dim] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][m % 3];
                    }
                    assert_pairwise_matches_per_pair_kernels(&mixed, &format!("{case}, mixed"));
                    for fill in [f32::NAN, f32::INFINITY] {
                        let all = vec![vec![fill; dim]; k];
                        assert_pairwise_matches_per_pair_kernels(
                            &all,
                            &format!("{case}, all {fill}"),
                        );
                    }
                }
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    #[should_panic(expected = "pairwise_matrix: lengths differ")]
    fn pairwise_matrix_rejects_ragged_models() {
        pairwise_matrix(&[vec![1.0, 2.0], vec![1.0]], Pairwise::Dot);
    }

    #[test]
    fn squared_distance_slices_matches_sequential_reference() {
        for n in [1usize, 5, 8, 23, 129] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            let fast = squared_distance_slices(&x, &y);
            let slow: f64 = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| {
                    let d = (a - b) as f64;
                    d * d
                })
                .sum();
            assert!((fast - slow).abs() < 1e-9 * (1.0 + slow));
        }
    }

    #[test]
    fn mean_and_std_helpers() {
        assert_eq!(mean_of(&[]), 0.0);
        assert_eq!(mean_of(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev_of(&[1.0]), 0.0);
        let sd = std_dev_of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.138).abs() < 1e-2);
    }
}
