//! The flat parameter plane: [`ParamBlock`] plus the vector kernels every
//! aggregation rule runs on.
//!
//! Federated aggregation never looks inside a model: FedAvg, FedProx's
//! proximal term, SCAFFOLD's control variates and FedCross' cross-aggregation
//! all operate on the flattened parameter vectors exchanged between clients
//! and the cloud server. This module collects the vector algebra they share,
//! in two layers:
//!
//! * **[`ParamBlock`]** — an `Arc`-backed, cheaply clonable, copy-on-write
//!   parameter vector. Dispatching a model to a client is an `Arc` bump, not
//!   an `O(d)` copy; the buffer is only duplicated when someone actually
//!   mutates a shared block. This is the type the round pipeline
//!   (`TrainJob` / `LocalUpdate` / the FedCross middleware list) moves around.
//! * **In-place fused kernels** — destination-passing `*_into` aggregation
//!   kernels ([`interpolate_into`], [`average_into`],
//!   [`weighted_average_into`], ...), written with the same chunked-unrolled
//!   (8-wide, auto-vectorizable) inner-loop shape as the pairwise-distance
//!   kernels in `fedcross_tensor::stats`. [`average`], the one allocating
//!   twin left, wraps [`average_into`], so both are numerically identical
//!   element-for-element.

use fedcross_tensor::stats::{cosine_similarity, euclidean_distance, squared_distance_slices};
use std::sync::Arc;

/// A flattened model parameter vector.
pub type ParamVec = Vec<f32>;

/// Chunk width of the unrolled in-place kernels (matches
/// `fedcross_tensor::stats::KERNEL_LANES`).
const LANES: usize = fedcross_tensor::stats::KERNEL_LANES;

/// An `Arc`-backed, copy-on-write flat parameter vector.
///
/// `clone()` is a reference-count bump; mutation goes through
/// [`ParamBlock::make_mut`], which duplicates the buffer only when it is
/// shared. The round pipeline dispatches middleware models to clients as
/// `ParamBlock`s, so the per-round `O(K·d)` clone storm of a `Vec<f32>`
/// pipeline collapses to `O(K)` pointer copies.
#[derive(Debug, Clone, Default)]
pub struct ParamBlock {
    data: Arc<Vec<f32>>,
}

impl ParamBlock {
    /// Wraps an owned vector (no copy).
    pub fn new(data: Vec<f32>) -> Self {
        Self {
            data: Arc::new(data),
        }
    }

    /// A zero-filled block of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        // alloc: cold — construction-time zero init; round paths use pooled take_uninit
        Self::new(vec![0f32; dim])
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the block holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The parameters as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access with copy-on-write semantics: if this block shares its
    /// buffer with other clones the buffer is duplicated first, otherwise the
    /// existing allocation is reused as-is.
    pub fn make_mut(&mut self) -> &mut Vec<f32> {
        Arc::make_mut(&mut self.data)
    }

    /// Extracts the owned vector, reusing the allocation when this block is
    /// the unique owner and copying otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        // alloc: cold — shared-owner fallback copy on handoff
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Copies the parameters into a fresh vector.
    pub fn to_vec(&self) -> Vec<f32> {
        (*self.data).clone()
    }

    /// Whether this block is the unique owner of its buffer (no outstanding
    /// clones). Exposed so tests can assert the zero-copy dispatch invariant.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Number of `ParamBlock` clones currently sharing this buffer.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Whether two blocks share the same underlying buffer.
    pub fn ptr_eq(&self, other: &ParamBlock) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl std::ops::Deref for ParamBlock {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl AsRef<[f32]> for ParamBlock {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl From<Vec<f32>> for ParamBlock {
    fn from(data: Vec<f32>) -> Self {
        Self::new(data)
    }
}

impl From<&[f32]> for ParamBlock {
    fn from(data: &[f32]) -> Self {
        Self::new(data.to_vec())
    }
}

impl From<&Vec<f32>> for ParamBlock {
    fn from(data: &Vec<f32>) -> Self {
        Self::new(data.clone())
    }
}

impl From<&ParamBlock> for ParamBlock {
    fn from(block: &ParamBlock) -> Self {
        // A reference-count bump, preserving the zero-copy dispatch path for
        // callers that pass `&block` through `impl Into<ParamBlock>` APIs.
        block.clone()
    }
}

impl FromIterator<f32> for ParamBlock {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl PartialEq for ParamBlock {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl serde::Serialize for ParamBlock {
    /// Serialises as a plain JSON array of scalars, indistinguishable from a
    /// `Vec<f32>` on disk. The shim's shortest-round-trip float formatting
    /// makes the JSON round trip bitwise exact for every finite `f32`, which
    /// the resume plane's bitwise-identity guarantee relies on.
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(self.as_slice())
    }
}

impl serde::Deserialize for ParamBlock {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        <Vec<f32> as serde::Deserialize>::from_value(value).map(ParamBlock::new)
    }
}

impl PartialEq<Vec<f32>> for ParamBlock {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<ParamBlock> for Vec<f32> {
    fn eq(&self, other: &ParamBlock) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f32]> for ParamBlock {
    fn eq(&self, other: &[f32]) -> bool {
        self.as_slice() == other
    }
}

/// In-place weighted accumulation `out[i] += scale * v[i]`, chunked-unrolled.
///
/// This is the shared inner loop of the averaging kernels; the per-element
/// arithmetic is exactly `out += scale * v`, so results are bitwise identical
/// to a naive loop.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
fn accumulate_scaled(out: &mut [f32], v: &[f32], scale: f32) {
    assert_eq!(out.len(), v.len(), "accumulate requires equal lengths");
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut v_chunks = v.chunks_exact(LANES);
    for (oc, vc) in (&mut out_chunks).zip(&mut v_chunks) {
        for lane in 0..LANES {
            oc[lane] += scale * vc[lane];
        }
    }
    for (o, &x) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(v_chunks.remainder())
    {
        *o += scale * x;
    }
}

/// Element-wise mean of a set of equally weighted parameter vectors.
///
/// This is the `GlobalModelGen` step of FedCross (Section III-B3) as well as
/// plain FedAvg over clients with equal sample counts.
///
/// # Panics
/// Panics if `vectors` is empty or the vectors have different lengths.
pub fn average<V: AsRef<[f32]>>(vectors: &[V]) -> ParamVec {
    assert!(!vectors.is_empty(), "average requires at least one vector");
    // alloc: bounded — one param-vector accumulator per baseline round; FedCross rounds use *_into kernels
    let mut out = vec![0f32; vectors[0].as_ref().len()];
    average_into(&mut out, vectors);
    out
}

/// Destination-passing [`average`]: writes the mean into `out`, reusing its
/// allocation. Allocation-free: the uniform weight is applied directly
/// (`1/K` equals the normalised weight `1.0 / Σ 1.0` bit-for-bit for any
/// realistic `K`, so results are identical to
/// [`weighted_average_into`] with all-ones weights).
///
/// # Panics
/// Panics if `vectors` is empty, the vectors have different lengths, or `out`
/// has the wrong length.
pub fn average_into<V: AsRef<[f32]>>(out: &mut [f32], vectors: &[V]) {
    assert!(!vectors.is_empty(), "average requires at least one vector");
    let dim = vectors[0].as_ref().len();
    assert_eq!(out.len(), dim, "output length must match the vectors");
    let scale = 1.0 / vectors.len() as f32;
    out.fill(0.0);
    for vec in vectors {
        let vec = vec.as_ref();
        assert_eq!(vec.len(), dim, "all vectors must have identical length");
        accumulate_scaled(out, vec, scale);
    }
}

/// Weighted element-wise average of parameter vectors, written into `out`.
///
/// Weights are normalised internally, matching FedAvg's sample-count
/// weighting `w = Σ (n_i / n) w_i`.
///
/// # Panics
/// Panics if inputs are empty, lengths differ, the weights sum to zero, or
/// `out` has the wrong length.
pub fn weighted_average_into<V: AsRef<[f32]>>(out: &mut [f32], vectors: &[V], weights: &[f32]) {
    assert!(!vectors.is_empty(), "weighted_average requires vectors");
    assert_eq!(
        vectors.len(),
        weights.len(),
        "one weight per vector is required"
    );
    let dim = vectors[0].as_ref().len();
    assert_eq!(out.len(), dim, "output length must match the vectors");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    out.fill(0.0);
    for (vec, &w) in vectors.iter().zip(weights) {
        let vec = vec.as_ref();
        assert_eq!(vec.len(), dim, "all vectors must have identical length");
        accumulate_scaled(out, vec, w / total);
    }
}

/// Convex interpolation: writes `alpha * a + (1 - alpha) * b` into `out`
/// with the chunked-unrolled inner loop.
///
/// This is exactly the FedCross `CrossAggr` fusion rule (Section III-B2) with
/// `a` the uploaded middleware model and `b` its collaborative model. `out`
/// may alias neither input borrow-wise, but reusing a retired buffer (e.g.
/// last round's middleware model) is exactly the intended use.
///
/// # Panics
/// Panics if the lengths differ.
pub fn interpolate_into(out: &mut [f32], a: &[f32], b: &[f32], alpha: f32) {
    assert_eq!(a.len(), b.len(), "interpolate requires equal lengths");
    assert_eq!(out.len(), a.len(), "output length must match the inputs");
    let beta = 1.0 - alpha;
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    for ((oc, ac), bc) in (&mut out_chunks).zip(&mut a_chunks).zip(&mut b_chunks) {
        for lane in 0..LANES {
            oc[lane] = alpha * ac[lane] + beta * bc[lane];
        }
    }
    for ((o, &x), &y) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(a_chunks.remainder())
        .zip(b_chunks.remainder())
    {
        *o = alpha * x + beta * y;
    }
}

/// In-place `target += alpha * delta`.
///
/// # Panics
/// Panics if lengths differ.
pub fn add_scaled(target: &mut [f32], delta: &[f32], alpha: f32) {
    accumulate_scaled(target, delta, alpha);
}

/// Element-wise difference `a - b`.
///
/// # Panics
/// Panics if lengths differ.
pub fn difference(a: &[f32], b: &[f32]) -> ParamVec {
    assert_eq!(a.len(), b.len(), "difference requires equal lengths");
    // alloc: bounded — param-sized delta on baseline/compress paths
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Squared L2 distance between two parameter vectors.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_distance requires equal lengths");
    squared_distance_slices(a, b) as f32
}

/// L2 norm of a parameter vector.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
}

/// Cosine similarity between two parameter vectors (re-exported from the
/// tensor crate so callers only need `fedcross-nn`).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_similarity(a, b)
}

/// Euclidean distance between two parameter vectors.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    euclidean_distance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`weighted_average_into`] on a fresh NaN-filled buffer.
    fn weighted(vectors: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; vectors[0].len()];
        weighted_average_into(&mut out, vectors, weights);
        out
    }

    /// [`interpolate_into`] on a fresh NaN-filled buffer.
    fn interpolated(a: &[f32], b: &[f32], alpha: f32) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.len()];
        interpolate_into(&mut out, a, b, alpha);
        out
    }

    #[test]
    fn average_of_identical_vectors_is_the_vector() {
        let v = vec![1.0, -2.0, 3.0];
        let avg = average(&[v.clone(), v.clone(), v.clone()]);
        assert_eq!(avg, v);
    }

    #[test]
    fn average_of_two_vectors_is_midpoint() {
        let avg = average(&[vec![0.0, 0.0], vec![2.0, 4.0]]);
        assert_eq!(avg, vec![1.0, 2.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let avg = weighted(&[vec![0.0], vec![10.0]], &[1.0, 3.0]);
        assert!((avg[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn weighted_average_is_scale_invariant_in_weights() {
        let vs = [vec![1.0, 2.0], vec![3.0, 6.0]];
        let a = weighted(&vs, &[1.0, 2.0]);
        let b = weighted(&vs, &[10.0, 20.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn weighted_average_rejects_zero_weights() {
        let _ = weighted(&[vec![1.0]], &[0.0]);
    }

    #[test]
    fn interpolate_endpoints() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        assert_eq!(interpolated(&a, &b, 1.0), a);
        assert_eq!(interpolated(&a, &b, 0.0), b);
        assert_eq!(interpolated(&a, &b, 0.5), vec![2.0, 3.0]);
    }

    #[test]
    fn interpolate_matches_cross_aggr_formula() {
        // CrossAggr(v, v_co) = α v + (1-α) v_co
        let v = vec![2.0, -4.0, 8.0];
        let co = vec![0.0, 0.0, 0.0];
        let fused = interpolated(&v, &co, 0.99);
        for (f, x) in fused.iter().zip(&v) {
            assert!((f - 0.99 * x).abs() < 1e-6);
        }
    }

    #[test]
    fn add_scaled_updates_in_place() {
        let mut t = vec![1.0, 1.0];
        add_scaled(&mut t, &[2.0, -2.0], 0.5);
        assert_eq!(t, vec![2.0, 0.0]);
    }

    #[test]
    fn difference_and_distance_agree() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.0, 0.0, 0.0];
        let d = difference(&a, &b);
        assert_eq!(d, a);
        assert!((squared_distance(&a, &b) - 14.0).abs() < 1e-6);
        assert!((l2_norm(&a) - 14f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cosine_and_euclidean_wrappers() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!(cosine(&a, &b).abs() < 1e-6);
        assert!((euclidean(&a, &b) - 2f32.sqrt()).abs() < 1e-6);
    }

    // --- ParamBlock ---

    #[test]
    fn param_block_clone_is_shared_until_mutated() {
        let mut a = ParamBlock::from(vec![1.0, 2.0, 3.0]);
        assert!(a.is_unique());
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.ref_count(), 2);
        // Copy-on-write: mutating `a` leaves `b` untouched.
        a.make_mut()[0] = 9.0;
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.as_slice(), &[9.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn unique_param_block_mutates_without_copying() {
        let mut a = ParamBlock::from(vec![0.0; 16]);
        let before = a.as_slice().as_ptr();
        a.make_mut()[3] = 5.0;
        assert_eq!(a.as_slice().as_ptr(), before, "unique block must not copy");
    }

    #[test]
    fn param_block_into_vec_reuses_unique_buffers() {
        let a = ParamBlock::from(vec![1.0, 2.0]);
        let ptr = a.as_slice().as_ptr();
        let v = a.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique into_vec must not copy");

        let shared = ParamBlock::from(vec![3.0, 4.0]);
        let keep = shared.clone();
        let v = shared.into_vec();
        assert_eq!(v, vec![3.0, 4.0]);
        assert_eq!(keep.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn param_block_equality_and_views() {
        let a = ParamBlock::from(vec![1.0, 2.0]);
        assert_eq!(a, vec![1.0, 2.0]);
        assert_eq!(vec![1.0, 2.0], a);
        assert_eq!(a, ParamBlock::from(vec![1.0, 2.0]));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(&a[..1], &[1.0]);
        let collected: ParamBlock = [1.0f32, 2.0].into_iter().collect();
        assert_eq!(collected, a);
        assert_eq!(ParamBlock::zeros(3).as_slice(), &[0.0; 3]);
    }

    // --- `*_into` on a dirty buffer against a zeroed one and a naive loop ---

    fn test_vectors(k: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..k)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 31 + j * 7) % 23) as f32 * 0.17 - 1.9)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn interpolate_into_is_bitwise_identical_to_allocating_and_naive() {
        for dim in [1usize, 7, 8, 9, 31, 256, 1000] {
            let vs = test_vectors(2, dim);
            for &alpha in &[0.5f32, 0.75, 0.99] {
                let mut fresh = vec![0f32; dim];
                interpolate_into(&mut fresh, &vs[0], &vs[1], alpha);
                let mut in_place = vec![f32::NAN; dim];
                interpolate_into(&mut in_place, &vs[0], &vs[1], alpha);
                let naive: Vec<f32> = vs[0]
                    .iter()
                    .zip(&vs[1])
                    .map(|(&x, &y)| alpha * x + (1.0 - alpha) * y)
                    .collect();
                assert_eq!(bits(&fresh), bits(&in_place));
                assert_eq!(bits(&naive), bits(&in_place));
            }
        }
    }

    #[test]
    fn weighted_average_into_is_bitwise_identical_to_allocating_and_naive() {
        for dim in [1usize, 8, 9, 100] {
            let vs = test_vectors(4, dim);
            let weights = [1.0f32, 2.5, 0.25, 4.0];
            let mut fresh = vec![0f32; dim];
            weighted_average_into(&mut fresh, &vs, &weights);
            let mut in_place = vec![f32::NAN; dim];
            weighted_average_into(&mut in_place, &vs, &weights);
            // Naive reference mirroring the documented accumulation order.
            let total: f32 = weights.iter().sum();
            let mut naive = vec![0f32; dim];
            for (v, &w) in vs.iter().zip(&weights) {
                let scale = w / total;
                for (n, &x) in naive.iter_mut().zip(v) {
                    *n += scale * x;
                }
            }
            assert_eq!(bits(&fresh), bits(&in_place));
            assert_eq!(bits(&naive), bits(&in_place));
        }
    }

    #[test]
    fn average_into_matches_average() {
        let vs = test_vectors(3, 65);
        let mut out = vec![0f32; 65];
        average_into(&mut out, &vs);
        assert_eq!(bits(&average(&vs)), bits(&out));
    }

    #[test]
    #[should_panic]
    fn interpolate_into_rejects_length_mismatch() {
        let mut out = vec![0f32; 3];
        interpolate_into(&mut out, &[1.0, 2.0, 3.0], &[1.0, 2.0], 0.9);
    }

    #[test]
    #[should_panic]
    fn weighted_average_into_rejects_wrong_output_length() {
        let mut out = vec![0f32; 2];
        weighted_average_into(&mut out, &[vec![1.0, 2.0, 3.0]], &[1.0]);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
