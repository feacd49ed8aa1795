//! Cross-aggregation (`CrossAggr`) and global-model generation
//! (Sections III-B2 and III-B3).
//!
//! Every kernel has one body, a destination-passing `*_into` function that
//! writes into a caller-provided buffer. `FedCross::run_round` fuses each
//! round's uploads directly into the retired middleware buffers, so the
//! steady-state server loop performs **zero** full-model allocations; a
//! caller that wants a fresh model passes a fresh buffer.
//!
//! [`cross_aggregate_all_into`] parallelises over the `K` middleware models
//! with rayon once the total work is large enough to amortise the fork/join.

use fedcross_nn::params::{average_into, interpolate_into};
use fedcross_tensor::stats::{pairwise_matrix, Pairwise};
use rayon::prelude::*;

/// Minimum total scalar count (`K·d`) before the whole-round kernels switch
/// to rayon; below this the fork/join overhead dominates.
const PAR_THRESHOLD_SCALARS: usize = 1 << 16;

fn assert_alpha(alpha: f32) {
    assert!(
        (0.5..1.0).contains(&alpha),
        "alpha must lie in [0.5, 1.0), got {alpha}"
    );
}

/// Fuses one uploaded middleware model with its collaborative model,
/// writing `CrossAggr(v_i, v_co) = α·v_i + (1-α)·v_co` into `out`.
///
/// # Panics
/// Panics if `alpha` is outside `[0.5, 1.0)` (the paper's admissible range)
/// or any length differs.
pub fn cross_aggregate_into(out: &mut [f32], uploaded: &[f32], collaborative: &[f32], alpha: f32) {
    assert_alpha(alpha);
    interpolate_into(out, uploaded, collaborative, alpha);
}

/// Fuses one uploaded model with multiple *propeller* models (the
/// propeller-model acceleration of Section III-D) into `out`: the
/// collaborative share `(1-α)` is split evenly across the propellers.
///
/// With a single propeller this reduces to [`cross_aggregate_into`].
///
/// # Panics
/// Panics if `alpha` is out of range, no propeller is given, or lengths
/// differ.
pub fn cross_aggregate_propellers_into(
    out: &mut [f32],
    uploaded: &[f32],
    propellers: &[&[f32]],
    alpha: f32,
) {
    assert_alpha(alpha);
    assert!(!propellers.is_empty(), "at least one propeller is required");
    assert_eq!(out.len(), uploaded.len(), "output length must match");
    let share = (1.0 - alpha) / propellers.len() as f32;
    for (o, &v) in out.iter_mut().zip(uploaded) {
        *o = alpha * v;
    }
    for propeller in propellers {
        assert_eq!(
            propeller.len(),
            uploaded.len(),
            "propeller length must match the uploaded model"
        );
        fedcross_nn::params::add_scaled(out, propeller, share);
    }
}

/// Applies cross-aggregation to the whole uploaded model list given each
/// model's collaborative index (Algorithm 1 lines 11–14), fusing every
/// upload into its caller-provided output buffer (`out[i] = α·uploaded[i] +
/// (1-α)·uploaded[collaborators[i]]`) to produce the next round's
/// middleware models; rayon-parallel over the `K` models when `K·d` crosses
/// `PAR_THRESHOLD_SCALARS`.
///
/// The output buffers are typically last round's retired middleware models,
/// making the whole cross-aggregation step allocation-free.
///
/// # Panics
/// Panics if the lengths are inconsistent, `alpha` is out of range, a
/// collaborative index is out of range or a model collaborates with itself.
pub fn cross_aggregate_all_into<V: AsRef<[f32]> + Sync>(
    out: &mut [&mut [f32]],
    uploaded: &[V],
    collaborators: &[usize],
    alpha: f32,
) {
    assert_eq!(
        uploaded.len(),
        collaborators.len(),
        "one collaborator index per uploaded model"
    );
    assert_eq!(
        out.len(),
        uploaded.len(),
        "one output buffer per uploaded model"
    );
    assert_alpha(alpha);
    for (i, &co) in collaborators.iter().enumerate() {
        assert!(co < uploaded.len(), "collaborator index out of range");
        assert_ne!(co, i, "a model cannot collaborate with itself");
    }
    let dim = uploaded.first().map_or(0, |v| v.as_ref().len());
    let fuse = |(i, target): (usize, &mut &mut [f32])| {
        interpolate_into(
            target,
            uploaded[i].as_ref(),
            uploaded[collaborators[i]].as_ref(),
            alpha,
        );
    };
    if uploaded.len() * dim >= PAR_THRESHOLD_SCALARS {
        out.par_iter_mut().enumerate().for_each(fuse);
    } else {
        out.iter_mut().enumerate().for_each(fuse);
    }
}

/// Generates the deployable global model into `out`: the plain average of
/// the middleware models (Section III-B3). The global model never
/// participates in training.
pub fn global_model_into<V: AsRef<[f32]>>(out: &mut [f32], middleware: &[V]) {
    average_into(out, middleware);
}

// ---------------------------------------------------------------------------
// Byzantine-robust aggregation rules.
//
// Cross-aggregation trusts every upload; one scaled Byzantine update poisons
// all K middleware at once. The kernels below are the classical robust
// estimators (coordinate-wise median, trimmed mean, Krum / multi-Krum, norm
// bounding), each a destination-passing `*_into` kernel like the ones
// above. Two determinism contracts hold throughout
// (docs/ROBUSTNESS.md, pinned by tests/tests/robust_kernels.rs):
//
// * **Canonical order** — callers pass uploads in canonical client/slot
//   order; within a kernel, any order sensitivity is removed by per-coordinate
//   ascending sorts (`f32::total_cmp`) or ascending-index tie-breaks.
// * **Permutation invariance** — median and trimmed mean are *bitwise*
//   invariant under upload permutation (sorted columns erase arrival order);
//   Krum's selected *set* is permutation-invariant whenever scores are
//   distinct (exact score ties break by the lowest index, which is why
//   algorithms sort uploads canonically before selecting).

/// How many coordinate scalars one parallel work item covers in the
/// column-sorting kernels; chosen so a chunk's scratch column stays small
/// while each rayon task still amortises its dispatch.
const COLUMN_CHUNK: usize = 1024;

/// Shared core of the column-sorting robust estimators: for every coordinate,
/// gather the uploads' values into a scratch column, sort ascending with the
/// total order on floats, and reduce the sorted column to one output scalar.
/// Parallel over coordinate chunks once `n·d` crosses
/// [`PAR_THRESHOLD_SCALARS`] — bitwise identical to the serial path because
/// every coordinate is computed independently.
fn sorted_column_reduce_into<V: AsRef<[f32]> + Sync>(
    out: &mut [f32],
    uploads: &[V],
    reduce: impl Fn(&[f32]) -> f32 + Sync,
) {
    assert!(!uploads.is_empty(), "at least one upload is required");
    // alloc: bounded — cohort-sized column views; values reduce in place
    let views: Vec<&[f32]> = uploads.iter().map(|v| v.as_ref()).collect();
    for view in &views {
        assert_eq!(view.len(), out.len(), "upload length must match the output");
    }
    let n = views.len();
    let fill = |(chunk_index, chunk): (usize, &mut [f32])| {
        // alloc: bounded — cohort-sized column views; values reduce in place
        let mut column = vec![0f32; n];
        for (j, slot) in chunk.iter_mut().enumerate() {
            let coord = chunk_index * COLUMN_CHUNK + j;
            for (cell, view) in column.iter_mut().zip(&views) {
                *cell = view[coord];
            }
            column.sort_unstable_by(f32::total_cmp);
            *slot = reduce(&column);
        }
    };
    if n * out.len() >= PAR_THRESHOLD_SCALARS {
        out.par_chunks_mut(COLUMN_CHUNK).enumerate().for_each(fill);
    } else {
        out.chunks_mut(COLUMN_CHUNK).enumerate().for_each(fill);
    }
}

/// Writes the coordinate-wise median of the uploads into `out` (breakdown
/// point ⌊(n-1)/2⌋: a strict minority of Byzantine uploads cannot move any
/// coordinate outside the honest value range).
///
/// Bitwise invariant under upload permutation: every coordinate is reduced
/// from its ascending-sorted column, erasing arrival order. An even column
/// takes the mean of the two middle values.
///
/// # Panics
/// Panics if `uploads` is empty or any length differs from `out`.
pub fn coordinate_median_into<V: AsRef<[f32]> + Sync>(out: &mut [f32], uploads: &[V]) {
    sorted_column_reduce_into(out, uploads, |sorted| {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    });
}

/// Number of uploads the trimmed mean drops **per end** for a given trim
/// fraction: `⌊trim · n⌋` (computed in f64 so fractions like 0.2 of 5 do not
/// fall victim to f32 representation error).
pub fn trim_count(n: usize, trim: f32) -> usize {
    (f64::from(trim) * n as f64).floor() as usize
}

/// Writes the coordinate-wise trimmed mean into `out`: drops the
/// `⌊trim·n⌋` smallest and largest values of every coordinate column and
/// averages the rest (breakdown point ⌊trim·n⌋). `trim = 0` degenerates to
/// the plain coordinate mean.
///
/// Bitwise invariant under upload permutation: the kept values are summed in
/// ascending sorted order, not arrival order.
///
/// # Panics
/// Panics if `uploads` is empty, lengths differ, `trim` lies outside
/// `[0, 0.5)`, or trimming would drop every upload.
pub fn trimmed_mean_into<V: AsRef<[f32]> + Sync>(out: &mut [f32], uploads: &[V], trim: f32) {
    assert!(
        trim.is_finite() && (0.0..0.5).contains(&trim),
        "trim fraction must lie in [0, 0.5), got {trim}"
    );
    let cut = trim_count(uploads.len(), trim);
    assert!(
        2 * cut < uploads.len(),
        "trimming {cut} per end would drop all {} uploads",
        uploads.len()
    );
    sorted_column_reduce_into(out, uploads, |sorted| {
        let kept = &sorted[cut..sorted.len() - cut];
        kept.iter().sum::<f32>() / kept.len() as f32
    });
}

/// Krum selection: the index of the single upload with the smallest sum of
/// squared distances to its `n - f - 2` nearest neighbours — the upload most
/// corroborated by the others, assuming at most `f` Byzantine uploads.
///
/// Equivalent to [`multi_krum_select`] with `m = 1`.
pub fn krum_select<V: AsRef<[f32]> + Sync>(uploads: &[V], f: usize) -> usize {
    multi_krum_select(uploads, f, 1)[0]
}

/// Multi-Krum selection: the `m` uploads with the smallest Krum scores, in
/// ascending **canonical index** order (the caller's canonical upload order
/// doubles as the deterministic tie-break: exact score ties prefer the lower
/// index).
///
/// Each upload's score sums its `max(1, n - f - 2)` smallest squared
/// distances to the other uploads, with the distances summed in ascending
/// sorted order so the score is a pure function of the distance multiset —
/// permuting the uploads permutes the scores but cannot change their values,
/// hence the selected *set* is permutation-invariant whenever no two scores
/// tie exactly.
///
/// # Panics
/// Panics if `uploads` has fewer than two entries, `m` is zero or exceeds the
/// upload count, or lengths differ.
pub fn multi_krum_select<V: AsRef<[f32]> + Sync>(uploads: &[V], f: usize, m: usize) -> Vec<usize> {
    let n = uploads.len();
    assert!(n >= 2, "Krum needs at least two uploads, got {n}");
    assert!(m >= 1 && m <= n, "must select between 1 and {n} uploads, got {m}");
    let neighbours = n.saturating_sub(f + 2).clamp(1, n - 1);
    let scores = krum_scores(uploads, neighbours);
    // alloc: bounded — cohort-sized robust-selection scratch, once per round
    let mut order: Vec<usize> = (0..n).collect();
    // Deterministic tie-break: equal scores prefer the lower canonical index.
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    // alloc: bounded — cohort-sized robust-selection scratch, once per round
    let mut selected = order[..m].to_vec();
    selected.sort_unstable();
    selected
}

/// Every upload's Krum score: the sum of its `neighbours` smallest squared
/// distances to the other uploads, in ascending sorted order. Each distance
/// is one [`pairwise_matrix`] entry cast to `f32`, bitwise equal to
/// `fedcross_nn::params::squared_distance` of the pair.
fn krum_scores<V: AsRef<[f32]> + Sync>(uploads: &[V], neighbours: usize) -> Vec<f32> {
    let n = uploads.len();
    let matrix = pairwise_matrix(uploads, Pairwise::SquaredDistance);
    // alloc: bounded — cohort-sized robust-selection scratch, once per round
    let mut distances = Vec::with_capacity(n - 1);
    (0..n)
        .map(|i| {
            distances.clear();
            distances.extend((0..n).filter(|&j| j != i).map(|j| matrix[i * n + j] as f32));
            distances.sort_unstable_by(f32::total_cmp);
            distances[..neighbours].iter().sum()
        })
        // alloc: bounded — cohort-sized robust-selection scratch, once per round
        .collect()
}

/// Writes the norm-bounded mean around an `anchor` (the model the server
/// dispatched) into `out`: every upload's delta `uᵢ - anchor` is scaled by
/// `min(1, max_norm / ‖δᵢ‖)` — the same clip-factor semantics as the
/// differential-privacy plane's `clip_to_norm` — and the clipped deltas are
/// averaged back onto the anchor. No upload is excluded, but none can
/// contribute a step longer than `max_norm`, which bounds the damage of a
/// scaled Byzantine update by `max_norm / n`. `out` must not alias `anchor`
/// (the anchor is read throughout the accumulation).
///
/// # Panics
/// Panics if `uploads` is empty, lengths differ, or `max_norm` is not a
/// positive finite number.
pub fn norm_bounded_mean_into<V: AsRef<[f32]> + Sync>(
    out: &mut [f32],
    anchor: &[f32],
    uploads: &[V],
    max_norm: f32,
) {
    assert!(
        max_norm.is_finite() && max_norm > 0.0,
        "norm bound must be positive and finite, got {max_norm}"
    );
    assert!(!uploads.is_empty(), "at least one upload is required");
    assert_eq!(out.len(), anchor.len(), "output length must match the anchor");
    out.fill(0.0);
    // Accumulate clipped deltas in the caller's canonical upload order; the
    // per-upload clip factor depends only on that upload's own norm, so the
    // sum is order-sensitive only through f32 associativity — which is why
    // the algorithms sort uploads canonically before calling any rule.
    for upload in uploads {
        let upload = upload.as_ref();
        assert_eq!(upload.len(), anchor.len(), "upload length must match");
        let norm = upload
            .iter()
            .zip(anchor)
            .map(|(u, a)| {
                let d = u - a;
                d * d
            })
            .sum::<f32>()
            .sqrt();
        let scale = if norm > max_norm { max_norm / norm } else { 1.0 };
        for ((o, u), a) in out.iter_mut().zip(upload).zip(anchor) {
            *o += scale * (u - a);
        }
    }
    let inv = 1.0 / uploads.len() as f32;
    for (o, a) in out.iter_mut().zip(anchor) {
        *o = a + *o * inv;
    }
}

/// A Byzantine-robust replacement for the plain upload average: the server
/// half both [`RobustFedAvg`](crate::robust::RobustFedAvg) and
/// [`RobustFedCross`](crate::robust::RobustFedCross) dispatch on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RobustRule {
    /// Coordinate-wise median ([`coordinate_median_into`]).
    Median,
    /// Coordinate-wise trimmed mean ([`trimmed_mean_into`]).
    TrimmedMean {
        /// Fraction of uploads dropped per end of every coordinate column.
        trim: f32,
    },
    /// Multi-Krum selection followed by the mean of the selected uploads
    /// ([`multi_krum_select`]). `m = 1` is classical Krum.
    Krum {
        /// Assumed upper bound on Byzantine uploads per round.
        f: usize,
        /// Number of selected uploads averaged into the aggregate.
        m: usize,
    },
    /// Norm-bounded mean around the dispatched anchor
    /// ([`norm_bounded_mean_into`]).
    NormBound {
        /// Maximum L2 norm an upload's delta may contribute.
        max_norm: f32,
    },
}

impl RobustRule {
    /// Validates the rule's parameters, panicking on nonsense values (real
    /// `assert!`s in every build profile, like the simulation models).
    ///
    /// # Panics
    /// Panics on a trim fraction outside `[0, 0.5)`, `m = 0`, or a
    /// non-positive norm bound.
    pub fn validate(&self) {
        match *self {
            RobustRule::Median => {}
            RobustRule::TrimmedMean { trim } => assert!(
                trim.is_finite() && (0.0..0.5).contains(&trim),
                "trim fraction must lie in [0, 0.5), got {trim}"
            ),
            RobustRule::Krum { f: _, m } => {
                assert!(m >= 1, "multi-Krum must select at least one upload")
            }
            RobustRule::NormBound { max_norm } => assert!(
                max_norm.is_finite() && max_norm > 0.0,
                "norm bound must be positive and finite, got {max_norm}"
            ),
        }
    }

    /// Short label used in algorithm names and report tables.
    pub fn label(&self) -> String {
        match *self {
            // alloc: cold — reporting label, not on the round path
            RobustRule::Median => "median".to_string(),
            // alloc: cold — reporting label, not on the round path
            RobustRule::TrimmedMean { trim } => format!("trimmed-mean({trim})"),
            // alloc: cold — reporting label, not on the round path
            RobustRule::Krum { f, m } => format!("krum(f={f},m={m})"),
            // alloc: cold — reporting label, not on the round path
            RobustRule::NormBound { max_norm } => format!("norm-bound(c={max_norm})"),
        }
    }

    /// The largest number of Byzantine uploads (out of `n`) this rule is
    /// designed to withstand — its breakdown point in absolute terms. Norm
    /// bounding excludes nobody, so it reports 0: it bounds damage per round
    /// instead of rejecting outliers.
    pub fn max_byzantine(&self, n: usize) -> usize {
        match *self {
            RobustRule::Median => n.saturating_sub(1) / 2,
            RobustRule::TrimmedMean { trim } => trim_count(n, trim),
            RobustRule::Krum { f, .. } => f,
            RobustRule::NormBound { .. } => 0,
        }
    }

    /// Applies the rule to `uploads` (already in canonical order), writing
    /// the robust aggregate into `out`. `anchor` is the parameter vector the
    /// server dispatched this round — only the norm-bounding rule reads it
    /// (the clipping reference); it must not alias `out`.
    ///
    /// # Panics
    /// Panics if `uploads` is empty or shapes/parameters are invalid (see the
    /// individual kernels).
    pub fn aggregate_into<V: AsRef<[f32]> + Sync>(
        &self,
        out: &mut [f32],
        anchor: &[f32],
        uploads: &[V],
    ) {
        match *self {
            RobustRule::Median => coordinate_median_into(out, uploads),
            RobustRule::TrimmedMean { trim } => trimmed_mean_into(out, uploads, trim),
            RobustRule::Krum { f, m } => {
                // A lone upload (e.g. a heavy-dropout round) has no peers to
                // score against; it is trivially its own consensus.
                if uploads.len() == 1 {
                    out.copy_from_slice(uploads[0].as_ref());
                    return;
                }
                let selected = multi_krum_select(uploads, f, m.min(uploads.len()));
                let chosen: Vec<&[f32]> =
                    // alloc: bounded — cohort-sized view list for the selected uploads
                    selected.iter().map(|&i| uploads[i].as_ref()).collect();
                average_into(out, &chosen);
            }
            RobustRule::NormBound { max_norm } => {
                norm_bounded_mean_into(out, anchor, uploads, max_norm)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::params::{average, l2_norm, squared_distance};

    /// Runs a kernel on a fresh NaN-filled buffer of `len` scalars.
    fn fresh(len: usize, kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut out = vec![f32::NAN; len];
        kernel(&mut out);
        out
    }

    fn fused(uploaded: &[f32], collaborative: &[f32], alpha: f32) -> Vec<f32> {
        fresh(uploaded.len(), |o| {
            cross_aggregate_into(o, uploaded, collaborative, alpha)
        })
    }

    /// [`cross_aggregate_all_into`] on fresh NaN-filled buffers.
    fn fused_all(uploaded: &[Vec<f32>], collaborators: &[usize], alpha: f32) -> Vec<Vec<f32>> {
        let mut out = vec![vec![f32::NAN; uploaded[0].len()]; uploaded.len()];
        let mut targets: Vec<&mut [f32]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        cross_aggregate_all_into(&mut targets, uploaded, collaborators, alpha);
        out
    }

    #[test]
    fn cross_aggregate_is_a_convex_combination() {
        let v = vec![1.0, 2.0, 3.0];
        let co = vec![3.0, 2.0, 1.0];
        let fused = fused(&v, &co, 0.75);
        assert_eq!(fused, vec![1.5, 2.0, 2.5]);
    }

    #[test]
    fn alpha_near_one_barely_moves_the_model() {
        let v = vec![1.0, -1.0];
        let co = vec![100.0, 100.0];
        let fused = fused(&v, &co, 0.99);
        assert!((fused[0] - (0.99 + 1.0)).abs() < 1e-5);
        assert!(squared_distance(&fused, &v) < squared_distance(&fused, &co));
    }

    #[test]
    #[should_panic]
    fn alpha_below_half_is_rejected() {
        let _ = fused_all(&[vec![1.0], vec![2.0]], &[1, 0], 0.4);
    }

    #[test]
    #[should_panic]
    fn alpha_of_one_is_rejected() {
        let _ = fresh(1, |o| {
            cross_aggregate_propellers_into(o, &[1.0], &[&[2.0]], 1.0)
        });
    }

    #[test]
    #[should_panic]
    fn in_place_alpha_below_half_is_rejected() {
        let mut out = vec![0.0];
        cross_aggregate_into(&mut out, &[1.0], &[2.0], 0.4);
    }

    #[test]
    #[should_panic]
    fn in_place_length_mismatch_is_rejected() {
        let mut out = vec![0.0; 2];
        cross_aggregate_into(&mut out, &[1.0], &[2.0], 0.9);
    }

    #[test]
    fn single_propeller_matches_plain_cross_aggregation() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let p = vec![0.0, 1.0, 0.0, 1.0];
        let a = fused(&v, &p, 0.9);
        let b = fresh(4, |o| cross_aggregate_propellers_into(o, &v, &[&p], 0.9));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn propellers_share_the_collaborative_weight_evenly() {
        let v = vec![0.0, 0.0];
        let p1 = vec![1.0, 0.0];
        let p2 = vec![0.0, 1.0];
        let fused = fresh(2, |o| {
            cross_aggregate_propellers_into(o, &v, &[&p1, &p2], 0.8)
        });
        // (1 - 0.8) / 2 = 0.1 of each propeller.
        assert!((fused[0] - 0.1).abs() < 1e-6);
        assert!((fused[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn in_order_cross_aggregation_preserves_the_parameter_sum() {
        // Equation 2 of the paper: when every model is selected as a
        // collaborator exactly once, Σ w_i = Σ v_i.
        let uploaded = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        // A cyclic permutation: each model is a collaborator exactly once.
        let collaborators = vec![1, 2, 3, 0];
        let fused = fused_all(&uploaded, &collaborators, 0.9);
        for dim in 0..2 {
            let before: f32 = uploaded.iter().map(|v| v[dim]).sum();
            let after: f32 = fused.iter().map(|v| v[dim]).sum();
            assert!(
                (before - after).abs() < 1e-4,
                "dim {dim}: sum changed from {before} to {after}"
            );
        }
    }

    #[test]
    fn lemma_3_4_distance_inequality_holds() {
        // ||w_i - w*||^2 = ||v_i - w*||^2 - α(1-α)||v_i - v_co||^2 ≤ ||v_i - w*||^2,
        // so the average squared distance to any reference point cannot grow.
        let uploaded = vec![
            vec![1.0, 0.0, 2.0],
            vec![-1.0, 3.0, 0.5],
            vec![0.0, -2.0, 1.0],
        ];
        let collaborators = vec![1, 2, 0];
        let reference = vec![0.25, 0.5, 1.0];
        for &alpha in &[0.5f32, 0.75, 0.9, 0.99] {
            let fused = fused_all(&uploaded, &collaborators, alpha);
            let before: f32 = uploaded
                .iter()
                .map(|v| squared_distance(v, &reference))
                .sum::<f32>()
                / uploaded.len() as f32;
            let after: f32 = fused
                .iter()
                .map(|v| squared_distance(v, &reference))
                .sum::<f32>()
                / fused.len() as f32;
            assert!(
                after <= before + 1e-5,
                "alpha {alpha}: mean squared distance grew from {before} to {after}"
            );
        }
    }

    #[test]
    fn cross_aggregation_shrinks_pairwise_distances() {
        // The rule is designed to "restrict the weight differences between
        // middleware models" — after one application the models are closer.
        let uploaded = vec![vec![5.0, 0.0], vec![-5.0, 2.0]];
        let fused = fused_all(&uploaded, &[1, 0], 0.8);
        let before = squared_distance(&uploaded[0], &uploaded[1]);
        let after = squared_distance(&fused[0], &fused[1]);
        assert!(after < before);
    }

    #[test]
    fn global_model_is_the_middleware_average() {
        let middleware = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
        let global = fresh(2, |o| global_model_into(o, &middleware));
        assert_eq!(global, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn self_collaboration_is_rejected() {
        let uploaded = vec![vec![1.0], vec![2.0]];
        let _ = fused_all(&uploaded, &[0, 0], 0.9);
    }

    #[test]
    fn identical_models_are_a_fixed_point() {
        let uploaded = vec![vec![1.0, -2.0, 3.0]; 3];
        let fused = fused_all(&uploaded, &[1, 2, 0], 0.9);
        for f in &fused {
            assert_eq!(f, &uploaded[0]);
        }
        let global = fresh(3, |o| global_model_into(o, &fused));
        assert!((l2_norm(&global) - l2_norm(&uploaded[0])).abs() < 1e-6);
    }

    #[test]
    fn parallel_path_matches_serial_path_bitwise() {
        // K·d above the parallel threshold: 10 models × 10_000 scalars.
        let k = 10usize;
        let dim = 10_000usize;
        let uploaded: Vec<Vec<f32>> = (0..k)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 131 + j * 17) % 97) as f32 * 0.21 - 10.0)
                    .collect()
            })
            .collect();
        let collaborators: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
        // Parallel (threshold crossed) vs per-model serial kernel.
        let parallel = fused_all(&uploaded, &collaborators, 0.99);
        for (i, fused_model) in parallel.iter().enumerate() {
            let serial = fused(&uploaded[i], &uploaded[collaborators[i]], 0.99);
            assert_eq!(
                fused_model.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "model {i} differs between parallel and serial paths"
            );
        }
    }

    #[test]
    fn median_ignores_a_minority_outlier() {
        let uploads = vec![
            vec![1.0f32, -2.0, 3.0],
            vec![1.5, -1.0, 2.0],
            vec![1e6, 1e6, -1e6], // one Byzantine upload
        ];
        let median = fresh(3, |o| coordinate_median_into(o, &uploads));
        assert_eq!(median, vec![1.5, -1.0, 2.0]);
    }

    #[test]
    fn even_median_averages_the_two_middle_values() {
        let uploads = vec![vec![1.0f32], vec![3.0], vec![100.0], vec![-50.0]];
        assert_eq!(fresh(1, |o| coordinate_median_into(o, &uploads)), vec![2.0]);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let uploads = vec![
            vec![-1e9f32],
            vec![2.0],
            vec![4.0],
            vec![6.0],
            vec![1e9],
        ];
        // trim 0.2 of 5 drops one per end: mean of {2, 4, 6}.
        assert_eq!(fresh(1, |o| trimmed_mean_into(o, &uploads, 0.2)), vec![4.0]);
        assert_eq!(trim_count(5, 0.2), 1);
        // trim 0 is the plain coordinate mean of finite values.
        let plain = vec![vec![1.0f32], vec![3.0]];
        assert_eq!(fresh(1, |o| trimmed_mean_into(o, &plain, 0.0)), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "trim fraction must lie in [0, 0.5)")]
    fn trim_of_one_half_is_rejected() {
        let _ = fresh(1, |o| trimmed_mean_into(o, &[vec![1.0f32], vec![2.0]], 0.5));
    }

    #[test]
    fn krum_picks_the_most_corroborated_upload() {
        // Three honest uploads in a tight cluster, one far away: Krum with
        // f = 1 must pick from the cluster.
        let uploads = vec![
            vec![0.0f32, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![50.0, -50.0],
        ];
        let chosen = krum_select(&uploads, 1);
        assert!(chosen < 3, "Krum selected the outlier ({chosen})");
        // Multi-Krum with m = 3 selects exactly the honest cluster, in
        // ascending index order.
        assert_eq!(multi_krum_select(&uploads, 1, 3), vec![0, 1, 2]);
    }

    #[test]
    fn krum_breaks_exact_score_ties_by_lowest_index() {
        // Two identical pairs: all scores tie pairwise, so selection must
        // fall back to canonical index order.
        let uploads = vec![vec![1.0f32], vec![1.0], vec![1.0], vec![1.0]];
        assert_eq!(krum_select(&uploads, 1), 0);
        assert_eq!(multi_krum_select(&uploads, 1, 2), vec![0, 1]);
    }

    #[test]
    fn krum_scores_match_per_pair_distances_above_the_parallel_threshold() {
        // n²·d ≥ 2¹⁸ makes the pairwise kernel split its tiles across rayon
        // at two threads; d is neither a lane nor a block multiple.
        let (n, dim, f) = (6usize, 8_191usize, 1usize);
        let uploads: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let outlier_shift = if i == 4 { 3.0 } else { 0.0 };
                (0..dim)
                    .map(|j| ((i * 31 + j * 17) % 97) as f32 * 0.21 - 10.0 + outlier_shift)
                    .collect()
            })
            .collect();
        let neighbours = n - f - 2;
        let reference: Vec<f32> = (0..n)
            .map(|i| {
                let mut distances: Vec<f32> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| squared_distance(&uploads[i], &uploads[j]))
                    .collect();
                distances.sort_unstable_by(f32::total_cmp);
                distances[..neighbours].iter().sum()
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            assert_eq!(bits(&krum_scores(&uploads, neighbours)), bits(&reference));
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| reference[a].total_cmp(&reference[b]).then(a.cmp(&b)));
            for m in 1..=n {
                let mut expected = order[..m].to_vec();
                expected.sort_unstable();
                assert_eq!(
                    multi_krum_select(&uploads, f, m),
                    expected,
                    "threads {threads}, m {m}"
                );
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn norm_bounding_clips_exactly_at_the_threshold() {
        let anchor = vec![0.0f32, 0.0];
        // Upload 1: delta (3, 4), norm 5 — clipped by exactly 2/5.
        // Upload 2: delta (0.6, 0.8), norm 1 — inside the bound, untouched.
        let uploads = vec![vec![3.0f32, 4.0], vec![0.6, 0.8]];
        let out = fresh(2, |o| norm_bounded_mean_into(o, &anchor, &uploads, 2.0));
        // Clipped deltas: (1.2, 1.6) and (0.6, 0.8); mean (0.9, 1.2).
        assert!((out[0] - 0.9).abs() < 1e-6 && (out[1] - 1.2).abs() < 1e-6);
        let step = l2_norm(&out);
        assert!(step <= 2.0 + 1e-6, "aggregate step {step} exceeds the bound");
    }

    #[test]
    fn robust_rules_agree_with_their_kernels_and_report_breakdowns() {
        let anchor = vec![0.0f32; 3];
        let uploads = vec![
            vec![1.0f32, 2.0, 3.0],
            vec![2.0, 3.0, 4.0],
            vec![9.0, -9.0, 9.0],
        ];
        let robust = |rule: RobustRule| fresh(3, |o| rule.aggregate_into(o, &anchor, &uploads));
        assert_eq!(
            robust(RobustRule::Median),
            fresh(3, |o| coordinate_median_into(o, &uploads))
        );
        assert_eq!(
            robust(RobustRule::TrimmedMean { trim: 0.34 }),
            fresh(3, |o| trimmed_mean_into(o, &uploads, 0.34))
        );
        let krum = robust(RobustRule::Krum { f: 1, m: 2 });
        let selected = multi_krum_select(&uploads, 1, 2);
        let views: Vec<&[f32]> = selected.iter().map(|&i| uploads[i].as_slice()).collect();
        assert_eq!(krum, average(&views));
        assert_eq!(
            robust(RobustRule::NormBound { max_norm: 1.5 }),
            fresh(3, |o| norm_bounded_mean_into(o, &anchor, &uploads, 1.5))
        );
        assert_eq!(RobustRule::Median.max_byzantine(7), 3);
        assert_eq!(RobustRule::TrimmedMean { trim: 0.3 }.max_byzantine(10), 3);
        assert_eq!(RobustRule::Krum { f: 2, m: 1 }.max_byzantine(10), 2);
        assert_eq!(RobustRule::NormBound { max_norm: 1.0 }.max_byzantine(10), 0);
        assert_eq!(RobustRule::Median.label(), "median");
    }

    #[test]
    fn robust_parallel_paths_match_serial_bitwise() {
        // n·d above the parallel threshold: 8 uploads × 16k scalars.
        let n = 8usize;
        let dim = 16_384usize;
        let uploads: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 37 + j * 13) % 101) as f32 * 0.37 - 18.0)
                    .collect()
            })
            .collect();
        // Serial references computed over a below-threshold prefix dimension
        // would not exercise the same columns, so compute them per-coordinate
        // by hand instead.
        let median = fresh(dim, |o| coordinate_median_into(o, &uploads));
        let trimmed = fresh(dim, |o| trimmed_mean_into(o, &uploads, 0.25));
        for coord in [0usize, 1, 511, 1023, 1024, dim - 1] {
            let mut column: Vec<f32> = uploads.iter().map(|u| u[coord]).collect();
            column.sort_unstable_by(f32::total_cmp);
            let expect_median = 0.5 * (column[n / 2 - 1] + column[n / 2]);
            assert_eq!(median[coord].to_bits(), expect_median.to_bits());
            let cut = trim_count(n, 0.25);
            let kept = &column[cut..n - cut];
            let expect_trim = kept.iter().sum::<f32>() / kept.len() as f32;
            assert_eq!(trimmed[coord].to_bits(), expect_trim.to_bits());
        }
    }

    #[test]
    fn into_variants_reuse_the_given_buffers() {
        let uploaded = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let mut buffers = [vec![9.0f32, 9.0], vec![9.0, 9.0]];
        let pointers: Vec<*const f32> = buffers.iter().map(|b| b.as_ptr()).collect();
        {
            let mut targets: Vec<&mut [f32]> =
                buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
            cross_aggregate_all_into(&mut targets, &uploaded, &[1, 0], 0.75);
        }
        for (buffer, ptr) in buffers.iter().zip(pointers) {
            assert_eq!(buffer.as_ptr(), ptr, "buffer was reallocated");
        }
        assert_eq!(buffers[0], fused(&uploaded[0], &uploaded[1], 0.75));
        assert_eq!(buffers[1], fused(&uploaded[1], &uploaded[0], 0.75));
    }
}
