//! Determinism pins for the Byzantine-robust aggregation kernels.
//!
//! The robustness plane's contract (docs/ROBUSTNESS.md) is that robust
//! aggregation is a pure function of the *set* of uploads in canonical
//! client order: permuting upload arrival order must not change a single
//! bit of the aggregate, and every tie is broken deterministically (lowest
//! canonical index first). These tests pin that contract directly at the
//! kernel level — the algorithm-level order-independence tests in
//! `resume_plane.rs` and `crates/core/src/robust.rs` build on it.

use fedcross::aggregation::{
    coordinate_median_into, krum_select, multi_krum_select, norm_bounded_mean_into, trim_count,
    trimmed_mean_into,
};
use fedcross::RobustRule;
use fedcross_nn::params::{l2_norm, squared_distance};
use fedcross_tensor::SeededRng;
use proptest::prelude::*;

/// `n` random upload vectors of `dim` coordinates in `[-3, 3)`.
fn random_uploads(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-3.0, 3.0)).collect())
        .collect()
}

/// A seeded permutation of `0..n` together with the uploads reordered by it:
/// `shuffled[k] = uploads[perm[k]]`.
fn permuted(uploads: &[Vec<f32>], seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..uploads.len()).collect();
    SeededRng::new(seed).shuffle(&mut perm);
    let shuffled = perm.iter().map(|&i| uploads[i].clone()).collect();
    (shuffled, perm)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `coordinate_median_into` on a fresh NaN-filled buffer.
fn median(uploads: &[Vec<f32>]) -> Vec<f32> {
    let mut out = vec![f32::NAN; uploads[0].len()];
    coordinate_median_into(&mut out, uploads);
    out
}

/// `trimmed_mean_into` on a fresh NaN-filled buffer.
fn trimmed(uploads: &[Vec<f32>], trim: f32) -> Vec<f32> {
    let mut out = vec![f32::NAN; uploads[0].len()];
    trimmed_mean_into(&mut out, uploads, trim);
    out
}

/// `norm_bounded_mean_into` on a fresh NaN-filled buffer.
fn norm_bounded(anchor: &[f32], uploads: &[Vec<f32>], max_norm: f32) -> Vec<f32> {
    let mut out = vec![f32::NAN; anchor.len()];
    norm_bounded_mean_into(&mut out, anchor, uploads, max_norm);
    out
}

/// Reproduces the kernel's Krum score arithmetic exactly (same distance
/// order, same ascending sort, same summation order), so the test can tell
/// structural score ties — where set-invariance is not promised — from the
/// tie-free cases where it is.
fn krum_scores(uploads: &[Vec<f32>], f: usize) -> Vec<f32> {
    let n = uploads.len();
    let neighbours = n.saturating_sub(f + 2).clamp(1, n - 1);
    (0..n)
        .map(|i| {
            let mut distances: Vec<f32> = (0..n)
                .filter(|&j| j != i)
                .map(|j| squared_distance(&uploads[i], &uploads[j]))
                .collect();
            distances.sort_unstable_by(f32::total_cmp);
            distances[..neighbours].iter().sum()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coordinate-wise median is **bitwise** invariant to upload order: each
    /// column is sorted with `f32::total_cmp` before the middle is read, so
    /// the arrival permutation is erased entirely.
    #[test]
    fn median_is_bitwise_invariant_to_upload_order(
        n in 1usize..9,
        dim in 1usize..40,
        seed in 0u64..500,
    ) {
        let uploads = random_uploads(n, dim, seed);
        let (shuffled, _) = permuted(&uploads, seed ^ 0x5EED);
        prop_assert_eq!(
            bits(&median(&uploads)),
            bits(&median(&shuffled))
        );
    }

    /// Trimmed mean is bitwise invariant to upload order for every valid
    /// trim fraction: the kept slice is summed in ascending sorted order, a
    /// pure function of the column multiset.
    #[test]
    fn trimmed_mean_is_bitwise_invariant_to_upload_order(
        n in 1usize..9,
        dim in 1usize..40,
        trim in 0.0f32..0.49,
        seed in 0u64..500,
    ) {
        let uploads = random_uploads(n, dim, seed);
        let (shuffled, _) = permuted(&uploads, seed ^ 0xC0FFEE);
        // floor(trim·n) < n/2 for trim < 0.5, so the kernel's precondition
        // 2·cut < n holds for every generated case.
        prop_assert!(2 * trim_count(n, trim) < n);
        prop_assert_eq!(
            bits(&trimmed(&uploads, trim)),
            bits(&trimmed(&shuffled, trim))
        );
    }

    /// Multi-Krum's selected *set* is invariant to upload order (scores are
    /// pure functions of the pairwise-distance multiset), and the returned
    /// indices are always in ascending canonical order.
    #[test]
    fn multi_krum_selection_set_is_invariant_to_upload_order(
        n in 2usize..9,
        dim in 1usize..24,
        f in 0usize..3,
        m_raw in 1usize..9,
        seed in 0u64..500,
    ) {
        let m = ((m_raw - 1) % n) + 1;
        let uploads = random_uploads(n, dim, seed);
        let (shuffled, perm) = permuted(&uploads, seed ^ 0xACE5);

        let canonical = multi_krum_select(&uploads, f, m);
        prop_assert!(canonical.windows(2).all(|w| w[0] < w[1]));

        // Map the shuffled selection back to original upload identities.
        let mut mapped: Vec<usize> = multi_krum_select(&shuffled, f, m)
            .iter()
            .map(|&k| perm[k])
            .collect();
        mapped.sort_unstable();

        let scores = krum_scores(&uploads, f);
        let mut distinct = scores.clone();
        distinct.sort_unstable_by(f32::total_cmp);
        distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
        if distinct.len() == scores.len() {
            // No exact score ties: the selected set is permutation-invariant.
            prop_assert_eq!(canonical, mapped);
        } else {
            // Structural ties (e.g. n = 2, or mutually-nearest pairs): only
            // the multiset of selected *scores* is promised to be invariant.
            let score_bits = |sel: &[usize]| {
                let mut s: Vec<u32> = sel.iter().map(|&i| scores[i].to_bits()).collect();
                s.sort_unstable();
                s
            };
            prop_assert_eq!(score_bits(&canonical), score_bits(&mapped));
        }
    }
}

#[test]
fn krum_breaks_ties_by_lowest_canonical_index() {
    // Four identical uploads: every Krum score ties at exactly 0.0, so the
    // deterministic tie-break must hand back the lowest canonical indices.
    let uploads = vec![vec![0.5f32, -0.25]; 4];
    assert_eq!(krum_select(&uploads, 1), 0);
    assert_eq!(multi_krum_select(&uploads, 1, 1), vec![0]);
    assert_eq!(multi_krum_select(&uploads, 1, 3), vec![0, 1, 2]);

    // Two mirrored pairs: scores tie pairwise; selection must still prefer
    // the lower index within each tied pair.
    let mirrored = vec![
        vec![1.0f32, 0.0],
        vec![1.0, 0.0],
        vec![-1.0, 0.0],
        vec![-1.0, 0.0],
    ];
    assert_eq!(multi_krum_select(&mirrored, 0, 2), vec![0, 1]);
}

#[test]
fn median_and_trimmed_mean_use_canonical_sorted_order_for_even_columns() {
    // Even column: the median averages the two middle values of the sorted
    // column, regardless of arrival order.
    let uploads = vec![vec![4.0f32], vec![1.0], vec![3.0], vec![2.0]];
    assert_eq!(median(&uploads), vec![2.5]);
    // trim = 0.25 on n = 4 drops exactly one value per end: keeps {2, 3}.
    assert_eq!(trim_count(4, 0.25), 1);
    assert_eq!(trimmed(&uploads, 0.25), vec![2.5]);
}

/// Norm bounding clips **exactly** at the threshold: a delta of norm `> C`
/// is scaled by exactly `C / ‖δ‖`, a delta of norm `≤ C` (including exactly
/// `C`) passes through bitwise untouched.
#[test]
fn norm_bounding_pins_the_clip_threshold_exactly() {
    let anchor = vec![1.0f32, -2.0];
    let max_norm = 2.0f32;

    // Delta (3, 4): norm exactly 5 > C, so the clip factor is exactly
    // C / 5 = 2/5 — reproduce the kernel's arithmetic and compare bitwise.
    let over = vec![anchor[0] + 3.0, anchor[1] + 4.0];
    let delta = [3.0f32, 4.0];
    assert_eq!(l2_norm(&delta), 5.0);
    let scale = max_norm / 5.0f32;
    let expected = [
        anchor[0] + scale * delta[0],
        anchor[1] + scale * delta[1],
    ];
    let clipped = norm_bounded(&anchor, &[over], max_norm);
    assert_eq!(bits(&clipped), bits(&expected));
    assert!((l2_norm(&[clipped[0] - anchor[0], clipped[1] - anchor[1]]) - max_norm).abs() < 1e-6);

    // Delta (2, 0): norm exactly C. The condition is a strict `>`, so the
    // delta is NOT rescaled — the upload passes through bitwise.
    let at = vec![anchor[0] + 2.0, anchor[1]];
    assert_eq!(l2_norm(&[2.0f32, 0.0]), max_norm);
    let passthrough = norm_bounded(&anchor, std::slice::from_ref(&at), max_norm);
    assert_eq!(bits(&passthrough), bits(&at));

    // Delta well under C: untouched too.
    let under = vec![anchor[0] + 0.3, anchor[1] - 0.4];
    assert_eq!(
        bits(&norm_bounded(
            &anchor,
            std::slice::from_ref(&under),
            max_norm
        )),
        bits(&under)
    );
}

#[test]
fn breakdown_points_match_the_documented_rules() {
    assert_eq!(RobustRule::Median.max_byzantine(7), 3);
    assert_eq!(RobustRule::Median.max_byzantine(8), 3);
    assert_eq!(RobustRule::TrimmedMean { trim: 0.25 }.max_byzantine(8), 2);
    assert_eq!(RobustRule::Krum { f: 2, m: 1 }.max_byzantine(9), 2);
    assert_eq!(RobustRule::NormBound { max_norm: 1.0 }.max_byzantine(9), 0);
}
