//! Pairwise-masking secure aggregation (simulation).
//!
//! In secure aggregation (Bonawitz et al. 2017) every pair of participating
//! clients `(i, j)` derives a shared mask from a common seed; client `i` adds
//! the mask, client `j` subtracts it, so the server — which only ever sees the
//! masked uploads — still recovers the exact sum. The cryptographic key
//! agreement is out of scope here; what this module reproduces is the data
//! flow: per-client masked vectors whose individual values are statistically
//! useless while their sum is exact, so the FedCross/FedAvg pipelines can be
//! run end-to-end on masked uploads.

use fedcross_tensor::SeededRng;

/// Generates cancelling pairwise masks for one round of secure aggregation.
#[derive(Debug, Clone)]
pub struct PairwiseMasker {
    round_seed: u64,
    mask_scale: f32,
}

impl PairwiseMasker {
    /// Creates a masker for one round. `round_seed` plays the role of the
    /// round's shared randomness; `mask_scale` controls the magnitude of the
    /// masks (large relative to the parameters, so individual uploads reveal
    /// essentially nothing).
    pub fn new(round_seed: u64, mask_scale: f32) -> Self {
        assert!(mask_scale > 0.0, "mask scale must be positive");
        Self {
            round_seed,
            mask_scale,
        }
    }

    /// Masks `upload` for the client at position `position` among
    /// `participants` total clients this round.
    ///
    /// The mask added by position `p` cancels against the masks of every other
    /// position, so the element-wise sum over all masked uploads equals the sum
    /// of the raw uploads.
    pub fn mask(&self, upload: &[f32], position: usize, participants: usize) -> Vec<f32> {
        assert!(position < participants, "position must index a participant");
        // alloc: cold — optional privacy plane, outside the pinned zero-alloc configuration
        let mut masked = upload.to_vec();
        for other in 0..participants {
            if other == position {
                continue;
            }
            // The pair shares one mask stream whichever of the two draws it;
            // the lower-indexed participant adds, the higher-indexed subtracts.
            let (lo, hi, sign) = if position < other {
                (position, other, 1.0)
            } else {
                (other, position, -1.0)
            };
            let stream = (lo as u64) << 32 | hi as u64;
            let mut rng = SeededRng::new(self.round_seed).fork(stream); // fork: construction-seed
            for m in masked.iter_mut() {
                *m += sign * rng.normal_with(0.0, self.mask_scale);
            }
        }
        masked
    }

    /// Masks a whole round of uploads (one vector per participant).
    pub fn mask_all(&self, uploads: &[Vec<f32>]) -> Vec<Vec<f32>> {
        uploads
            .iter()
            .enumerate()
            .map(|(position, upload)| self.mask(upload, position, uploads.len()))
            // alloc: cold — optional privacy plane, outside the pinned zero-alloc configuration
            .collect()
    }
}

/// Element-wise sum of masked uploads — with cancelling masks this equals the
/// sum of the raw uploads, which is all the server needs for averaging.
pub fn aggregate_masked(masked: &[Vec<f32>]) -> Vec<f32> {
    assert!(!masked.is_empty(), "cannot aggregate an empty round");
    let dim = masked[0].len();
    // alloc: cold — optional privacy plane, outside the pinned zero-alloc configuration
    let mut sum = vec![0f32; dim];
    for upload in masked {
        assert_eq!(upload.len(), dim, "all uploads must have identical length");
        for (s, &v) in sum.iter_mut().zip(upload) {
            *s += v;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::params::l2_norm;

    fn raw_uploads(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..dim).map(|d| (i * dim + d) as f32 * 0.01 - 0.3).collect())
            .collect()
    }

    #[test]
    fn masks_cancel_in_the_sum() {
        let uploads = raw_uploads(5, 40);
        let masker = PairwiseMasker::new(17, 25.0);
        let masked = masker.mask_all(&uploads);
        let raw_sum = aggregate_masked(&uploads);
        let masked_sum = aggregate_masked(&masked);
        for (a, b) in raw_sum.iter().zip(&masked_sum) {
            assert!((a - b).abs() < 1e-3, "sum must be preserved ({a} vs {b})");
        }
    }

    #[test]
    fn individual_uploads_are_hidden() {
        let uploads = raw_uploads(4, 64);
        let masker = PairwiseMasker::new(3, 25.0);
        let masked = masker.mask_all(&uploads);
        for (raw, hidden) in uploads.iter().zip(&masked) {
            let distortion = fedcross_nn::params::euclidean(raw, hidden);
            assert!(
                distortion > 10.0 * l2_norm(raw).max(1e-3),
                "masked upload is too close to the raw upload (distortion {distortion})"
            );
        }
    }

    #[test]
    fn two_participants_round_trips_exactly() {
        let uploads = vec![vec![1.0, -2.0, 3.0], vec![0.5, 0.5, 0.5]];
        let masker = PairwiseMasker::new(99, 5.0);
        let masked = masker.mask_all(&uploads);
        let sum = aggregate_masked(&masked);
        assert!((sum[0] - 1.5).abs() < 1e-4);
        assert!((sum[1] + 1.5).abs() < 1e-4);
        assert!((sum[2] - 3.5).abs() < 1e-4);
    }

    #[test]
    fn single_participant_has_no_masks() {
        let uploads = vec![vec![1.0, 2.0]];
        let masker = PairwiseMasker::new(1, 10.0);
        let masked = masker.mask_all(&uploads);
        assert_eq!(masked[0], uploads[0]);
    }

    #[test]
    fn masks_depend_on_the_round_seed() {
        let upload = vec![0.0f32; 16];
        let a = PairwiseMasker::new(1, 10.0).mask(&upload, 0, 3);
        let b = PairwiseMasker::new(2, 10.0).mask(&upload, 0, 3);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn position_out_of_range_is_rejected() {
        let masker = PairwiseMasker::new(0, 1.0);
        let _ = masker.mask(&[0.0], 2, 2);
    }

    #[test]
    #[should_panic]
    fn aggregating_an_empty_round_is_rejected() {
        let _ = aggregate_masked(&[]);
    }
}
