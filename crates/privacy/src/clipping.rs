//! L2-norm clipping of client updates.
//!
//! Differential privacy for model updates requires a bound on how much any
//! single client can move the aggregate — the *sensitivity*. The standard way
//! to obtain it (DP-FedAvg, Abadi et al.'s DP-SGD) is to clip each client's
//! parameter *delta* (trained parameters minus dispatched parameters) to a
//! maximum L2 norm `C` before it is aggregated or noised.

use fedcross_nn::params::{difference, l2_norm};

/// Scales `delta` in place so its L2 norm is at most `max_norm`, returning the
/// norm it had before clipping.
///
/// Deltas whose norm is already within the bound are left untouched, matching
/// the `min(1, C/‖Δ‖)` scaling of DP-FedAvg.
///
/// # Panics
/// Panics if `max_norm` is not strictly positive.
pub fn clip_to_norm(delta: &mut [f32], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "clip norm must be strictly positive");
    let norm = l2_norm(delta);
    if norm > max_norm {
        let scale = max_norm / norm;
        for value in delta.iter_mut() {
            *value *= scale;
        }
    }
    norm
}

/// Computes the clipped delta `clip(trained - anchor, max_norm)`.
///
/// This is the quantity a DP mechanism perturbs: the anchor is whatever the
/// server dispatched (the global model for FedAvg, the middleware model for
/// FedCross), so the reconstruction `anchor + delta` stays compatible with the
/// un-noised pipeline.
///
/// # Panics
/// Panics if the vectors have different lengths or `max_norm <= 0`.
pub fn clipped_delta(trained: &[f32], anchor: &[f32], max_norm: f32) -> Vec<f32> {
    let mut delta = difference(trained, anchor);
    clip_to_norm(&mut delta, max_norm);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::params::l2_norm;

    #[test]
    fn small_delta_is_untouched() {
        let mut delta = vec![0.3, 0.4];
        let norm = clip_to_norm(&mut delta, 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(delta, vec![0.3, 0.4]);
    }

    #[test]
    fn large_delta_is_scaled_to_the_bound() {
        let mut delta = vec![3.0, 4.0];
        let norm = clip_to_norm(&mut delta, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((l2_norm(&delta) - 1.0).abs() < 1e-5);
        // Direction is preserved.
        assert!((delta[0] / delta[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn delta_exactly_at_the_bound_is_untouched() {
        let mut delta = vec![1.0, 0.0];
        clip_to_norm(&mut delta, 1.0);
        assert_eq!(delta, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn zero_clip_norm_is_rejected() {
        let mut delta = vec![1.0];
        clip_to_norm(&mut delta, 0.0);
    }

    #[test]
    fn clipped_delta_is_trained_minus_anchor_with_bound() {
        let anchor = vec![1.0, 1.0, 1.0];
        let trained = vec![1.0, 1.0, 11.0];
        let delta = clipped_delta(&trained, &anchor, 2.0);
        assert!((l2_norm(&delta) - 2.0).abs() < 1e-5);
        assert_eq!(delta[0], 0.0);
        assert_eq!(delta[1], 0.0);
        assert!(delta[2] > 0.0);
    }
}
