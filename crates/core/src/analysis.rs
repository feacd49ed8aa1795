//! Training-dynamics analysis: gradient divergence and middleware unification.
//!
//! The paper's motivation (Section I) is that FedAvg's one-to-multi scheme
//! suffers from *gradient divergence* — conflicting client updates cancel each
//! other in the averaged global model — while FedCross gradually unifies its
//! middleware models instead. This module provides the measurements behind
//! that narrative:
//!
//! * [`update_conflict`] — mean pairwise cosine similarity of client *update
//!   directions* in a round (negative / near-zero values mean conflicting
//!   gradients),
//! * [`UnificationTracker`] — records the middleware-model similarity and the
//!   spread of the middleware set round by round, so experiments can show the
//!   models "eventually become similar" (Section III-A).

use crate::selection::mean_pairwise_similarity;
use fedcross_nn::params::{difference, l2_norm};
use serde::{Deserialize, Serialize};

/// Mean pairwise cosine similarity between client update directions
/// (`uploaded_i - dispatched_i`).
///
/// Values near 1 mean clients agree on the direction of improvement; values
/// near 0 or below mean their gradients conflict — the phenomenon coarse
/// FedAvg averaging cannot resolve.
///
/// Returns 1.0 when fewer than two updates are given.
pub fn update_conflict(dispatched: &[Vec<f32>], uploaded: &[Vec<f32>]) -> f32 {
    assert_eq!(
        dispatched.len(),
        uploaded.len(),
        "one dispatched model per uploaded model"
    );
    let updates: Vec<Vec<f32>> = dispatched
        .iter()
        .zip(uploaded)
        .map(|(d, u)| difference(u, d))
        .collect();
    mean_pairwise_similarity(&updates)
}

/// One recorded round of middleware statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnificationRecord {
    /// Communication round index.
    pub round: usize,
    /// Mean pairwise cosine similarity of the middleware models.
    pub mean_similarity: f32,
    /// Largest L2 distance between any middleware model and their mean.
    pub max_spread: f32,
}

/// Tracks how the middleware model set contracts over training.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UnificationTracker {
    records: Vec<UnificationRecord>,
}

impl UnificationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the state of the middleware models after `round`.
    pub fn record(&mut self, round: usize, middleware: &[Vec<f32>]) {
        assert!(!middleware.is_empty(), "middleware list must not be empty");
        let dim = middleware[0].len();
        let mut mean = vec![0f32; dim];
        for model in middleware {
            for (m, &v) in mean.iter_mut().zip(model) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= middleware.len() as f32;
        }
        let max_spread = middleware
            .iter()
            .map(|model| l2_norm(&difference(model, &mean)))
            .fold(0f32, f32::max);
        self.records.push(UnificationRecord {
            round,
            mean_similarity: mean_pairwise_similarity(middleware),
            max_spread,
        });
    }

    /// All recorded rounds in order.
    pub fn records(&self) -> &[UnificationRecord] {
        &self.records
    }

    /// Whether the middleware similarity is (weakly) increasing over the last
    /// `window` records — the paper's "middleware models eventually become
    /// similar" claim, allowing `tolerance` of noise.
    pub fn is_unifying(&self, window: usize, tolerance: f32) -> bool {
        if self.records.len() < 2 {
            return true;
        }
        let start = self.records.len().saturating_sub(window.max(2));
        let slice = &self.records[start..];
        slice
            .first()
            .zip(slice.last())
            .map(|(first, last)| last.mean_similarity + tolerance >= first.mean_similarity)
            .unwrap_or(true)
    }

    /// The most recent similarity value (1.0 if nothing recorded).
    pub fn latest_similarity(&self) -> f32 {
        self.records
            .last()
            .map(|r| r.mean_similarity)
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_updates_have_no_conflict() {
        let dispatched = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let uploaded = vec![vec![1.0, 2.0], vec![2.0, 3.0]];
        // Both updates are (1, 2): perfectly aligned.
        assert!((update_conflict(&dispatched, &uploaded) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn opposite_updates_conflict() {
        let dispatched = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let uploaded = vec![vec![1.0, 0.0], vec![-1.0, 0.0]];
        assert!(update_conflict(&dispatched, &uploaded) < -0.99);
    }

    #[test]
    fn orthogonal_updates_score_near_zero() {
        let dispatched = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let uploaded = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(update_conflict(&dispatched, &uploaded).abs() < 1e-6);
    }

    #[test]
    fn single_update_defaults_to_one() {
        let dispatched = vec![vec![0.0]];
        let uploaded = vec![vec![1.0]];
        assert_eq!(update_conflict(&dispatched, &uploaded), 1.0);
    }

    #[test]
    fn tracker_detects_contracting_middleware() {
        let mut tracker = UnificationTracker::new();
        // Models that move closer together each round.
        for round in 0..5 {
            let spread = 1.0 / (round + 1) as f32;
            let middleware = vec![
                vec![1.0, spread],
                vec![1.0, -spread],
                vec![1.0 + spread, 0.0],
            ];
            tracker.record(round, &middleware);
        }
        assert_eq!(tracker.records().len(), 5);
        assert!(tracker.is_unifying(5, 1e-3));
        assert!(tracker.latest_similarity() > tracker.records()[0].mean_similarity);
        assert!(tracker.records()[4].max_spread < tracker.records()[0].max_spread);
    }

    #[test]
    fn tracker_flags_diverging_middleware() {
        let mut tracker = UnificationTracker::new();
        for round in 0..4 {
            let spread = (round + 1) as f32;
            let middleware = vec![vec![1.0, spread], vec![1.0, -spread]];
            tracker.record(round, &middleware);
        }
        assert!(!tracker.is_unifying(4, 0.0));
    }

    #[test]
    fn empty_tracker_is_trivially_unifying() {
        let tracker = UnificationTracker::new();
        assert!(tracker.is_unifying(3, 0.0));
        assert_eq!(tracker.latest_similarity(), 1.0);
        assert!(tracker.records().is_empty());
    }
}
