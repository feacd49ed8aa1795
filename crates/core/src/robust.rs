//! Byzantine-robust server algorithms: [`RobustFedAvg`] and
//! [`RobustFedCross`].
//!
//! Both algorithms replace the implicit "every upload is honest" assumption of
//! their namesakes with a [`RobustRule`] from [`crate::aggregation`]. The
//! threat model and rule semantics are documented in docs/ROBUSTNESS.md; the
//! determinism contract is the same one the DP plane established:
//!
//! * uploads are processed in **canonical order** (client id for
//!   [`RobustFedAvg`], middleware slot for [`RobustFedCross`]), so the round
//!   result is a pure function of the upload *set*, never of arrival order,
//! * both algorithms expose their server half (`apply_updates`) publicly so
//!   the order-independence and resume tests can drive it directly,
//! * both implement the full resume plane (`snapshot_state` /
//!   `restore_state`), so adversarial runs checkpoint and resume bitwise
//!   identically (pinned by tests/tests/resume_plane.rs).
//!
//! Robust rules aggregate **unweighted**: FedAvg's sample-count weighting
//! hands Byzantine clients a free amplification knob (report a huge
//! `num_samples`), so the robust variants deliberately ignore it.

use crate::aggregation::RobustRule;
use crate::selection::{SelectionStrategy, SimilarityMeasure};
use crate::server::{slot_order, GlobalModel, Middleware};
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_nn::params::ParamBlock;

/// FedAvg with a Byzantine-robust aggregation rule in place of the weighted
/// average: dispatch the single global model to `K` clients, then replace it
/// with the rule's aggregate of their uploads.
pub struct RobustFedAvg {
    rule: RobustRule,
    global: GlobalModel,
    /// The next global model, written while the current one is the
    /// norm-bound rule's anchor.
    aggregate: Vec<f32>,
}

impl RobustFedAvg {
    /// Creates robust FedAvg from the initial global model and a rule.
    ///
    /// # Panics
    /// Panics on empty initial parameters or an invalid rule.
    pub fn new(rule: RobustRule, init_params: Vec<f32>) -> Self {
        rule.validate();
        Self {
            rule,
            global: GlobalModel::new(init_params),
            aggregate: Vec::new(),
        }
    }

    /// The configured robust rule.
    pub fn rule(&self) -> RobustRule {
        self.rule
    }

    /// The current global model parameters.
    pub fn global(&self) -> &[f32] {
        self.global.params()
    }

    /// The server half of a round: sorts `updates` into canonical client-id
    /// order and replaces the global model with the rule's aggregate.
    ///
    /// Public so the order-independence tests can feed the same update set in
    /// different arrival orders — the result (and the returned report) must
    /// be bitwise identical. Empty updates carry the global model over.
    pub fn apply_updates(&mut self, mut updates: Vec<LocalUpdate>) -> RoundReport {
        if updates.is_empty() {
            return RoundReport::default();
        }
        updates.sort_by_key(|u| u.client);
        let report = RoundReport::from_updates(&updates);
        // alloc: bounded — cohort-sized aggregation staging, once per round
        let uploads: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        self.aggregate.resize(self.global.params().len(), 0.0);
        self.rule
            .aggregate_into(&mut self.aggregate, self.global.params(), &uploads);
        self.global.params_mut().copy_from_slice(&self.aggregate);
        report
    }
}

impl FederatedAlgorithm for RobustFedAvg {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!("robust-fedavg({})", self.rule.label())
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let updates = self.global.dispatch(ctx, &selected);
        self.apply_updates(updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        Ok(self.global.snapshot())
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.global.restore(state)
    }
}

/// Configuration of [`RobustFedCross`].
#[derive(Debug, Clone, Copy)]
pub struct RobustFedCrossConfig {
    /// Cross-aggregation weight α ∈ [0.5, 1).
    pub alpha: f32,
    /// The robust rule applied to the per-middleware deltas before
    /// cross-aggregation.
    pub rule: RobustRule,
    /// Collaborative-model selection strategy (over the sanitized uploads).
    pub strategy: SelectionStrategy,
    /// Similarity measure used by the similarity strategies.
    pub measure: SimilarityMeasure,
}

impl Default for RobustFedCrossConfig {
    fn default() -> Self {
        Self {
            alpha: 0.99,
            rule: RobustRule::TrimmedMean { trim: 0.25 },
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
        }
    }
}

/// FedCross with a robust sanitization stage between upload and
/// cross-aggregation.
///
/// Plain FedCross is *maximally* exposed to Byzantine uploads: every upload
/// becomes a middleware model, and cross-aggregation then blends a poisoned
/// model into every other middleware within `K-1` rounds. The robust variant
/// interposes the rule on the **per-middleware deltas**
/// `dᵢ = uploadᵢ - middlewareᵢ` (each upload measured against the model that
/// slot dispatched):
///
/// * exclusion rules (median / trimmed mean / multi-Krum) compute one robust
///   consensus delta `d*` across the round's uploads and rebuild every
///   returned middleware as `ṽᵢ = middlewareᵢ + d*` — a Byzantine delta is
///   voted out before it touches any model, while middleware diversity (the
///   anchors) is preserved,
/// * norm bounding clips each slot's **own** delta to the bound:
///   `ṽᵢ = middlewareᵢ + min(1, C/‖dᵢ‖)·dᵢ` — nothing is excluded, but a
///   scaled update cannot move its middleware further than `C`.
///
/// Cross-aggregation (collaborator selection + α-fusion) then runs on the
/// sanitized models exactly as in plain FedCross, and the global model stays
/// the middleware average.
pub struct RobustFedCross {
    config: RobustFedCrossConfig,
    middleware: Middleware,
    /// The consensus or one clipped delta.
    scratch: Vec<f32>,
    /// The norm-bound rule's anchor for anchor-relative deltas.
    zero_anchor: Vec<f32>,
}

impl RobustFedCross {
    /// Creates robust FedCross with `k` middleware models initialised from one
    /// shared parameter vector.
    ///
    /// # Panics
    /// Panics if `k < 2`, `alpha` is outside `[0.5, 1)` or the rule is
    /// invalid.
    pub fn new(config: RobustFedCrossConfig, init_params: Vec<f32>, k: usize) -> Self {
        config.rule.validate();
        let RobustFedCrossConfig {
            alpha,
            strategy,
            measure,
            ..
        } = config;
        let middleware = Middleware::new(init_params, k, alpha, strategy, measure);
        Self {
            config,
            middleware,
            scratch: Vec::new(),
            zero_anchor: Vec::new(),
        }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &RobustFedCrossConfig {
        &self.config
    }

    /// The current middleware model list (for analysis and tests).
    pub fn middleware(&self) -> &[ParamBlock] {
        self.middleware.models()
    }

    /// The server half of a round: maps `updates` back to the middleware
    /// slots that dispatched them (via `selected`, the round's client→slot
    /// assignment), sorts them into canonical slot order, sanitizes with the
    /// rule and cross-aggregates the sanitized models.
    ///
    /// Public so the order-independence and resume tests can drive it with
    /// controlled update sets; [`FederatedAlgorithm::run_round`] is a thin
    /// wrapper. Empty updates carry all middleware over.
    pub fn apply_updates(
        &mut self,
        round: usize,
        selected: &[usize],
        updates: Vec<LocalUpdate>,
    ) -> RoundReport {
        let (slots, updates) = slot_order(selected, updates);
        self.sanitize_and_fuse(round, &slots, &updates)
    }

    /// Sanitizes the slot-ordered uploads' deltas, which the middleware
    /// stages and then rebuilds on their own anchors, and cross-aggregates
    /// the candidates.
    fn sanitize_and_fuse(
        &mut self,
        round: usize,
        slots: &[usize],
        updates: &[LocalUpdate],
    ) -> RoundReport {
        let report = RoundReport::from_updates(updates);
        if updates.is_empty() {
            return report;
        }
        let dim = self.middleware.models()[0].len();
        self.scratch.resize(dim, 0.0);
        let deltas = self.middleware.stage_deltas(slots, updates);
        match self.config.rule {
            rule @ RobustRule::NormBound { .. } => {
                // Per-slot clipping: each delta is bounded independently. The
                // rule's anchor is the zero vector because the deltas are
                // already anchor-relative.
                self.zero_anchor.resize(dim, 0.0);
                for delta in deltas.iter_mut() {
                    let delta_only = std::slice::from_ref(&*delta);
                    rule.aggregate_into(&mut self.scratch, &self.zero_anchor, delta_only);
                    std::mem::swap(delta, &mut self.scratch);
                }
            }
            // Exclusion rules: one robust consensus delta across the round's
            // uploads. A single survivor is its own consensus (Krum needs two
            // uploads to score).
            rule if deltas.len() > 1 => {
                rule.aggregate_into(&mut self.scratch, &[], deltas);
                for delta in deltas.iter_mut() {
                    delta.copy_from_slice(&self.scratch);
                }
            }
            _ => {}
        }
        // Cross-aggregation then runs on the sanitized models exactly as
        // plain FedCross runs it on the uploads.
        self.middleware.fuse_staged(round, slots);
        report
    }
}

impl FederatedAlgorithm for RobustFedCross {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "robust-fedcross(alpha={}, {}, {})",
            self.config.alpha,
            self.config.rule.label(),
            self.config.strategy
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let (slots, updates) = self.middleware.dispatch(ctx);
        self.sanitize_and_fuse(round, &slots, &updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.middleware.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        Ok(self.middleware.snapshot())
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.middleware.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{coordinate_median_into, trimmed_mean_into};

    fn update(client: usize, params: Vec<f32>) -> LocalUpdate {
        LocalUpdate {
            client,
            params: ParamBlock::from(params),
            num_samples: 10,
            train_loss: 0.5,
            steps: 1,
        }
    }

    #[test]
    fn robust_fedavg_median_ignores_a_byzantine_upload() {
        let mut algo = RobustFedAvg::new(RobustRule::Median, vec![0.0; 2]);
        let report = algo.apply_updates(vec![
            update(0, vec![1.0, 1.0]),
            update(1, vec![1e9, -1e9]),
            update(2, vec![3.0, 3.0]),
        ]);
        assert_eq!(report.participants, 3);
        // Per coordinate the Byzantine value is an extreme, so the median
        // lands on an honest value: {1, 1e9, 3} → 3 and {1, -1e9, 3} → 1.
        assert_eq!(algo.global(), &[3.0, 1.0]);
    }

    #[test]
    fn robust_fedavg_is_upload_order_independent() {
        let updates = vec![
            update(4, vec![4.0, 0.0]),
            update(1, vec![1.0, 2.0]),
            update(7, vec![-2.0, 5.0]),
        ];
        for rule in [
            RobustRule::Median,
            RobustRule::TrimmedMean { trim: 0.34 },
            RobustRule::Krum { f: 1, m: 2 },
            RobustRule::NormBound { max_norm: 1.0 },
        ] {
            let mut forward = RobustFedAvg::new(rule, vec![0.0; 2]);
            let mut reversed = RobustFedAvg::new(rule, vec![0.0; 2]);
            forward.apply_updates(updates.clone());
            let mut flipped = updates.clone();
            flipped.reverse();
            reversed.apply_updates(flipped);
            assert_eq!(
                forward.global().iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                reversed.global().iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "{:?} is order-sensitive",
                rule
            );
        }
    }

    #[test]
    fn robust_fedavg_ignores_sample_count_weighting() {
        // A Byzantine client reporting a huge sample count must gain no
        // leverage: the rule aggregates unweighted.
        let mut small = RobustFedAvg::new(RobustRule::TrimmedMean { trim: 0.0 }, vec![0.0]);
        let mut big = RobustFedAvg::new(RobustRule::TrimmedMean { trim: 0.0 }, vec![0.0]);
        small.apply_updates(vec![update(0, vec![2.0]), update(1, vec![4.0])]);
        let mut inflated = update(1, vec![4.0]);
        inflated.num_samples = 1_000_000;
        big.apply_updates(vec![update(0, vec![2.0]), inflated]);
        assert_eq!(small.global(), big.global());
        assert_eq!(small.global(), &[3.0]);
    }

    #[test]
    fn robust_fedavg_empty_round_carries_the_global_over() {
        let mut algo = RobustFedAvg::new(RobustRule::Median, vec![1.5, -2.5]);
        let report = algo.apply_updates(Vec::new());
        assert_eq!(report.participants, 0);
        assert_eq!(algo.global(), &[1.5, -2.5]);
    }

    #[test]
    fn robust_fedcross_sanitizes_with_the_consensus_delta() {
        let config = RobustFedCrossConfig {
            alpha: 0.5,
            rule: RobustRule::Median,
            strategy: SelectionStrategy::InOrder,
            measure: SimilarityMeasure::Cosine,
        };
        let mut algo = RobustFedCross::new(config, vec![0.0, 0.0], 3);
        // Slots start identical (zero), so deltas equal the uploads; the
        // Byzantine upload from client 5 is the median's to discard.
        let selected = vec![7, 5, 2]; // slot 0 → client 7, slot 1 → 5, slot 2 → 2
        algo.apply_updates(
            0,
            &selected,
            vec![
                update(2, vec![3.0, 3.0]),
                update(7, vec![1.0, 1.0]),
                update(5, vec![1e9, 1e9]),
            ],
        );
        let mut expected_delta = vec![f32::NAN; 2];
        coordinate_median_into(
            &mut expected_delta,
            &[vec![1.0f32, 1.0], vec![1e9, 1e9], vec![3.0, 3.0]],
        );
        // Every sanitized model = 0 + d*; with identical sanitized models,
        // cross-aggregation is a fixed point, so all middleware equal d*.
        for block in algo.middleware() {
            assert_eq!(block.as_slice(), expected_delta.as_slice());
        }
    }

    #[test]
    fn robust_fedcross_is_upload_order_independent() {
        let build = || {
            RobustFedCross::new(
                RobustFedCrossConfig {
                    alpha: 0.75,
                    rule: RobustRule::TrimmedMean { trim: 0.25 },
                    ..Default::default()
                },
                vec![0.5, -0.5, 1.0],
                4,
            )
        };
        let selected = vec![3, 0, 9, 4];
        let updates = vec![
            update(9, vec![1.0, 0.0, 2.0]),
            update(3, vec![0.0, 1.0, -1.0]),
            update(4, vec![2.0, 2.0, 2.0]),
            update(0, vec![-1.0, 0.5, 0.0]),
        ];
        let mut forward = build();
        let mut reversed = build();
        let a = forward.apply_updates(2, &selected, updates.clone());
        let mut flipped = updates;
        flipped.reverse();
        let b = reversed.apply_updates(2, &selected, flipped);
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.mean_train_loss.to_bits(), b.mean_train_loss.to_bits());
        for (x, y) in forward.middleware().iter().zip(reversed.middleware()) {
            assert_eq!(
                x.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn norm_bound_clips_each_slot_delta_independently() {
        let config = RobustFedCrossConfig {
            alpha: 0.9,
            rule: RobustRule::NormBound { max_norm: 1.0 },
            strategy: SelectionStrategy::InOrder,
            ..Default::default()
        };
        let mut algo = RobustFedCross::new(config, vec![0.0], 2);
        // Slot 0's delta has norm 100 → clipped to 1; slot 1's has norm 0.5,
        // untouched. Sanitized models: 1.0 and 0.5; in-order cross-agg:
        // 0.9·1.0 + 0.1·0.5 = 0.95 and 0.9·0.5 + 0.1·1.0 = 0.55.
        algo.apply_updates(
            0,
            &[1, 6],
            vec![update(1, vec![100.0]), update(6, vec![0.5])],
        );
        let m: Vec<f32> = algo.middleware().iter().map(|b| b[0]).collect();
        assert!((m[0] - 0.95).abs() < 1e-6, "slot 0 got {}", m[0]);
        assert!((m[1] - 0.55).abs() < 1e-6, "slot 1 got {}", m[1]);
    }

    #[test]
    fn lone_survivor_keeps_its_sanitized_training() {
        let mut algo = RobustFedCross::new(
            RobustFedCrossConfig {
                rule: RobustRule::TrimmedMean { trim: 0.25 },
                ..Default::default()
            },
            vec![1.0, 1.0],
            3,
        );
        algo.apply_updates(0, &[2, 8, 5], vec![update(8, vec![3.0, 0.0])]);
        // Slot 1 (client 8) keeps its own delta; slots 0 and 2 carry over.
        assert_eq!(algo.middleware()[1].as_slice(), &[3.0, 0.0]);
        assert_eq!(algo.middleware()[0].as_slice(), &[1.0, 1.0]);
        assert_eq!(algo.middleware()[2].as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn names_encode_the_rule() {
        let avg = RobustFedAvg::new(RobustRule::Krum { f: 1, m: 2 }, vec![0.0]);
        assert_eq!(avg.name(), "robust-fedavg(krum(f=1,m=2))");
        assert_eq!(avg.rule(), RobustRule::Krum { f: 1, m: 2 });
        let cross = RobustFedCross::new(RobustFedCrossConfig::default(), vec![0.0], 2);
        assert_eq!(
            cross.name(),
            "robust-fedcross(alpha=0.99, trimmed-mean(0.25), lowest-similarity)"
        );
        assert!((cross.config().alpha - 0.99).abs() < 1e-6);
    }

    #[test]
    fn snapshot_restore_round_trips_the_middleware() {
        let mut algo = RobustFedCross::new(RobustFedCrossConfig::default(), vec![0.0; 2], 3);
        algo.apply_updates(
            0,
            &[0, 1, 2],
            vec![
                update(0, vec![1.0, 0.0]),
                update(1, vec![0.0, 1.0]),
                update(2, vec![0.5, 0.5]),
            ],
        );
        let state = algo.snapshot_state().expect("snapshots");
        let mut fresh = RobustFedCross::new(RobustFedCrossConfig::default(), vec![0.0; 2], 3);
        fresh.restore_state(&state).expect("restores");
        for (a, b) in algo.middleware().iter().zip(fresh.middleware()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(algo.global_params(), fresh.global_params());
        // Mismatched shape is rejected.
        let mut wrong = RobustFedCross::new(RobustFedCrossConfig::default(), vec![0.0; 2], 4);
        assert!(wrong.restore_state(&state).is_err());
    }

    #[test]
    fn trimmed_consensus_matches_the_kernel() {
        let mut algo = RobustFedCross::new(
            RobustFedCrossConfig {
                rule: RobustRule::TrimmedMean { trim: 0.25 },
                strategy: SelectionStrategy::InOrder,
                alpha: 0.5,
                ..Default::default()
            },
            vec![0.0],
            4,
        );
        let deltas = [vec![1.0f32], vec![2.0], vec![3.0], vec![100.0]];
        algo.apply_updates(
            0,
            &[0, 1, 2, 3],
            deltas
                .iter()
                .enumerate()
                .map(|(c, d)| update(c, d.clone()))
                .collect(),
        );
        let mut consensus = [f32::NAN];
        trimmed_mean_into(&mut consensus, &deltas, 0.25);
        let consensus = consensus[0];
        for block in algo.middleware() {
            assert_eq!(block[0], consensus);
        }
    }
}
