//! The FedCross federated-learning algorithm (Algorithm 1 of the paper).

use crate::acceleration::Acceleration;
use crate::selection::{mean_pairwise_similarity, SelectionStrategy, SimilarityMeasure};
use crate::server::Middleware;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_nn::params::ParamBlock;

/// FedCross hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct FedCrossConfig {
    /// Cross-aggregation weight α ∈ [0.5, 1). The paper recommends 0.99.
    pub alpha: f32,
    /// Collaborative-model selection strategy; the paper recommends
    /// lowest-similarity (or in-order).
    pub strategy: SelectionStrategy,
    /// Model-similarity measure used by the similarity strategies (the paper
    /// uses cosine; Euclidean is its future-work alternative).
    pub measure: SimilarityMeasure,
    /// Optional training acceleration (Section III-D).
    pub acceleration: Acceleration,
}

impl Default for FedCrossConfig {
    fn default() -> Self {
        Self {
            alpha: 0.99,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
            acceleration: Acceleration::None,
        }
    }
}

/// The FedCross algorithm: `K` middleware models trained in a multi-to-multi
/// scheme and fused by cross-aggregation each round.
///
/// The number of middleware models must equal the number of clients selected
/// per round (`K` in the paper); each selected client trains exactly one
/// middleware model per round.
///
/// The round is the shared [`Middleware`] skeleton with the uploads
/// themselves as fusion candidates: dispatching the `K` models is `K`
/// reference bumps, and cross-aggregation fuses each round's uploads
/// **into** the retired middleware buffers, so a steady-state round performs
/// no full-model clones at all.
pub struct FedCross {
    config: FedCrossConfig,
    middleware: Middleware,
}

impl FedCross {
    /// Creates FedCross with `k` middleware models, all initialised from the
    /// same parameter vector (the same initialisation every baseline uses, so
    /// comparisons are fair).
    ///
    /// The `k` models initially share one buffer (copy-on-write), so
    /// construction is `O(d)`, not `O(K·d)`.
    pub fn new(config: FedCrossConfig, init_params: Vec<f32>, k: usize) -> Self {
        let FedCrossConfig {
            alpha,
            strategy,
            measure,
            ..
        } = config;
        let middleware = Middleware::new(init_params, k, alpha, strategy, measure);
        Self { config, middleware }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &FedCrossConfig {
        &self.config
    }

    /// Number of middleware models `K`.
    pub fn num_middleware(&self) -> usize {
        self.middleware.models().len()
    }

    /// The current middleware model list (for analysis and tests).
    pub fn middleware(&self) -> &[ParamBlock] {
        self.middleware.models()
    }

    /// Mean pairwise cosine similarity of the middleware models — the paper's
    /// argument is that this converges towards 1 as training proceeds.
    pub fn middleware_similarity(&self) -> f32 {
        mean_pairwise_similarity(self.middleware.models())
    }
}

impl FederatedAlgorithm for FedCross {
    fn name(&self) -> String {
        let accel = match self.config.acceleration {
            // alloc: cold — identity string for reporting, built outside the per-round loop
            Acceleration::None => String::new(),
            // alloc: cold — identity string for reporting, built outside the per-round loop
            other => format!(", {}", other.label()),
        };
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "fedcross(alpha={}, {}{})",
            self.config.alpha, self.config.strategy, accel
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let (slots, updates) = self.middleware.dispatch(ctx);
        let report = RoundReport::from_updates(&updates);
        // The uploads are the fusion candidates, taken by ownership (no
        // clone). Under client dropout some slots receive no upload; their
        // middleware models skip the round and are re-dispatched next round.
        let uploads: Vec<ParamBlock> = updates
            .into_iter()
            .map(|update| update.params)
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        let acceleration = self.config.acceleration;
        self.middleware.fuse(round, &slots, &uploads, acceleration);
        report
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.middleware.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // The middleware list in slot order *is* the training state (the
        // global model is derived from it on demand).
        Ok(self.middleware.snapshot())
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.middleware.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::propeller_indices;
    use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
    use fedcross_data::Heterogeneity;
    use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
    use fedcross_nn::models::{cnn, CnnConfig};
    use fedcross_nn::Model;
    use fedcross_tensor::SeededRng;

    fn tiny_setup(seed: u64, clients: usize) -> (FederatedDataset, Box<dyn Model>) {
        let mut rng = SeededRng::new(seed);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: clients,
                samples_per_client: 25,
                test_samples: 60,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.5),
            &mut rng,
        );
        let template = cnn(
            (3, 16, 16),
            10,
            CnnConfig {
                conv_channels: (4, 8),
                fc_hidden: 16,
                kernel: 3,
            },
            &mut rng,
        );
        (data, template)
    }

    fn quick_sim_config(rounds: usize, k: usize) -> SimulationConfig {
        SimulationConfig {
            rounds,
            clients_per_round: k,
            eval_every: rounds.max(1),
            eval_batch_size: 64,
            local: LocalTrainConfig {
                epochs: 1,
                batch_size: 10,
                lr: 0.05,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            seed: 7,
        }
    }

    #[test]
    fn construction_replicates_the_initial_model() {
        let init = vec![1.0, 2.0, 3.0];
        let algo = FedCross::new(FedCrossConfig::default(), init.clone(), 4);
        assert_eq!(algo.num_middleware(), 4);
        assert!(algo.middleware().iter().all(|m| m == &init));
        assert_eq!(algo.global_params(), init);
        assert!((algo.middleware_similarity() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn fewer_than_two_middleware_models_is_rejected() {
        let _ = FedCross::new(FedCrossConfig::default(), vec![0.0], 1);
    }

    #[test]
    #[should_panic]
    fn invalid_alpha_is_rejected() {
        let config = FedCrossConfig {
            alpha: 1.5,
            ..Default::default()
        };
        let _ = FedCross::new(config, vec![0.0], 3);
    }

    #[test]
    fn name_reflects_configuration() {
        let algo = FedCross::new(FedCrossConfig::default(), vec![0.0; 4], 3);
        let name = algo.name();
        assert!(name.contains("fedcross"));
        assert!(name.contains("0.99"));
        assert!(name.contains("lowest-similarity"));

        let accel = FedCross::new(
            FedCrossConfig {
                acceleration: Acceleration::paper_da(),
                ..Default::default()
            },
            vec![0.0; 4],
            3,
        );
        assert!(accel.name().contains("w/ DA"));
    }

    #[test]
    fn propeller_indices_are_distinct_and_exclude_self() {
        for round in 0..6 {
            for i in 0..5 {
                let picks = propeller_indices(round, i, 3, 5);
                assert_eq!(picks.len(), 3);
                assert!(!picks.contains(&i));
                let mut sorted = picks.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 3);
            }
        }
        // Requesting more propellers than peers caps at K-1.
        assert_eq!(propeller_indices(0, 0, 10, 5).len(), 4);
    }

    #[test]
    fn fedcross_survives_client_dropout() {
        use fedcross_flsim::AvailabilityModel;
        let (data, template) = tiny_setup(9, 6);
        let init = template.params_flat();
        let mut algo = FedCross::new(
            FedCrossConfig {
                alpha: 0.9,
                ..Default::default()
            },
            init.clone(),
            4,
        );
        let mut config = quick_sim_config(10, 4);
        config.local.epochs = 2;
        config.local.lr = 0.1;
        config.eval_every = 2;
        let sim = Simulation::new(config, &data, template)
            .with_availability(AvailabilityModel::RandomDropout { prob: 0.3 });
        let result = sim.run(&mut algo);
        // The middleware list keeps its size, stays finite, and the run still
        // makes progress despite ~30% of uploads never arriving.
        assert_eq!(algo.num_middleware(), 4);
        assert!(algo.global_params().iter().all(|p| p.is_finite()));
        assert!(result.history.best_accuracy() > 0.15);
        // Fewer uploads than dispatch slots means fewer client contacts than
        // the no-dropout run would record.
        assert!(result.comm.client_contacts < (10 * 4) as u64);
    }

    #[test]
    fn fedcross_keeps_untrained_middleware_when_all_but_one_client_drop() {
        use fedcross_flsim::AvailabilityModel;
        let (data, template) = tiny_setup(10, 5);
        let init = template.params_flat();
        let mut algo = FedCross::new(FedCrossConfig::default(), init.clone(), 4);
        let sim = Simulation::new(quick_sim_config(2, 4), &data, template)
            .with_availability(AvailabilityModel::RandomDropout { prob: 0.95 });
        let _ = sim.run(&mut algo);
        // With near-total dropout most middleware models never trained and are
        // still the shared initialisation.
        let unchanged = algo.middleware().iter().filter(|m| **m == init).count();
        assert!(unchanged >= 2, "only {unchanged} middleware models untouched");
        assert_eq!(algo.num_middleware(), 4);
    }

    #[test]
    fn one_round_diversifies_then_training_reunifies_middleware() {
        let (data, template) = tiny_setup(1, 4);
        let mut algo = FedCross::new(FedCrossConfig::default(), template.params_flat(), 4);
        let sim = Simulation::new(quick_sim_config(6, 4), &data, template);
        let _ = sim.run(&mut algo);
        // After training the middleware models are distinct (clients differ) but
        // still highly similar thanks to cross-aggregation.
        let sim_score = algo.middleware_similarity();
        assert!(sim_score > 0.7, "middleware similarity {sim_score}");
        let first = &algo.middleware()[0];
        assert!(algo.middleware().iter().skip(1).any(|m| m != first));
    }

    #[test]
    fn fedcross_learns_on_a_tiny_task() {
        let (data, template) = tiny_setup(2, 4);
        let init_acc = {
            let mut m = template.clone_model();
            fedcross_flsim::eval::evaluate(m.as_mut(), data.test_set(), 64).accuracy
        };
        // A moderate alpha keeps the unit test fast; the full alpha = 0.99 setting
        // is exercised by the integration tests and the benchmark harness.
        let fed_config = FedCrossConfig {
            alpha: 0.9,
            ..Default::default()
        };
        let mut algo = FedCross::new(fed_config, template.params_flat(), 4);
        let mut config = quick_sim_config(14, 4);
        config.local.epochs = 2;
        config.local.lr = 0.1;
        config.eval_every = 2;
        let sim = Simulation::new(config, &data, template);
        let result = sim.run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_acc + 0.1
                && result.history.best_accuracy() > 0.2,
            "FedCross should learn: best {} vs init {}",
            result.history.best_accuracy(),
            init_acc
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_k_and_clients_per_round_panics() {
        let (data, template) = tiny_setup(3, 5);
        let mut algo = FedCross::new(FedCrossConfig::default(), template.params_flat(), 3);
        // clients_per_round = 4 but only 3 middleware models.
        let sim = Simulation::new(quick_sim_config(1, 4), &data, template);
        let _ = sim.run(&mut algo);
    }

    #[test]
    fn acceleration_variants_run_and_keep_learning() {
        let (data, template) = tiny_setup(4, 4);
        for acceleration in [
            Acceleration::PropellerModels {
                propellers: 2,
                until_round: 3,
            },
            Acceleration::DynamicAlpha {
                start_alpha: 0.5,
                until_round: 3,
            },
            Acceleration::PropellerThenDynamic {
                propellers: 2,
                switch_round: 2,
                until_round: 4,
            },
        ] {
            let config = FedCrossConfig {
                acceleration,
                ..Default::default()
            };
            let mut algo = FedCross::new(config, template.params_flat(), 4);
            let sim = Simulation::new(quick_sim_config(5, 4), &data, template.clone_model());
            let result = sim.run(&mut algo);
            assert!(result.history.final_accuracy() >= 0.0);
            assert!(!algo.global_params().iter().any(|p| !p.is_finite()));
        }
    }

    #[test]
    fn comm_overhead_is_low_like_fedavg() {
        // Table I: FedCross exchanges only models, no auxiliary payload.
        let (data, template) = tiny_setup(5, 4);
        let mut algo = FedCross::new(FedCrossConfig::default(), template.params_flat(), 4);
        let params = template.param_count();
        let sim = Simulation::new(quick_sim_config(2, 4), &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(
            result.comm.overhead_class(params),
            fedcross_flsim::CommOverheadClass::Low
        );
        // 2 rounds × 4 clients = 8 model round trips.
        assert_eq!(result.comm.client_contacts, 8);
    }
}
