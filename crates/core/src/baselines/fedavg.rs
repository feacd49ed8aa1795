//! FedAvg (McMahan et al. 2017): the classic one-to-multi baseline.

use crate::server::GlobalModel;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};

/// Federated Averaging: dispatch the single global model to `K` selected
/// clients, then replace it with the sample-count-weighted average of their
/// locally trained models.
///
/// The round is the shared [`GlobalModel`] skeleton: dispatch is a reference
/// bump per client, and the aggregation writes the new average into the
/// retired global buffer in place.
pub struct FedAvg {
    global: GlobalModel,
}

impl FedAvg {
    /// Creates FedAvg from the initial global model parameters.
    pub fn new(init_params: Vec<f32>) -> Self {
        Self {
            global: GlobalModel::new(init_params),
        }
    }

    /// The current global model parameters.
    pub fn global(&self) -> &[f32] {
        self.global.params()
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        "fedavg".to_string()
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let updates = self.global.dispatch(ctx, &selected);
        // Every selected client may have dropped out (possible under an
        // availability model); the global model then carries over.
        self.global.weighted_mean(&updates);
        RoundReport::from_updates(&updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // The global model is the whole training state (reference bump).
        Ok(self.global.snapshot())
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.global.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{quick_config, tiny_image_setup};
    use fedcross_flsim::Simulation;
    use fedcross_nn::params::weighted_average_into;

    #[test]
    fn fedavg_runs_and_updates_the_global_model() {
        let (data, template) = tiny_image_setup(0, 6);
        let init = template.params_flat();
        let mut algo = FedAvg::new(init.clone());
        let sim = Simulation::new(quick_config(3, 3), &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 3);
        assert_ne!(algo.global_params(), init);
        assert_eq!(result.comm.client_contacts, 9);
        assert_eq!(
            result.comm.overhead_class(result.model_params),
            fedcross_flsim::CommOverheadClass::Low
        );
    }

    #[test]
    fn fedavg_learns_above_chance() {
        let (data, template) = tiny_image_setup(1, 6);
        let mut algo = FedAvg::new(template.params_flat());
        let mut config = quick_config(10, 3);
        config.local.epochs = 2;
        config.local.lr = 0.1;
        let sim = Simulation::new(config, &data, template);
        let result = sim.run(&mut algo);
        assert!(
            result.history.best_accuracy() > 0.2,
            "best accuracy {}",
            result.history.best_accuracy()
        );
    }

    #[test]
    fn aggregation_weights_by_sample_count() {
        // Construct updates by hand through the public API of
        // weighted_average_into: a client with three times the data pulls the
        // average three times harder.
        let params = vec![vec![0.0f32], vec![4.0f32]];
        let mut avg = [f32::NAN];
        weighted_average_into(&mut avg, &params, &[1.0, 3.0]);
        assert!((avg[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn empty_initialisation_is_rejected() {
        let _ = FedAvg::new(Vec::new());
    }
}
