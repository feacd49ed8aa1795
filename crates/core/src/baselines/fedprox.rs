//! FedProx (Li et al. 2020): FedAvg with a proximal term on the local loss.

use crate::server::GlobalModel;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport, TrainJob};

/// FedProx: each client minimises `f_i(w) + (μ/2)·||w - w_global||²`, which
/// adds `μ·(w - w_global)` to every gradient. The server aggregation is the
/// same as FedAvg, so the communication profile is identical (Table I: Low).
pub struct FedProx {
    global: GlobalModel,
    mu: f32,
}

impl FedProx {
    /// Creates FedProx with proximal coefficient `mu` (the paper tunes μ per
    /// dataset from {0.001, 0.01, 0.1, 1.0}).
    pub fn new(init_params: Vec<f32>, mu: f32) -> Self {
        let global = GlobalModel::new(init_params);
        assert!(mu >= 0.0, "mu must be non-negative");
        Self { global, mu }
    }

    /// The proximal coefficient μ.
    pub fn mu(&self) -> f32 {
        self.mu
    }
}

impl FederatedAlgorithm for FedProx {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!("fedprox(mu={})", self.mu)
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let mu = self.mu;
        // The proximal anchor is the dispatched global model itself; sharing
        // the same ParamBlock costs one reference bump per client.
        let updates = self.global.dispatch_jobs(ctx, &selected, |client, model| {
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            let anchor = model.clone();
            TrainJob {
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                correction: Some(Box::new(move |i, w, g| g + mu * (w - anchor[i]))),
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                ..TrainJob::plain(client, model.clone())
            }
        });
        self.global.weighted_mean(&updates);
        RoundReport::from_updates(&updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // μ lives in the constructor (and in the name, which resume checks);
        // the global model is the whole cross-round state.
        Ok(self.global.snapshot())
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.global.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::fedavg::FedAvg;
    use crate::baselines::test_support::{quick_config, tiny_image_setup};
    use fedcross_flsim::Simulation;
    use fedcross_nn::params::euclidean;

    #[test]
    fn fedprox_runs_with_low_comm_overhead() {
        let (data, template) = tiny_image_setup(0, 6);
        let mut algo = FedProx::new(template.params_flat(), 0.01);
        let params = template.param_count();
        let sim = Simulation::new(quick_config(3, 3), &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 3);
        assert_eq!(
            result.comm.overhead_class(params),
            fedcross_flsim::CommOverheadClass::Low
        );
        assert!(algo.name().contains("0.01"));
    }

    #[test]
    fn large_mu_keeps_the_global_model_closer_to_initialisation() {
        let (data, template) = tiny_image_setup(1, 6);
        let init = template.params_flat();

        let run = |mu: f32| {
            let (data, template) = (data.clone(), template.clone_model());
            let mut algo = FedProx::new(init.clone(), mu);
            let sim = Simulation::new(quick_config(3, 3), &data, template);
            let _ = sim.run(&mut algo);
            euclidean(&algo.global_params(), &init)
        };
        let tight = run(10.0);
        let loose = run(0.0);
        assert!(
            tight < loose,
            "mu=10 distance {tight} should be below mu=0 distance {loose}"
        );
    }

    #[test]
    fn mu_zero_matches_fedavg_exactly() {
        let (data, template) = tiny_image_setup(2, 6);
        let init = template.params_flat();

        let mut prox = FedProx::new(init.clone(), 0.0);
        let sim1 = Simulation::new(quick_config(2, 3), &data, template.clone_model());
        let _ = sim1.run(&mut prox);

        let mut avg = FedAvg::new(init);
        let sim2 = Simulation::new(quick_config(2, 3), &data, template);
        let _ = sim2.run(&mut avg);

        let d = euclidean(&prox.global_params(), &avg.global_params());
        assert!(d < 1e-4, "FedProx(mu=0) diverged from FedAvg by {d}");
    }

    #[test]
    #[should_panic]
    fn negative_mu_is_rejected() {
        let _ = FedProx::new(vec![0.0], -0.1);
    }
}
