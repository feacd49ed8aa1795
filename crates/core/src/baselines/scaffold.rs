//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging with
//! server and client control variates.

use crate::server::GlobalModel;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport, TrainJob};
use fedcross_nn::params::{add_scaled, average, average_into, difference};
use std::collections::BTreeMap;
use std::sync::Arc;

/// SCAFFOLD corrects the "client drift" of local SGD by adding `c - c_i` to
/// every local gradient, where `c` is a server control variate and `c_i` the
/// client's own. Both have the size of the model and travel with it each
/// round, which is why Table I classifies SCAFFOLD as high communication
/// overhead.
pub struct Scaffold {
    global: GlobalModel,
    server_control: Vec<f32>,
    // BTreeMap, not HashMap: snapshot_state iterates this table, and D001
    // requires every iterated map on a trajectory path to have a fixed order.
    client_controls: BTreeMap<usize, Vec<f32>>,
    total_clients: usize,
}

impl Scaffold {
    /// Creates SCAFFOLD from the initial global model. `total_clients` is the
    /// federation size `N`, used in the server control-variate update.
    pub fn new(init_params: Vec<f32>, total_clients: usize) -> Self {
        let dim = init_params.len();
        let global = GlobalModel::new(init_params);
        assert!(total_clients > 0, "need at least one client");
        Self {
            global,
            server_control: vec![0.0; dim],
            client_controls: BTreeMap::new(),
            total_clients,
        }
    }

    /// The server control variate `c`.
    pub fn server_control(&self) -> &[f32] {
        &self.server_control
    }

    /// The control variate of a specific client, if it has participated.
    pub fn client_control(&self, client: usize) -> Option<&Vec<f32>> {
        self.client_controls.get(&client)
    }
}

impl FederatedAlgorithm for Scaffold {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        "scaffold".to_string()
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let dim = self.global.params().len();
        let local = ctx.local_config();

        // Build one job per client with the correction g - c_i + c.
        // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
        let server_c = Arc::new(self.server_control.clone());
        let controls = &self.client_controls;
        let updates = self.global.dispatch_jobs(ctx, &selected, |client, model| {
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            let c_i = Arc::new(
                controls
                    .get(&client)
                    // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                    .cloned()
                    // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                    .unwrap_or_else(|| vec![0.0; dim]),
            );
            let c = Arc::clone(&server_c);
            TrainJob {
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                correction: Some(Box::new(move |i, _w, g| g - c_i[i] + c[i])),
                // The control variate travels both ways alongside the model.
                extra_download: dim,
                extra_upload: dim,
                // Reference bump, not an O(d) copy.
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                ..TrainJob::plain(client, model.clone())
            }
        });

        // Client control-variate update (option II of the paper):
        // c_i⁺ = c_i - c + (x - y_i) / (K·η_l), then Δc_i = c_i⁺ - c_i.
        // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
        let mut control_deltas: Vec<Vec<f32>> = Vec::with_capacity(updates.len());
        for update in &updates {
            let old_c_i = self
                .client_controls
                .get(&update.client)
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                .cloned()
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                .unwrap_or_else(|| vec![0.0; dim]);
            let steps = update.steps.max(1) as f32;
            let scale = 1.0 / (steps * local.lr);
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            let mut new_c_i = old_c_i.clone();
            // new_c_i = old_c_i - c + (x - y_i) * scale
            add_scaled(&mut new_c_i, &self.server_control, -1.0);
            let drift = difference(self.global.params(), &update.params);
            add_scaled(&mut new_c_i, &drift, scale);
            control_deltas.push(difference(&new_c_i, &old_c_i));
            self.client_controls.insert(update.client, new_c_i);
        }

        // Server updates: x ← x + (1/|S|) Σ (y_i - x);  c ← c + (|S|/N)·avg(Δc_i).
        if !updates.is_empty() {
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            let uploaded: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
            average_into(self.global.params_mut(), &uploaded);
            let mean_delta = average(&control_deltas);
            let fraction = updates.len() as f32 / self.total_clients as f32;
            add_scaled(&mut self.server_control, &mean_delta, fraction);
        }
        RoundReport::from_updates(&updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // A lossy restart would zero every control variate and silently
        // change the drift correction of all future rounds, so both the
        // server control and the full per-client table are part of the state
        // (BTreeMap iteration yields the table sorted by client id, so the
        // snapshot file is deterministic).
        Ok(self
            .global
            .snapshot()
            .with_aux("server_control", self.server_control.clone())
            .with_client_table(
                "client_controls",
                self.client_controls
                    .iter()
                    .map(|(&client, control)| (client, control.clone()))
                    .collect(),
            ))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let dim = self.global.params().len();
        let server_control = state.expect_aux("server_control", dim)?;
        let table = state.expect_client_table("client_controls", self.total_clients, dim)?;
        self.global.restore(state)?;
        self.server_control = server_control.to_vec();
        self.client_controls = table
            .iter()
            .map(|(client, control)| (*client, control.clone()))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{quick_config, tiny_image_setup};
    use fedcross_data::ClientDataSource;
    use fedcross_flsim::Simulation;

    #[test]
    fn scaffold_runs_and_has_high_comm_overhead() {
        let (data, template) = tiny_image_setup(0, 6);
        let model_params = template.param_count();
        let mut algo = Scaffold::new(template.params_flat(), data.num_clients());
        let sim = Simulation::new(quick_config(3, 3), &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 3);
        // Table I: SCAFFOLD ships 2K control variates on top of 2K models.
        assert_eq!(
            result.comm.overhead_class(model_params),
            fedcross_flsim::CommOverheadClass::High
        );
        assert!(result.comm.extra_download > 0 && result.comm.extra_upload > 0);
    }

    #[test]
    fn control_variates_become_nonzero_after_participation() {
        let (data, template) = tiny_image_setup(1, 5);
        let mut algo = Scaffold::new(template.params_flat(), data.num_clients());
        let sim = Simulation::new(quick_config(4, 3), &data, template);
        let _ = sim.run(&mut algo);
        // At least one client control variate exists and is non-zero.
        assert!(!algo.client_controls.is_empty());
        let some_nonzero = algo
            .client_controls
            .values()
            .any(|c| c.iter().any(|&v| v.abs() > 1e-12));
        assert!(some_nonzero, "client control variates never moved");
        // The server control variate also moved.
        assert!(algo.server_control().iter().any(|&v| v.abs() > 1e-12));
    }

    #[test]
    fn scaffold_learns_above_chance() {
        let (data, template) = tiny_image_setup(2, 6);
        let mut algo = Scaffold::new(template.params_flat(), data.num_clients());
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
    fn unseen_client_has_no_control_variate() {
        let algo = Scaffold::new(vec![0.0; 4], 10);
        assert!(algo.client_control(3).is_none());
        assert_eq!(algo.server_control(), &[0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn zero_clients_is_rejected() {
        let _ = Scaffold::new(vec![0.0], 0);
    }
}
