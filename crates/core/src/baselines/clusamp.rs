//! CluSamp (Fraboni et al. 2021): clustered client sampling.
//!
//! Clients are grouped by the similarity of their model updates (the paper
//! uses gradient similarity rather than sample counts, to avoid exposing data
//! distributions), and each round one representative is sampled per cluster.
//! Aggregation is FedAvg; only the *selection* changes, so communication
//! overhead stays Low (Table I).

use crate::server::GlobalModel;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_nn::params::{cosine, difference};

/// The clustered-sampling baseline.
pub struct CluSamp {
    global: GlobalModel,
    /// Last observed update direction (trained − dispatched) per client.
    client_updates: Vec<Option<Vec<f32>>>,
}

impl CluSamp {
    /// Creates CluSamp for a federation of `total_clients` clients.
    pub fn new(init_params: Vec<f32>, total_clients: usize) -> Self {
        let global = GlobalModel::new(init_params);
        assert!(total_clients > 0, "need at least one client");
        Self {
            global,
            client_updates: vec![None; total_clients],
        }
    }

    /// Number of clients whose update direction has been observed so far.
    pub fn observed_clients(&self) -> usize {
        self.client_updates.iter().filter(|u| u.is_some()).count()
    }

    /// Groups the clients with known update directions into `k` clusters by
    /// greedy assignment to the most-similar seed (cosine similarity), and
    /// returns one representative per cluster; clients never seen yet are
    /// grouped separately and sampled uniformly.
    fn cluster_representatives(
        &self,
        k: usize,
        ctx: &mut RoundContext<'_>,
    ) -> Vec<usize> {
        let known: Vec<usize> = (0..self.client_updates.len())
            .filter(|&c| self.client_updates[c].is_some())
            // alloc: bounded — cohort-sized clustering scratch, once per round
            .collect();
        let unknown: Vec<usize> = (0..self.client_updates.len())
            .filter(|&c| self.client_updates[c].is_none())
            // alloc: bounded — cohort-sized clustering scratch, once per round
            .collect();

        // Until enough clients have been observed, fall back to uniform sampling.
        if known.len() < k {
            return ctx.select_clients();
        }

        // Seed the clusters with k spread-out known clients (first come, first
        // seeded is fine since updates are already diverse), then greedily
        // assign every remaining known client to its most similar seed.
        // alloc: bounded — cohort-sized clustering scratch, once per round
        let seeds: Vec<usize> = known.iter().take(k).copied().collect();
        // alloc: bounded — cohort-sized clustering scratch, once per round
        let mut clusters: Vec<Vec<usize>> = seeds.iter().map(|&s| vec![s]).collect();
        for &client in known.iter().skip(k) {
            let update = self.client_updates[client].as_ref().expect("known client");
            let mut best = 0usize;
            let mut best_sim = f32::NEG_INFINITY;
            for (ci, &seed) in seeds.iter().enumerate() {
                let seed_update = self.client_updates[seed].as_ref().expect("seeded client");
                let sim = cosine(update, seed_update);
                if sim > best_sim {
                    best_sim = sim;
                    best = ci;
                }
            }
            clusters[best].push(client);
        }
        // Give unseen clients a chance by spreading them across clusters.
        for (i, &client) in unknown.iter().enumerate() {
            clusters[i % k].push(client);
        }

        // One uniformly sampled representative per cluster.
        clusters
            .iter()
            .map(|members| members[ctx.rng_mut().below(members.len())])
            // alloc: bounded — cohort-sized clustering scratch, once per round
            .collect()
    }
}

impl FederatedAlgorithm for CluSamp {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        "clusamp".to_string()
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let k = ctx.clients_per_round();
        let selected = self.cluster_representatives(k, ctx);
        let updates = self.global.dispatch(ctx, &selected);
        // Remember each participant's update direction for future clustering.
        for update in &updates {
            self.client_updates[update.client] =
                Some(difference(&update.params, self.global.params()));
        }
        self.global.weighted_mean(&updates);
        RoundReport::from_updates(&updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // Losing the per-client update directions would silently fall back to
        // uniform sampling after a restart (the `known.len() < k` path), so
        // the observed directions are part of the state.
        Ok(self.global.snapshot().with_client_table(
            "client_updates",
            self.client_updates
                .iter()
                .enumerate()
                .filter_map(|(client, update)| update.clone().map(|u| (client, u)))
                .collect(),
        ))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let dim = self.global.params().len();
        let total_clients = self.client_updates.len();
        let table = state.expect_client_table("client_updates", total_clients, dim)?;
        self.global.restore(state)?;
        self.client_updates = vec![None; total_clients];
        for (client, update) in table {
            self.client_updates[*client] = Some(update.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{quick_config, tiny_image_setup};
    use fedcross_flsim::Simulation;

    #[test]
    fn clusamp_runs_with_low_comm_overhead() {
        let (data, template) = tiny_image_setup(0, 8);
        let model_params = template.param_count();
        let mut algo = CluSamp::new(template.params_flat(), data.num_clients());
        let sim = Simulation::new(quick_config(4, 3), &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 4);
        assert_eq!(
            result.comm.overhead_class(model_params),
            fedcross_flsim::CommOverheadClass::Low
        );
    }

    #[test]
    fn update_directions_accumulate_over_rounds() {
        let (data, template) = tiny_image_setup(1, 8);
        let mut algo = CluSamp::new(template.params_flat(), data.num_clients());
        assert_eq!(algo.observed_clients(), 0);
        let sim = Simulation::new(quick_config(5, 3), &data, template);
        let _ = sim.run(&mut algo);
        assert!(
            algo.observed_clients() >= 3,
            "observed only {} clients",
            algo.observed_clients()
        );
    }

    #[test]
    fn clusamp_learns_above_chance() {
        let (data, template) = tiny_image_setup(2, 6);
        let mut algo = CluSamp::new(template.params_flat(), data.num_clients());
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
    fn representatives_are_valid_and_distinct_once_clusters_exist() {
        let (data, template) = tiny_image_setup(3, 10);
        let mut algo = CluSamp::new(template.params_flat(), data.num_clients());
        let sim = Simulation::new(quick_config(6, 4), &data, template);
        let _ = sim.run(&mut algo);
        // After several rounds the per-client update table holds valid vectors.
        for update in algo.client_updates.iter().flatten() {
            assert_eq!(update.len(), algo.global.params().len());
            assert!(update.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic]
    fn zero_clients_is_rejected() {
        let _ = CluSamp::new(vec![0.0], 0);
    }
}
