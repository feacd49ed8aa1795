//! Differentially-private and secure-aggregation FL algorithms.
//!
//! These are drop-in [`FederatedAlgorithm`] implementations, so the same
//! [`fedcross_flsim::Simulation`] that drives the paper's six methods can
//! sweep the privacy/utility trade-off (`ablation_privacy` in the benchmark
//! harness):
//!
//! * [`DpFedAvg`] — FedAvg with per-client delta clipping and Gaussian noise,
//!   in either the central or local placement,
//! * [`DpFedCross`] — FedCross (Algorithm 1) with each uploaded middleware
//!   delta clipped and noised before cross-aggregation, demonstrating the
//!   paper's Section IV-F1 claim that FedCross composes with FedAvg-style
//!   privacy mechanisms,
//! * [`SecureAggFedAvg`] — FedAvg over pairwise-masked uploads; the server
//!   only observes masked vectors yet recovers the exact average.
//!
//! All three are **resumable**: every noise/mask draw derives from a
//! [`RoundStreams`] keyed by `(domain, seed, absolute round, slot or client)`
//! — never from a consumed RNG — so checkpoint/restore reproduces the
//! uninterrupted trajectory bitwise (pinned by `tests/tests/resume_plane.rs`),
//! and the DP noise a client receives is independent of the order in which
//! uploads arrive.

use crate::accountant::RdpAccountant;
use crate::mechanism::{privatize_aggregate, privatize_client_delta, DpConfig};
use crate::secure_agg::{aggregate_masked, PairwiseMasker};
use fedcross::selection::{SelectionStrategy, SimilarityMeasure};
use fedcross::server::{slot_order, GlobalModel, Middleware};
use fedcross_flsim::checkpoint::{
    decode_f64, decode_u64, encode_f64, encode_u64, AlgorithmState, StateError,
};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_flsim::streams::{RoundStreams, StreamDomain};
use fedcross_nn::params::{add_scaled, difference, ParamBlock};
use std::borrow::Borrow;

/// Name of the [`AlgorithmState`] record holding an [`RdpAccountant`]'s
/// spent budget: `[rounds, sampling_rate, spent_rdp per order...]`.
const ACCOUNTANT_RECORD: &str = "rdp_accountant";

/// Encodes an accountant's consumed state for a checkpoint (everything a
/// [`RdpAccountant::restore`] needs besides the configured noise multiplier,
/// which the algorithm's own `DpConfig` supplies).
fn accountant_record(accountant: &RdpAccountant) -> Vec<String> {
    let mut record = vec![
        encode_u64(accountant.rounds()),
        encode_f64(accountant.sampling_rate()),
    ];
    record.extend(accountant.spent_rdp().iter().copied().map(encode_f64));
    record
}

/// Adds `accountant`'s record to `state` once the first round has created it.
fn with_accountant(state: AlgorithmState, accountant: &Option<RdpAccountant>) -> AlgorithmState {
    match accountant {
        Some(accountant) => state.with_record(ACCOUNTANT_RECORD, accountant_record(accountant)),
        None => state,
    }
}

/// Restores an accountant from [`accountant_record`]'s encoding. `Ok(None)`
/// when the state has no accountant record (a checkpoint taken before the
/// first round, where the accountant does not exist yet).
fn restore_accountant(
    state: &AlgorithmState,
    noise_multiplier: f32,
) -> Result<Option<RdpAccountant>, StateError> {
    if state.record(ACCOUNTANT_RECORD).is_none() {
        return Ok(None);
    }
    let record = state.expect_record(ACCOUNTANT_RECORD, 2 + RdpAccountant::orders().len())?;
    let rounds = decode_u64(&record[0])?;
    let sampling_rate = decode_f64(&record[1])?;
    let spent: Result<Vec<f64>, StateError> =
        record[2..].iter().map(|text| decode_f64(text)).collect();
    RdpAccountant::restore(noise_multiplier as f64, sampling_rate, rounds, spent?)
        .map(Some)
        .map_err(|message| StateError::new(format!("accountant record: {message}")))
}

/// FedAvg with differentially-private client updates.
///
/// Each round: dispatch the global model, clip every client's parameter delta
/// to the configured norm, (locally noise it if the placement is local),
/// average the deltas, (centrally noise the average if the placement is
/// central) and apply the result to the global model. An [`RdpAccountant`] is
/// advanced every round — at the round's **actual** participation rate, so
/// availability dropout is accounted rather than the first round's frozen
/// `K / N` — and the spent (ε, δ) can be read off at any time.
///
/// **Resumable.** All noise derives from [`RoundStreams`] — per-client noise
/// from `(DpClientNoise, noise_seed, round, client id)`, the central
/// perturbation from `(DpCentralNoise, noise_seed, round)` — so there is no
/// consumed RNG to persist and round `R`'s noise is the same after a restart.
/// Keying by client id also makes the noise (and the canonical client-id
/// aggregation order) independent of upload arrival order. The cross-round
/// state is the global model plus the accountant's spent budget, both
/// captured by [`FederatedAlgorithm::snapshot_state`].
pub struct DpFedAvg {
    global: GlobalModel,
    config: DpConfig,
    client_noise: RoundStreams,
    central_noise: RoundStreams,
    accountant: Option<RdpAccountant>,
    /// One client's privatised delta.
    delta: Vec<f32>,
    /// The mean of the round's privatised deltas.
    mean: Vec<f32>,
}

impl DpFedAvg {
    /// Creates DP-FedAvg from the shared initial model. `noise_seed` roots the
    /// round-derived privacy noise streams (kept separate from the
    /// simulation's client selection stream so noise does not perturb the
    /// sampling).
    pub fn new(init_params: Vec<f32>, config: DpConfig, noise_seed: u64) -> Self {
        Self {
            global: GlobalModel::new(init_params),
            config,
            client_noise: RoundStreams::new(StreamDomain::DpClientNoise, noise_seed),
            central_noise: RoundStreams::new(StreamDomain::DpCentralNoise, noise_seed),
            accountant: None,
            delta: Vec::new(),
            mean: Vec::new(),
        }
    }

    /// The privacy configuration.
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// The (ε, δ)-DP guarantee spent so far, or `None` before the first round.
    pub fn epsilon(&self, delta: f64) -> Option<f64> {
        self.accountant.as_ref().map(|a| a.epsilon(delta))
    }

    /// The underlying accountant, once the first round has fixed the nominal
    /// sampling rate.
    pub fn accountant(&self) -> Option<&RdpAccountant> {
        self.accountant.as_ref()
    }

    fn ensure_accountant(&mut self, clients_per_round: usize, total_clients: usize) {
        if self.accountant.is_none() {
            let q = clients_per_round as f32 / total_clients.max(1) as f32;
            self.accountant = Some(RdpAccountant::new(
                self.config.noise_multiplier,
                q.clamp(f32::MIN_POSITIVE, 1.0),
            ));
        }
    }

    /// The server half of one round: privatise `updates` against the current
    /// global model, apply the DP-FedAvg estimator and record the round's
    /// actual participation in the accountant.
    ///
    /// Public so the order-independence contract is testable: the result is
    /// a function of the *set* of updates — processing is canonically ordered
    /// by client id and every noise draw is keyed by `(round, client)`, so
    /// any permutation of `updates` produces a bitwise-identical model.
    pub fn apply_updates(
        &mut self,
        round: usize,
        num_clients: usize,
        updates: &[LocalUpdate],
    ) -> RoundReport {
        if updates.is_empty() {
            return RoundReport::default();
        }
        // alloc: bounded — cohort-sized aggregation staging, once per round
        let mut ordered: Vec<&LocalUpdate> = updates.iter().collect();
        ordered.sort_by_key(|update| update.client);

        // Clip (and locally noise) every client's delta against the
        // dispatched global model, each from its own (round, client) stream,
        // and fold it into the unweighted mean of bounded deltas (the
        // DP-FedAvg estimator) as `average_into` would.
        let dim = self.global.params().len();
        self.delta.resize(dim, 0.0);
        self.mean.resize(dim, 0.0);
        self.mean.fill(0.0);
        let scale = 1.0 / ordered.len() as f32;
        let round_noise = self.client_noise.round(round);
        for update in &ordered {
            let (upload, global) = (update.params.iter(), self.global.params().iter());
            for ((d, u), g) in self.delta.iter_mut().zip(upload).zip(global) {
                *d = u - g;
            }
            let mut rng = round_noise.stream(update.client);
            privatize_client_delta(&mut self.delta, &self.config, &mut rng);
            add_scaled(&mut self.mean, &self.delta, scale);
        }

        // The central perturbation — calibrated to the returned count — if
        // configured.
        let mut central_rng = self.central_noise.round(round).server();
        privatize_aggregate(
            &mut self.mean,
            &self.config,
            ordered.len(),
            &mut central_rng,
        );
        add_scaled(self.global.params_mut(), &self.mean, 1.0);

        if let Some(accountant) = self.accountant.as_mut() {
            accountant.step_with_rate(ordered.len() as f64 / num_clients.max(1) as f64);
        }
        RoundReport::from_updates(&ordered)
    }
}

impl FederatedAlgorithm for DpFedAvg {
    fn name(&self) -> String {
        // The noise seed is part of the name: round-derived noise makes the
        // trajectory a function of the seed, so a resume under a different
        // seed would silently splice two noise sequences — the name check
        // rejects it (same convention as SecureAggFedAvg's mask seed).
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "dp-fedavg(C={}, z={}, {}, seed={})",
            self.config.clip_norm,
            self.config.noise_multiplier,
            self.config.placement,
            self.client_noise.base_seed()
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        self.ensure_accountant(ctx.clients_per_round(), ctx.num_clients());
        let selected = ctx.select_clients();
        let updates = self.global.dispatch(ctx, &selected);
        self.apply_updates(round, ctx.num_clients(), &updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        Ok(with_accountant(self.global.snapshot(), &self.accountant))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let accountant = restore_accountant(state, self.config.noise_multiplier)?;
        self.global.restore(state)?;
        self.accountant = accountant;
        Ok(())
    }
}

/// Configuration of [`DpFedCross`]: the FedCross hyper-parameters plus the
/// privacy mechanism applied to every uploaded middleware delta.
#[derive(Debug, Clone, Copy)]
pub struct DpFedCrossConfig {
    /// Cross-aggregation weight α (Section III-B2).
    pub alpha: f32,
    /// Collaborative-model selection strategy.
    pub strategy: SelectionStrategy,
    /// Similarity measure for the similarity-based strategies.
    pub measure: SimilarityMeasure,
    /// Privacy mechanism applied to uploaded deltas.
    pub dp: DpConfig,
}

impl Default for DpFedCrossConfig {
    fn default() -> Self {
        Self {
            alpha: 0.9,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
            dp: DpConfig::default(),
        }
    }
}

/// FedCross with differentially-private middleware uploads.
///
/// The training scheme is Algorithm 1 of the paper; the only change is that
/// every uploaded model is replaced by `dispatched + privatize(trained −
/// dispatched)` before collaborative-model selection and cross-aggregation,
/// exactly where DP-FedAvg privatises its client deltas.
///
/// **Resumable**, like [`DpFedAvg`]: noise derives from [`RoundStreams`]
/// keyed by `(round, middleware slot)`, uploads are processed in canonical
/// slot order, and the accountant's spent budget travels in the checkpoint.
/// Central noise and the accountant are calibrated to the number of uploads
/// that actually **returned** (dropout shrinks both), not the configured `K`.
pub struct DpFedCross {
    config: DpFedCrossConfig,
    middleware: Middleware,
    client_noise: RoundStreams,
    central_noise: RoundStreams,
    accountant: Option<RdpAccountant>,
}

impl DpFedCross {
    /// Creates DP-FedCross with `k` middleware models initialised from the
    /// shared initial parameters.
    pub fn new(config: DpFedCrossConfig, init_params: Vec<f32>, k: usize, noise_seed: u64) -> Self {
        Self {
            config,
            middleware: Middleware::new(
                init_params,
                k,
                config.alpha,
                config.strategy,
                config.measure,
            ),
            client_noise: RoundStreams::new(StreamDomain::DpClientNoise, noise_seed),
            central_noise: RoundStreams::new(StreamDomain::DpCentralNoise, noise_seed),
            accountant: None,
        }
    }

    /// The current middleware models (for analysis and tests).
    pub fn middleware(&self) -> &[ParamBlock] {
        self.middleware.models()
    }

    /// The (ε, δ)-DP guarantee spent so far, or `None` before the first round.
    pub fn epsilon(&self, delta: f64) -> Option<f64> {
        self.accountant.as_ref().map(|a| a.epsilon(delta))
    }

    /// The underlying accountant, once the first round has fixed the nominal
    /// sampling rate.
    pub fn accountant(&self) -> Option<&RdpAccountant> {
        self.accountant.as_ref()
    }

    fn ensure_accountant(&mut self, clients_per_round: usize, total_clients: usize) {
        if self.accountant.is_none() {
            let q = clients_per_round as f32 / total_clients.max(1) as f32;
            self.accountant = Some(RdpAccountant::new(
                self.config.dp.noise_multiplier,
                q.clamp(f32::MIN_POSITIVE, 1.0),
            ));
        }
    }

    /// The server half of one round: map every upload back to the middleware
    /// slot it was dispatched from (`selected[slot]` is the client trained on
    /// slot `slot`), privatise it, cross-aggregate, and record the round's
    /// actual participation in the accountant.
    ///
    /// Public so the order-independence contract is testable: uploads are
    /// processed in canonical slot order and every noise draw is keyed by
    /// `(round, slot)`, so any permutation of `updates` produces bitwise
    /// identical middleware.
    pub fn apply_updates(
        &mut self,
        round: usize,
        num_clients: usize,
        selected: &[usize],
        updates: &[LocalUpdate],
    ) -> RoundReport {
        let (slots, ordered) = slot_order(selected, updates);
        self.privatize_and_fuse(round, num_clients, &slots, &ordered)
    }

    /// Privatises the deltas of slot-ordered uploads against the models their
    /// slots dispatched, which the middleware stages, then cross-aggregates
    /// the rebuilt candidates and advances the accountant. Missing slots
    /// (dropped clients) simply skip the round.
    fn privatize_and_fuse<U: Borrow<LocalUpdate>>(
        &mut self,
        round: usize,
        num_clients: usize,
        slots: &[usize],
        ordered: &[U],
    ) -> RoundReport {
        if ordered.is_empty() {
            return RoundReport::default();
        }
        // Each delta draws from its own (round, slot) stream.
        let participants = ordered.len();
        let round_client_noise = self.client_noise.round(round);
        let round_central_noise = self.central_noise.round(round);
        let deltas = self.middleware.stage_deltas(slots, ordered);
        for (delta, &slot) in deltas.iter_mut().zip(slots) {
            let mut rng = round_client_noise.stream(slot);
            privatize_client_delta(delta, &self.config.dp, &mut rng);
            // Central placement: each *returned* middleware stream receives
            // noise of std z·C/participants, so the released global model
            // (the average of the updated middleware models) carries the
            // same perturbation magnitude as central DP-FedAvg over the same
            // participants. Calibrating to the configured K when clients
            // dropped out would under-noise the release.
            let mut rng = round_central_noise.stream(slot);
            privatize_aggregate(delta, &self.config.dp, participants, &mut rng);
        }
        self.middleware.fuse_staged(round, slots);

        if let Some(accountant) = self.accountant.as_mut() {
            accountant.step_with_rate(participants as f64 / num_clients.max(1) as f64);
        }
        RoundReport::from_updates(ordered)
    }
}

impl FederatedAlgorithm for DpFedCross {
    fn name(&self) -> String {
        // Seed in the name for the same reason as DpFedAvg: a resume under a
        // different noise seed cannot be bitwise faithful and must be
        // rejected by the name check.
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "dp-fedcross(alpha={}, C={}, z={}, {}, seed={})",
            self.config.alpha,
            self.config.dp.clip_norm,
            self.config.dp.noise_multiplier,
            self.config.dp.placement,
            self.client_noise.base_seed()
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        self.ensure_accountant(self.middleware.models().len(), ctx.num_clients());
        let (slots, updates) = self.middleware.dispatch(ctx);
        self.privatize_and_fuse(round, ctx.num_clients(), &slots, &updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.middleware.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        let state = self.middleware.snapshot();
        Ok(with_accountant(state, &self.accountant))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let accountant = restore_accountant(state, self.config.dp.noise_multiplier)?;
        self.middleware.restore(state)?;
        self.accountant = accountant;
        Ok(())
    }
}

/// FedAvg over pairwise-masked uploads (secure-aggregation simulation).
///
/// Clients upload `delta + mask` where the pairwise masks cancel in the sum;
/// the server averages the masked uploads and obtains exactly the plain
/// FedAvg average without ever observing an individual client's delta.
///
/// Resumable: the per-round [`PairwiseMasker`] seed is derived through
/// [`RoundStreams`] from `(SecureAggMask, mask_seed, round)` — an absolute
/// round index, never a consumed stream — so the global model is the entire
/// cross-round state. The earlier `mask_seed + round` arithmetic is gone: it
/// let runs with adjacent seeds replay each other's mask streams (seed 5 at
/// round 3 aliased seed 6 at round 2); the fork derivation mixes the seed
/// through a SplitMix64-style finaliser instead. Checkpoints written under
/// the additive derivation carry the old algorithm name and are **rejected
/// by design** — resuming them would splice two different mask sequences.
pub struct SecureAggFedAvg {
    global: GlobalModel,
    mask_scale: f32,
    mask_streams: RoundStreams,
}

impl SecureAggFedAvg {
    /// Creates the secure-aggregation FedAvg variant. `mask_scale` sets the
    /// magnitude of the pairwise masks relative to the parameters;
    /// `mask_seed` roots the round-derived mask-seed stream.
    pub fn new(init_params: Vec<f32>, mask_scale: f32, mask_seed: u64) -> Self {
        Self {
            global: GlobalModel::new(init_params),
            mask_scale,
            mask_streams: RoundStreams::new(StreamDomain::SecureAggMask, mask_seed),
        }
    }
}

impl FederatedAlgorithm for SecureAggFedAvg {
    fn name(&self) -> String {
        // mask_seed and the derivation scheme are part of the name: the
        // per-round masks cancel only in exact sequential summation, so a
        // resume under a different seed — or under the pre-fork additive
        // derivation this name deliberately no longer matches — would differ
        // in the low bits. The name check rejects both.
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "secureagg-fedavg(scale={}, seed={}, masks=fork)",
            self.mask_scale,
            self.mask_streams.base_seed()
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        // Dispatch order fixes every client's mask position, so the masked
        // sum cannot depend on upload arrival order.
        let updates = self.global.dispatch(ctx, &selected);
        if updates.is_empty() {
            return RoundReport::default();
        }

        // Client side: compute deltas and mask them pairwise.
        let deltas: Vec<Vec<f32>> = updates
            .iter()
            .map(|update| difference(&update.params, self.global.params()))
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        let masker =
            PairwiseMasker::new(self.mask_streams.round(round).seed(), self.mask_scale);
        let masked = masker.mask_all(&deltas);

        // Server side: only the masked uploads are visible; their sum is exact.
        let sum = aggregate_masked(&masked);
        let scale = 1.0 / masked.len() as f32;
        add_scaled(self.global.params_mut(), &sum, scale);
        RoundReport::from_updates(&updates)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::NoisePlacement;
    use fedcross_nn::params::average;
    use fedcross_tensor::SeededRng;
    use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
    use fedcross_data::{ClientDataSource, Heterogeneity};
    use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
    use fedcross_nn::models::{cnn, CnnConfig};
    use fedcross_nn::Model;

    fn tiny_setup(seed: u64, clients: usize) -> (FederatedDataset, Box<dyn Model>) {
        let mut rng = SeededRng::new(seed);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: clients,
                samples_per_client: 25,
                test_samples: 60,
                ..Default::default()
            },
            Heterogeneity::Iid,
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

    fn quick_config(rounds: usize, k: usize) -> SimulationConfig {
        SimulationConfig {
            rounds,
            clients_per_round: k,
            eval_every: rounds.max(1),
            eval_batch_size: 64,
            local: LocalTrainConfig {
                epochs: 2,
                batch_size: 10,
                lr: 0.1,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            seed: 7,
        }
    }

    #[test]
    fn dp_fedavg_learns_with_modest_noise() {
        let (data, template) = tiny_setup(0, 6);
        let init_acc = fedcross_flsim::EvalWorker::new(template.as_ref())
            .evaluate_params(&template.params_flat(), data.test_set(), 64)
            .accuracy;
        // Modest means noise norm below signal norm: the averaged delta has
        // L2 norm up to C, the central noise vector has norm ≈ z·C/K·√d.
        let config = DpConfig {
            clip_norm: 5.0,
            noise_multiplier: 0.05,
            placement: NoisePlacement::Central,
        };
        let mut algo = DpFedAvg::new(template.params_flat(), config, 11);
        let sim = Simulation::new(quick_config(10, 3), &data, template);
        let result = sim.run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_acc + 0.1,
            "DP-FedAvg should still learn: {} vs init {}",
            result.history.best_accuracy(),
            init_acc
        );
        let epsilon = algo.epsilon(1e-5).expect("accountant initialised");
        assert!(epsilon.is_finite() && epsilon > 0.0);
        assert_eq!(algo.accountant().unwrap().rounds(), 10);
    }

    #[test]
    fn stronger_noise_costs_more_accuracy_and_less_epsilon() {
        let (data, template) = tiny_setup(1, 6);
        let run = |noise_multiplier: f32| {
            let config = DpConfig {
                clip_norm: 2.0,
                noise_multiplier,
                placement: NoisePlacement::Central,
            };
            let mut algo = DpFedAvg::new(template.params_flat(), config, 13);
            let sim = Simulation::new(quick_config(8, 3), &data, template.clone_model());
            let result = sim.run(&mut algo);
            (result.history.best_accuracy(), algo.epsilon(1e-5).unwrap())
        };
        let (acc_low_noise, eps_low_noise) = run(0.1);
        let (acc_high_noise, eps_high_noise) = run(8.0);
        assert!(
            acc_low_noise >= acc_high_noise,
            "more noise should not improve accuracy ({acc_low_noise} vs {acc_high_noise})"
        );
        assert!(
            eps_high_noise < eps_low_noise,
            "more noise must yield a smaller epsilon"
        );
    }

    #[test]
    fn local_placement_runs_and_reports_epsilon() {
        let (data, template) = tiny_setup(2, 6);
        let config = DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.5,
            placement: NoisePlacement::Local,
        };
        let mut algo = DpFedAvg::new(template.params_flat(), config, 17);
        let sim = Simulation::new(quick_config(4, 3), &data, template);
        let result = sim.run(&mut algo);
        assert!(result.history.final_accuracy() >= 0.0);
        assert!(algo.global_params().iter().all(|p| p.is_finite()));
        assert!(algo.epsilon(1e-5).unwrap() > 0.0);
        assert!(algo.name().contains("local"));
    }

    #[test]
    fn dp_fedcross_learns_and_tracks_the_budget() {
        let (data, template) = tiny_setup(3, 8);
        let init_acc = fedcross_flsim::EvalWorker::new(template.as_ref())
            .evaluate_params(&template.params_flat(), data.test_set(), 64)
            .accuracy;
        let config = DpFedCrossConfig {
            alpha: 0.9,
            dp: DpConfig {
                clip_norm: 5.0,
                noise_multiplier: 0.05,
                placement: NoisePlacement::Central,
            },
            ..Default::default()
        };
        let mut algo = DpFedCross::new(config, template.params_flat(), 4, 19);
        let sim = Simulation::new(quick_config(10, 4), &data, template);
        let result = sim.run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_acc + 0.1,
            "DP-FedCross should still learn: {} vs init {}",
            result.history.best_accuracy(),
            init_acc
        );
        assert_eq!(algo.middleware().len(), 4);
        assert!(algo.epsilon(1e-5).unwrap() > 0.0);
    }

    #[test]
    #[should_panic]
    fn dp_fedcross_rejects_invalid_alpha() {
        let config = DpFedCrossConfig {
            alpha: 0.2,
            ..Default::default()
        };
        let _ = DpFedCross::new(config, vec![0.0; 4], 3, 0);
    }

    #[test]
    fn secure_aggregation_matches_plain_fedavg() {
        let (data, template) = tiny_setup(4, 6);
        // Plain FedAvg reference implemented inline over the same engine.
        struct PlainFedAvg {
            global: Vec<f32>,
        }
        impl FederatedAlgorithm for PlainFedAvg {
            fn name(&self) -> String {
                "plain".into()
            }
            fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
                let selected = ctx.select_clients();
                let jobs: Vec<(usize, Vec<f32>)> =
                    selected.iter().map(|&c| (c, self.global.clone())).collect();
                let updates = ctx.local_train_batch(&jobs);
                let params: Vec<&[f32]> =
                    updates.iter().map(|u| u.params.as_slice()).collect();
                self.global = average(&params);
                RoundReport::from_updates(&updates)
            }
            fn global_params_into(&self, out: &mut Vec<f32>) {
                out.clone_from(&self.global);
            }
        }

        let config = quick_config(3, 3);
        let mut plain = PlainFedAvg {
            global: template.params_flat(),
        };
        let plain_result =
            Simulation::new(config, &data, template.clone_model()).run(&mut plain);

        let mut masked = SecureAggFedAvg::new(template.params_flat(), 50.0, 23);
        let masked_result = Simulation::new(config, &data, template).run(&mut masked);

        // Same seed, same schedule: the masked pipeline reproduces the plain
        // average up to floating-point cancellation error.
        let max_diff = plain
            .global_params()
            .iter()
            .zip(masked.global_params())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max)
            ;
        assert!(max_diff < 1e-2, "masked and plain FedAvg diverged by {max_diff}");
        assert!(
            (plain_result.history.final_accuracy() - masked_result.history.final_accuracy()).abs()
                < 0.05
        );
    }
}
