//! Staleness-aware buffered (FedBuff-style) server algorithms:
//! [`BufferedFedAvg`] and [`BufferedFedCross`].
//!
//! Under `RoundPolicy::Buffered` (see `fedcross_flsim::faults`), uploads
//! arrive some rounds after the round that trained them — slow devices and
//! stalled transports both contribute. These algorithms keep two bounded
//! server-side stores:
//!
//! * **in-flight** — uploads that left their client but have not reached the
//!   server yet (each tagged with the absolute round it becomes due),
//! * **buffer** — arrived uploads awaiting aggregation; once `goal_k` are
//!   buffered, they are folded into the model with the FedBuff staleness
//!   weight `w = 1 / (1 + s)^α`, where `s` is the number of rounds between
//!   training and aggregation, then the buffer is cleared.
//!
//! Uploads are stored as **deltas against the model their client was
//! dispatched** (the FedBuff convention), so a stale upload re-anchors onto
//! the current model instead of dragging it back to an old one. Entries
//! staler than `max_staleness` are discarded unaggregated.
//!
//! The determinism contract matches the robust plane
//! (docs/ROBUSTNESS.md, docs/FAULTS.md):
//!
//! * the server half ([`BufferedFedAvg::absorb`] /
//!   [`BufferedFedCross::absorb`]) dedupes arrivals **by client id** (a
//!   duplicated transport delivery changes nothing) and aggregates in
//!   canonical client/slot order, so the result is a pure function of the
//!   arrival *set* — never of arrival order (pinned by
//!   tests/tests/fault_plane.rs proptests),
//! * both stores ride checkpoint v3 `client_tables`/`records`, so a crash
//!   between arrival and aggregation resumes bitwise
//!   (tests/tests/resume_plane.rs),
//! * staleness weighting is deliberately **unweighted by sample counts**,
//!   like the robust rules: a stale client must not buy weight back by
//!   reporting a large shard.

use crate::selection::{SelectionStrategy, SimilarityMeasure};
use crate::server::{GlobalModel, Middleware};
use fedcross_flsim::checkpoint::{
    decode_f64, decode_u64, encode_f64, encode_u64, AlgorithmState, StateError,
};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport, UploadOutcome};
use fedcross_flsim::faults::RoundPolicy;
use fedcross_nn::params::ParamBlock;

/// One upload travelling through (or parked in) the buffered server plane.
///
/// `delta` is measured against the model the client was dispatched, at the
/// round it trained (`train_round`); the upload reaches the server at
/// `due_round` in `copies` transport copies (2 when duplicated).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedUpload {
    /// Client that produced the upload.
    pub client: usize,
    /// Middleware slot the upload trains (always 0 for [`BufferedFedAvg`]).
    pub slot: usize,
    /// Absolute round the upload was trained in.
    pub train_round: usize,
    /// Absolute round the upload arrives at the server.
    pub due_round: usize,
    /// Transport copies delivered (the server dedupes by client id).
    pub copies: usize,
    /// Trained parameters minus the dispatched parameters.
    pub delta: Vec<f32>,
    /// Local sample count (reporting only — never an aggregation weight).
    pub num_samples: usize,
    /// Mean training loss of the last local epoch.
    pub train_loss: f32,
}

impl BufferedUpload {
    /// The FedBuff staleness weight of this entry when aggregated in
    /// `round`: `1 / (1 + s)^alpha` with `s = round - train_round`.
    pub fn staleness_weight(&self, round: usize, alpha: f32) -> f32 {
        let s = round.saturating_sub(self.train_round) as f32;
        (1.0 + s).powf(-alpha)
    }
}

/// Reads the buffered policy parameters off the round context; any other
/// policy degenerates to "aggregate every round, nothing is ever stale".
fn policy_params(ctx: &RoundContext<'_>) -> (usize, usize) {
    match ctx.round_policy() {
        RoundPolicy::Buffered {
            goal_k,
            max_staleness,
        } => (goal_k, max_staleness),
        _ => (1, 0),
    }
}

/// Merges `arrivals` into `buffer`, deduping by client id: the freshest
/// entry (largest `train_round`) wins; an equally fresh entry is a transport
/// duplicate with identical content, so the incumbent stays. Both rules are
/// insertion-order independent.
fn merge_arrivals(buffer: &mut Vec<BufferedUpload>, arrivals: Vec<BufferedUpload>) {
    for arrival in arrivals {
        match buffer.iter_mut().find(|b| b.client == arrival.client) {
            Some(entry) => {
                if arrival.train_round > entry.train_round {
                    *entry = arrival;
                }
            }
            None => buffer.push(arrival),
        }
    }
}

/// Builds a round report over `entries` in their current (canonical) order,
/// mirroring `RoundReport::from_updates`'s summation order.
fn report_from(entries: &[BufferedUpload]) -> RoundReport {
    if entries.is_empty() {
        return RoundReport::default();
    }
    RoundReport {
        participants: entries.len(),
        mean_train_loss: entries.iter().map(|e| e.train_loss).sum::<f32>()
            / entries.len() as f32,
        total_samples: entries.iter().map(|e| e.num_samples).sum(),
    }
}

/// Serialises one pending store (in-flight or buffer) into a checkpoint
/// state: the deltas as a client table (sorted by client id), the per-entry
/// scalars as an aligned string record.
fn snapshot_store(
    state: AlgorithmState,
    name: &str,
    entries: &[BufferedUpload],
) -> AlgorithmState {
    let mut sorted: Vec<&BufferedUpload> = entries.iter().collect();
    sorted.sort_by_key(|e| e.client);
    let table: Vec<(usize, Vec<f32>)> = sorted
        .iter()
        .map(|e| (e.client, e.delta.clone()))
        .collect();
    let meta: Vec<String> = sorted
        .iter()
        .map(|e| {
            format!(
                "{},{},{},{},{},{}",
                encode_u64(e.train_round as u64),
                encode_u64(e.due_round as u64),
                encode_u64(e.copies as u64),
                encode_u64(e.slot as u64),
                encode_u64(e.num_samples as u64),
                encode_f64(f64::from(e.train_loss)),
            )
        })
        .collect();
    state
        .with_client_table(name, table)
        .with_record(format!("{name}_meta"), meta)
}

/// Restores one pending store written by [`snapshot_store`], validating the
/// table against the federation size and model dimension, the record against
/// the table, and each entry against what the transport can produce: 1 or 2
/// copies, due no earlier than the round it trained in.
fn restore_store(
    state: &AlgorithmState,
    name: &str,
    num_clients: usize,
    dim: usize,
    max_slot: usize,
) -> Result<Vec<BufferedUpload>, StateError> {
    let table = state.expect_client_table(name, num_clients, dim)?;
    let meta = state.expect_record(&format!("{name}_meta"), table.len())?;
    let mut entries = Vec::with_capacity(table.len());
    for ((client, delta), line) in table.iter().zip(meta) {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 6 {
            return Err(StateError::new(format!(
                "store `{name}` meta entry for client {client} has {} fields, expected 6",
                parts.len()
            )));
        }
        let slot = decode_u64(parts[3])? as usize;
        if slot > max_slot {
            return Err(StateError::new(format!(
                "store `{name}` entry for client {client} targets slot {slot}, max is {max_slot}"
            )));
        }
        let train_round = decode_u64(parts[0])? as usize;
        let due_round = decode_u64(parts[1])? as usize;
        let copies = decode_u64(parts[2])? as usize;
        if !(1..=2).contains(&copies) {
            return Err(StateError::new(format!(
                "store `{name}` entry for client {client} has {copies} transport copies, expected 1 or 2"
            )));
        }
        if due_round < train_round {
            return Err(StateError::new(format!(
                "store `{name}` entry for client {client} is due in round {due_round}, before its training round {train_round}"
            )));
        }
        entries.push(BufferedUpload {
            client: *client,
            slot,
            train_round,
            due_round,
            copies,
            delta: delta.clone(),
            num_samples: decode_u64(parts[4])? as usize,
            train_loss: decode_f64(parts[5])? as f32,
        });
    }
    Ok(entries)
}

/// Sends `update` (trained on `slot`'s model `dispatched` in `round`) into
/// `inflight` as a delta, due when the transport `outcome` delivers it. A
/// re-dispatched client abandons its older pending upload — the invariant
/// that keeps both stores at one entry per client.
fn send(
    inflight: &mut Vec<BufferedUpload>,
    round: usize,
    slot: usize,
    update: LocalUpdate,
    outcome: UploadOutcome,
    dispatched: &[f32],
) {
    inflight.retain(|p| p.client != update.client);
    // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
    let mut delta = update.params.to_vec();
    for (d, m) in delta.iter_mut().zip(dispatched) {
        *d -= *m;
    }
    inflight.push(BufferedUpload {
        client: update.client,
        slot,
        train_round: round,
        due_round: round + outcome.delay,
        copies: outcome.copies,
        delta,
        num_samples: update.num_samples,
        train_loss: update.train_loss,
    });
}

/// Moves every due entry out of `inflight`, expanding transport copies into
/// separate arrivals (the server half must dedupe them), and returns the
/// arrivals. Only the extra copy of a duplicated upload is cloned.
fn collect_due(inflight: &mut Vec<BufferedUpload>, round: usize) -> Vec<BufferedUpload> {
    // alloc: bounded — due-arrival list, buffer-bounded per round
    let mut arrivals = Vec::new();
    for mut entry in inflight.extract_if(.., |entry| entry.due_round <= round) {
        let copies = std::mem::replace(&mut entry.copies, 1).max(1);
        for _ in 1..copies {
            // alloc: bounded — the extra transport copy of a duplicated upload
            arrivals.push(entry.clone());
        }
        arrivals.push(entry);
    }
    arrivals
}

/// FedBuff-style FedAvg: the single global model is dispatched every round;
/// arrived uploads accumulate in a bounded buffer and fold into the global
/// model as a staleness-weighted mean of deltas once `goal_k` are buffered.
pub struct BufferedFedAvg {
    staleness_alpha: f32,
    num_clients: usize,
    global: GlobalModel,
    inflight: Vec<BufferedUpload>,
    buffer: Vec<BufferedUpload>,
}

impl BufferedFedAvg {
    /// Creates buffered FedAvg from the initial global model.
    ///
    /// `staleness_alpha` is the exponent of the FedBuff weight
    /// `1/(1+s)^alpha` (0 ignores staleness, larger discounts harder);
    /// `num_clients` is the federation size (used to validate restored
    /// checkpoints).
    ///
    /// # Panics
    /// Panics on empty initial parameters or a negative/non-finite alpha.
    pub fn new(staleness_alpha: f32, init_params: Vec<f32>, num_clients: usize) -> Self {
        assert!(
            staleness_alpha.is_finite() && staleness_alpha >= 0.0,
            "staleness alpha must be finite and non-negative, got {staleness_alpha}"
        );
        assert!(num_clients >= 1, "need at least one client");
        Self {
            staleness_alpha,
            num_clients,
            global: GlobalModel::new(init_params),
            inflight: Vec::new(),
            buffer: Vec::new(),
        }
    }

    /// The current global model parameters.
    pub fn global(&self) -> &[f32] {
        self.global.params()
    }

    /// Uploads currently travelling to the server.
    pub fn inflight(&self) -> &[BufferedUpload] {
        &self.inflight
    }

    /// Arrived uploads awaiting aggregation.
    pub fn buffer(&self) -> &[BufferedUpload] {
        &self.buffer
    }

    /// The server half of a buffered round: merges `arrivals` into the
    /// buffer (deduping by client id), discards entries staler than
    /// `max_staleness`, and — once `goal_k` entries are buffered — applies
    /// the staleness-weighted mean delta to the global model in canonical
    /// client order and clears the buffer.
    ///
    /// Public so the order-invariance proptests can feed the same arrival
    /// set permuted and duplicated — the resulting global model must be
    /// bitwise identical. Rounds that do not reach the goal return an empty
    /// report and leave the model untouched.
    pub fn absorb(
        &mut self,
        round: usize,
        goal_k: usize,
        max_staleness: usize,
        arrivals: Vec<BufferedUpload>,
    ) -> RoundReport {
        let dim = self.global.params().len();
        assert!(
            arrivals.iter().all(|a| a.delta.len() == dim),
            "arrival delta dimension mismatch"
        );
        merge_arrivals(&mut self.buffer, arrivals);
        self.buffer
            .retain(|b| round.saturating_sub(b.train_round) <= max_staleness);
        if self.buffer.len() < goal_k.max(1) {
            return RoundReport::default();
        }

        // Canonical client order, then one weighted-mean delta pass. The
        // accumulation order is the sorted order, so any arrival permutation
        // produces identical bits.
        self.buffer.sort_by_key(|b| b.client);
        let mut weight_sum = 0.0f32;
        // alloc: bounded — buffered-plane staging, buffer-bounded per flush
        let mut acc = vec![0.0f32; dim];
        for entry in &self.buffer {
            let w = entry.staleness_weight(round, self.staleness_alpha);
            weight_sum += w;
            for (a, d) in acc.iter_mut().zip(&entry.delta) {
                *a += w * d;
            }
        }
        let out = self.global.params_mut();
        for (g, a) in out.iter_mut().zip(&acc) {
            *g += a / weight_sum;
        }
        let report = report_from(&self.buffer);
        self.buffer.clear();
        report
    }
}

impl FederatedAlgorithm for BufferedFedAvg {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!("buffered-fedavg(staleness_alpha={})", self.staleness_alpha)
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let (goal_k, max_staleness) = policy_params(ctx);
        let selected = ctx.select_clients();
        let updates = self.global.dispatch(ctx, &selected);
        let outcomes = ctx.upload_outcomes(&updates);
        let global = self.global.params();
        for (update, outcome) in updates.into_iter().zip(outcomes) {
            send(&mut self.inflight, round, 0, update, outcome, global);
        }
        let arrivals = collect_due(&mut self.inflight, round);
        self.absorb(round, goal_k, max_staleness, arrivals)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        let state = snapshot_store(self.global.snapshot(), "inflight", &self.inflight);
        Ok(snapshot_store(state, "buffer", &self.buffer))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let dim = self.global.params().len();
        let inflight = restore_store(state, "inflight", self.num_clients, dim, 0)?;
        let buffer = restore_store(state, "buffer", self.num_clients, dim, 0)?;
        self.global.restore(state)?;
        self.inflight = inflight;
        self.buffer = buffer;
        Ok(())
    }
}

/// Configuration of [`BufferedFedCross`].
#[derive(Debug, Clone, Copy)]
pub struct BufferedFedCrossConfig {
    /// Cross-aggregation weight α ∈ [0.5, 1).
    pub alpha: f32,
    /// Staleness-weight exponent of the FedBuff weight `1/(1+s)^alpha`.
    pub staleness_alpha: f32,
    /// Collaborative-model selection strategy (over the arrived models).
    pub strategy: SelectionStrategy,
    /// Similarity measure used by the similarity strategies.
    pub measure: SimilarityMeasure,
}

impl Default for BufferedFedCrossConfig {
    fn default() -> Self {
        Self {
            alpha: 0.99,
            staleness_alpha: 0.5,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
        }
    }
}

/// FedCross under buffered rounds: each middleware slot dispatches to one
/// client per round; arrived uploads are buffered and — once `goal_k` are
/// buffered — each surviving slot's staleness-weighted delta rebuilds a
/// candidate model (`middlewareᵢ + wᵢ·δᵢ`, re-anchored on the *current*
/// middleware), and the normal similarity-driven cross-aggregation fuses the
/// candidates. Slots with no arrival carry over, exactly like the dropout
/// path of plain FedCross.
pub struct BufferedFedCross {
    config: BufferedFedCrossConfig,
    num_clients: usize,
    middleware: Middleware,
    inflight: Vec<BufferedUpload>,
    buffer: Vec<BufferedUpload>,
}

impl BufferedFedCross {
    /// Creates buffered FedCross with `k` middleware models initialised from
    /// one shared parameter vector. `num_clients` is the federation size
    /// (used to validate restored checkpoints).
    ///
    /// # Panics
    /// Panics if `k < 2`, `alpha` lies outside `[0.5, 1)` or
    /// `staleness_alpha` is negative/non-finite.
    pub fn new(
        config: BufferedFedCrossConfig,
        init_params: Vec<f32>,
        k: usize,
        num_clients: usize,
    ) -> Self {
        assert!(
            config.staleness_alpha.is_finite() && config.staleness_alpha >= 0.0,
            "staleness alpha must be finite and non-negative"
        );
        assert!(num_clients >= 1, "need at least one client");
        Self {
            config,
            num_clients,
            middleware: Middleware::new(
                init_params,
                k,
                config.alpha,
                config.strategy,
                config.measure,
            ),
            inflight: Vec::new(),
            buffer: Vec::new(),
        }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &BufferedFedCrossConfig {
        &self.config
    }

    /// The current middleware model list.
    pub fn middleware(&self) -> &[ParamBlock] {
        self.middleware.models()
    }

    /// Uploads currently travelling to the server.
    pub fn inflight(&self) -> &[BufferedUpload] {
        &self.inflight
    }

    /// Arrived uploads awaiting aggregation.
    pub fn buffer(&self) -> &[BufferedUpload] {
        &self.buffer
    }

    /// The server half of a buffered round: merge, staleness-filter, and —
    /// at `goal_k` buffered entries — fuse. Per middleware slot only the
    /// freshest buffered entry is applied (an older delta for a slot that
    /// was since re-dispatched is superseded); candidates are fused in
    /// canonical slot order, so the result is arrival-order independent.
    pub fn absorb(
        &mut self,
        round: usize,
        goal_k: usize,
        max_staleness: usize,
        arrivals: Vec<BufferedUpload>,
    ) -> RoundReport {
        let k = self.middleware.models().len();
        let dim = self.middleware.models()[0].len();
        assert!(
            arrivals.iter().all(|a| a.delta.len() == dim && a.slot < k),
            "arrival delta dimension or slot out of range"
        );
        merge_arrivals(&mut self.buffer, arrivals);
        self.buffer
            .retain(|b| round.saturating_sub(b.train_round) <= max_staleness);
        if self.buffer.len() < goal_k.max(1) {
            return RoundReport::default();
        }

        // One entry per slot: freshest wins, client id breaks exact ties.
        // Sorting by slot also fixes the canonical fusion order.
        self.buffer.sort_by(|a, b| {
            a.slot
                .cmp(&b.slot)
                .then(b.train_round.cmp(&a.train_round))
                .then(a.client.cmp(&b.client))
        });
        // alloc: bounded — buffered-plane staging, buffer-bounded per flush
        let mut consumed: Vec<BufferedUpload> = Vec::with_capacity(self.buffer.len());
        for entry in self.buffer.drain(..) {
            if consumed.last().map(|p| p.slot) != Some(entry.slot) {
                consumed.push(entry);
            }
        }

        // Stage each slot's staleness-weighted delta; the middleware
        // re-anchors it on the *current* middleware model.
        let staged = self.middleware.staging(consumed.len());
        for (candidate, entry) in staged.iter_mut().zip(&consumed) {
            let w = entry.staleness_weight(round, self.config.staleness_alpha);
            for (c, d) in candidate.iter_mut().zip(&entry.delta) {
                *c = w * d;
            }
        }
        // alloc: bounded — buffered-plane staging, buffer-bounded per flush
        let slots: Vec<usize> = consumed.iter().map(|entry| entry.slot).collect();
        self.middleware.fuse_staged(round, &slots);
        report_from(&consumed)
    }
}

impl FederatedAlgorithm for BufferedFedCross {
    fn name(&self) -> String {
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "buffered-fedcross(alpha={}, staleness_alpha={}, {})",
            self.config.alpha, self.config.staleness_alpha, self.config.strategy
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let (goal_k, max_staleness) = policy_params(ctx);
        let (slots, updates) = self.middleware.dispatch(ctx);
        let outcomes = ctx.upload_outcomes(&updates);
        for ((slot, update), outcome) in slots.into_iter().zip(updates).zip(outcomes) {
            let dispatched = self.middleware.models()[slot].as_slice();
            send(&mut self.inflight, round, slot, update, outcome, dispatched);
        }
        let arrivals = collect_due(&mut self.inflight, round);
        self.absorb(round, goal_k, max_staleness, arrivals)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.middleware.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        let state = snapshot_store(self.middleware.snapshot(), "inflight", &self.inflight);
        Ok(snapshot_store(state, "buffer", &self.buffer))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let k = self.middleware.models().len();
        let dim = self.middleware.models()[0].len();
        let inflight = restore_store(state, "inflight", self.num_clients, dim, k - 1)?;
        let buffer = restore_store(state, "buffer", self.num_clients, dim, k - 1)?;
        self.middleware.restore(state)?;
        self.inflight = inflight;
        self.buffer = buffer;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(client: usize, slot: usize, train_round: usize, delta: Vec<f32>) -> BufferedUpload {
        BufferedUpload {
            client,
            slot,
            train_round,
            due_round: train_round,
            copies: 1,
            delta,
            num_samples: 10 + client,
            train_loss: 0.5 + client as f32 * 0.125,
        }
    }

    #[test]
    fn staleness_weight_decays() {
        let entry = upload(0, 0, 4, vec![1.0]);
        assert_eq!(entry.staleness_weight(4, 0.5), 1.0);
        let fresh = entry.staleness_weight(4, 0.5);
        let stale = entry.staleness_weight(7, 0.5);
        assert!(stale < fresh);
        // alpha = 0 ignores staleness entirely.
        assert_eq!(entry.staleness_weight(9, 0.0), 1.0);
    }

    #[test]
    fn fedavg_buffer_waits_for_goal_then_fires() {
        let mut algo = BufferedFedAvg::new(0.5, vec![0.0; 4], 8);
        let quiet = algo.absorb(0, 3, 4, vec![upload(0, 0, 0, vec![1.0; 4])]);
        assert_eq!(quiet.participants, 0);
        assert_eq!(algo.global(), &[0.0; 4]);
        assert_eq!(algo.buffer().len(), 1);

        let quiet = algo.absorb(1, 3, 4, vec![upload(1, 0, 1, vec![2.0; 4])]);
        assert_eq!(quiet.participants, 0);

        let fired = algo.absorb(2, 3, 4, vec![upload(2, 0, 2, vec![3.0; 4])]);
        assert_eq!(fired.participants, 3);
        assert!(algo.buffer().is_empty());
        assert!(algo.global().iter().all(|&g| g > 0.0));
    }

    #[test]
    fn duplicates_and_order_do_not_change_the_aggregate() {
        let arrivals = vec![
            upload(0, 0, 2, vec![1.0, -1.0]),
            upload(3, 0, 1, vec![0.5, 0.25]),
            upload(5, 0, 3, vec![-2.0, 4.0]),
        ];
        let mut reference = BufferedFedAvg::new(0.7, vec![0.0, 0.0], 8);
        reference.absorb(3, 3, 4, arrivals.clone());

        // Reversed order plus a duplicated transport copy of client 3.
        let mut shuffled: Vec<BufferedUpload> = arrivals.iter().rev().cloned().collect();
        shuffled.insert(1, arrivals[1].clone());
        let mut other = BufferedFedAvg::new(0.7, vec![0.0, 0.0], 8);
        let report = other.absorb(3, 3, 4, shuffled);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(reference.global()), bits(other.global()));
        assert_eq!(report.participants, 3);
    }

    #[test]
    fn stale_entries_are_discarded() {
        let mut algo = BufferedFedAvg::new(0.5, vec![0.0; 2], 8);
        algo.absorb(0, 10, 2, vec![upload(0, 0, 0, vec![1.0, 1.0])]);
        assert_eq!(algo.buffer().len(), 1);
        // Round 5: the entry is 5 rounds stale, beyond max_staleness = 2.
        algo.absorb(5, 10, 2, Vec::new());
        assert!(algo.buffer().is_empty());
    }

    #[test]
    fn freshest_entry_per_client_wins() {
        let mut algo = BufferedFedAvg::new(0.5, vec![0.0; 1], 8);
        algo.absorb(2, 10, 8, vec![upload(4, 0, 1, vec![1.0])]);
        algo.absorb(3, 10, 8, vec![upload(4, 0, 3, vec![9.0])]);
        assert_eq!(algo.buffer().len(), 1);
        assert_eq!(algo.buffer()[0].train_round, 3);
        assert_eq!(algo.buffer()[0].delta, vec![9.0]);
    }

    #[test]
    fn fedavg_snapshot_roundtrips_pending_stores() {
        let mut algo = BufferedFedAvg::new(0.5, vec![0.25; 3], 8);
        algo.buffer.push(upload(2, 0, 1, vec![1.0, 2.0, 3.0]));
        algo.inflight.push(BufferedUpload {
            due_round: 6,
            copies: 2,
            ..upload(5, 0, 4, vec![-1.0, 0.5, 0.0])
        });
        let state = algo.snapshot_state().unwrap();

        let mut restored = BufferedFedAvg::new(0.5, vec![0.0; 3], 8);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.global(), algo.global());
        assert_eq!(restored.buffer(), algo.buffer());
        assert_eq!(restored.inflight(), algo.inflight());
        assert_eq!(restored.inflight()[0].copies, 2);
    }

    #[test]
    fn fedcross_fuses_arrived_slots_and_carries_the_rest() {
        let config = BufferedFedCrossConfig {
            alpha: 0.9,
            ..Default::default()
        };
        let mut algo = BufferedFedCross::new(config, vec![1.0; 4], 3, 8);
        let before = algo.middleware()[2].to_vec();
        let report = algo.absorb(
            0,
            2,
            3,
            vec![
                upload(0, 0, 0, vec![0.5; 4]),
                upload(1, 1, 0, vec![-0.5; 4]),
            ],
        );
        assert_eq!(report.participants, 2);
        // Slot 2 had no arrival and carries over unchanged.
        assert_eq!(algo.middleware()[2].to_vec(), before);
        assert_ne!(algo.middleware()[0], algo.middleware()[1]);
    }

    #[test]
    fn fedcross_order_invariance() {
        let arrivals = vec![
            upload(0, 2, 1, vec![1.0, 0.0, -1.0]),
            upload(4, 0, 2, vec![0.25, 0.5, 0.75]),
            upload(6, 1, 2, vec![-0.5, 0.5, 0.0]),
        ];
        let run = |order: Vec<BufferedUpload>| {
            let mut algo =
                BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.1; 3], 3, 8);
            algo.absorb(2, 3, 4, order);
            algo.middleware()
                .iter()
                .flat_map(|m| m.iter().map(|x| x.to_bits()))
                .collect::<Vec<u32>>()
        };
        let reference = run(arrivals.clone());
        let reversed = run(arrivals.iter().rev().cloned().collect());
        let mut duplicated = arrivals.clone();
        duplicated.push(arrivals[0].clone());
        assert_eq!(reference, run(duplicated));
        assert_eq!(reference, reversed);
    }

    #[test]
    fn fedcross_snapshot_roundtrips() {
        let mut algo =
            BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.5; 2], 2, 6);
        algo.buffer.push(upload(1, 1, 2, vec![1.0, -1.0]));
        algo.inflight.push(BufferedUpload {
            due_round: 9,
            ..upload(3, 0, 5, vec![2.0, 2.0])
        });
        let state = algo.snapshot_state().unwrap();
        let mut restored =
            BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.0; 2], 2, 6);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.middleware(), algo.middleware());
        assert_eq!(restored.buffer(), algo.buffer());
        assert_eq!(restored.inflight(), algo.inflight());
    }

    #[test]
    fn restore_rejects_out_of_range_slots() {
        // Hand-build a state whose buffered entry targets slot 5 — far beyond
        // the 2 middleware slots of the restoring algorithm.
        let mut donor =
            BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.5; 2], 2, 6);
        donor.buffer.push(upload(1, 5, 2, vec![1.0, -1.0]));
        let state = donor.snapshot_state().unwrap();
        let mut algo =
            BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.0; 2], 2, 6);
        let err = algo.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("slot"), "got: {err}");
        // The failed restore must not have touched the model.
        assert_eq!(algo.middleware()[0].as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn restore_rejects_forged_copies_and_rounds() {
        // Entries no transport produces: 1000 copies (1000 arrivals in the
        // first round after resume), zero copies, and an upload due before
        // the round it trained in.
        let forge = |copies, due_round| BufferedUpload {
            copies,
            due_round,
            ..upload(5, 0, 4, vec![1.0, -1.0])
        };
        let forged = [
            ("copies", forge(1000, 6)),
            ("copies", forge(0, 6)),
            ("before its training round", forge(1, 3)),
        ];
        for (reason, bad) in forged {
            let mut donor = BufferedFedAvg::new(0.5, vec![0.5; 2], 8);
            donor.inflight.push(bad.clone());
            let state = donor.snapshot_state().unwrap();
            let mut algo = BufferedFedAvg::new(0.5, vec![0.0; 2], 8);
            let err = algo.restore_state(&state).unwrap_err();
            assert!(err.to_string().contains(reason), "got: {err}");
            // The failed restore must not have touched the algorithm.
            assert_eq!(algo.global(), &[0.0, 0.0]);
            assert!(algo.inflight().is_empty());

            let mut donor =
                BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.5; 2], 2, 8);
            donor.buffer.push(bad);
            let state = donor.snapshot_state().unwrap();
            let mut algo =
                BufferedFedCross::new(BufferedFedCrossConfig::default(), vec![0.0; 2], 2, 8);
            let err = algo.restore_state(&state).unwrap_err();
            assert!(err.to_string().contains(reason), "got: {err}");
            assert_eq!(algo.middleware()[0].as_slice(), &[0.0, 0.0]);
            assert!(algo.buffer().is_empty());
        }
    }
}
