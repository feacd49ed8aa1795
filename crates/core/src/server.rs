//! The two server skeletons every algorithm runs on.
//!
//! [`Middleware`] is Algorithm 1 of the paper: dispatch `K` middleware models
//! to a shuffled cohort, train, pick each upload's collaborator, fuse
//! `α·v_i + (1-α)·v_co` and deploy the middleware mean. [`GlobalModel`] is
//! FedAvg's round: dispatch one global model, train, aggregate. Each owns its
//! model(s) on the copy-on-write parameter plane together with validation,
//! dispatch, the deployed read and snapshot/restore, so an algorithm adds
//! only what varies: a FedCross variant turns uploads into fusion candidates
//! (identity, robust sanitize, staleness re-anchor, clip-and-noise), a
//! single-model algorithm supplies its server rule.

use crate::acceleration::Acceleration;
use crate::aggregation::{
    cross_aggregate_all_into, cross_aggregate_propellers_into, global_model_into,
};
use crate::selection::{SelectionStrategy, SimilarityMeasure};
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{canonicalize_updates, RoundContext, TrainJob};
use fedcross_nn::params::{weighted_average_into, ParamBlock};
use std::borrow::Borrow;

/// Pairs every upload with the middleware slot that dispatched it
/// (`selected[slot]` trained slot `slot`) and returns both in ascending slot
/// order — the canonical order, which makes a round a function of the upload
/// set rather than of arrival order.
///
/// # Panics
/// Panics if an update comes from a client outside `selected`.
pub fn slot_order<U: Borrow<LocalUpdate>>(
    selected: &[usize],
    updates: impl IntoIterator<Item = U>,
) -> (Vec<usize>, Vec<U>) {
    let mut arrived: Vec<(usize, U)> = updates
        .into_iter()
        .map(|update| {
            let client = update.borrow().client;
            let slot = selected.iter().position(|&c| c == client);
            let slot = slot.expect("every update comes from a selected client");
            (slot, update)
        })
        // alloc: bounded — cohort-sized slot mapping, once per round
        .collect();
    arrived.sort_by_key(|(slot, _)| *slot);
    arrived.into_iter().unzip()
}

/// Selects `count` distinct propeller indices for candidate `i` among `n`
/// candidates using the in-order schedule (Section III-D): a round-rotating
/// offset, skipping `i` itself, capped at `n - 1`.
pub(crate) fn propeller_indices(round: usize, i: usize, count: usize, n: usize) -> Vec<usize> {
    let base_offset = round % (n - 1) + 1;
    // alloc: bounded — cohort-sized pick list, once per round
    let mut picks = Vec::with_capacity(count);
    let mut step = 0usize;
    while picks.len() < count.min(n - 1) {
        let j = (i + base_offset + step) % n;
        step += 1;
        if j != i && !picks.contains(&j) {
            picks.push(j);
        }
    }
    picks
}

/// Algorithm 1's `K` middleware models and their fusion rule.
///
/// Dispatch is `K` reference bumps, and fusion writes each round's result
/// **into** the retired middleware buffers, so a steady-state round performs
/// no full-model clones.
#[derive(Debug)]
pub struct Middleware {
    models: Vec<ParamBlock>,
    alpha: f32,
    strategy: SelectionStrategy,
    measure: SimilarityMeasure,
}

impl Middleware {
    /// `k` middleware models initialised from `init_params`, fused with
    /// weight `alpha` and collaborators chosen by `strategy` under
    /// `measure`. The models share one buffer until first written, so
    /// construction is `O(d)`, not `O(K·d)`.
    ///
    /// # Panics
    /// Panics if `k < 2` or `alpha` lies outside `[0.5, 1)`.
    pub fn new(
        init_params: Vec<f32>,
        k: usize,
        alpha: f32,
        strategy: SelectionStrategy,
        measure: SimilarityMeasure,
    ) -> Self {
        assert!(k >= 2, "FedCross needs at least two middleware models");
        assert!((0.5..1.0).contains(&alpha), "alpha must lie in [0.5, 1.0)");
        let models = vec![ParamBlock::from(init_params); k];
        Self {
            models,
            alpha,
            strategy,
            measure,
        }
    }

    /// The middleware models in slot order.
    pub fn models(&self) -> &[ParamBlock] {
        &self.models
    }

    /// Algorithm 1 lines 4–10: selects `K` clients, shuffles them so every
    /// model meets every client with equal chance, dispatches model `i` to
    /// client `i` and trains. Returns the slots that uploaded and their
    /// uploads in slot order; a dropped client's slot is absent.
    ///
    /// # Panics
    /// Panics if the round's cohort size differs from `K`.
    pub fn dispatch(&self, ctx: &mut RoundContext<'_>) -> (Vec<usize>, Vec<LocalUpdate>) {
        let k = self.models.len();
        let selected_k = ctx.clients_per_round();
        assert_eq!(
            selected_k, k,
            "FedCross requires clients_per_round ({selected_k}) to equal the number of middleware models ({k})"
        );
        let mut selected = ctx.select_clients();
        ctx.rng_mut().shuffle(&mut selected);
        let jobs = selected
            .iter()
            .zip(&self.models)
            // alloc: bounded — K reference bumps; the models are shared, not copied
            .map(|(&client, model)| TrainJob::plain(client, model.clone()))
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        // The jobs' references die inside training, so the retired models
        // are unique again when fusion writes them.
        let updates = ctx.local_train_jobs(jobs);
        slot_order(&selected, updates)
    }

    /// Algorithm 1 lines 11–14: fuses candidate `i` with its collaborator
    /// (or, during propeller `acceleration`, its propellers) into the
    /// retired model of slot `slots[i]`. Slots without a candidate carry
    /// over; a lone candidate has no collaborator and is kept as trained.
    ///
    /// # Panics
    /// Panics unless `slots` holds one strictly ascending, in-range slot per
    /// candidate.
    pub fn fuse<V: AsRef<[f32]> + Sync>(
        &mut self,
        round: usize,
        slots: &[usize],
        candidates: &[V],
        acceleration: Acceleration,
    ) {
        assert!(
            slots.len() == candidates.len() && slots.windows(2).all(|w| w[0] < w[1]),
            "fusion needs one strictly ascending slot per candidate"
        );
        match candidates {
            [] => return,
            [candidate] => {
                // Copy into the retired buffer rather than adopting the
                // candidate: an upload shares its buffer with the client
                // worker's reusable slot, which would otherwise re-allocate.
                let out = self.models[slots[0]].make_mut();
                out.copy_from_slice(candidate.as_ref());
                return;
            }
            _ => {}
        }
        let n = candidates.len();
        let alpha = acceleration.alpha_at(round, self.alpha);
        let propellers = acceleration.propellers_at(round);
        let mut targets: Vec<&mut [f32]> = self
            .models
            .iter_mut()
            .enumerate()
            .filter(|(slot, _)| slots.contains(slot))
            .map(|(_, model)| model.make_mut().as_mut_slice())
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        assert_eq!(targets.len(), n, "fusion slot out of range");
        if propellers <= 1 {
            let partners = self
                .strategy
                .select_all_with(round, candidates, self.measure);
            cross_aggregate_all_into(&mut targets, candidates, &partners, alpha);
            return;
        }
        for (i, target) in targets.into_iter().enumerate() {
            let picks: Vec<&[f32]> = propeller_indices(round, i, propellers, n)
                .into_iter()
                .map(|j| candidates[j].as_ref())
                // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
                .collect();
            cross_aggregate_propellers_into(target, candidates[i].as_ref(), &picks, alpha);
        }
    }

    /// The deployable global model, the middleware mean (Section III-B3),
    /// written into `out` with its allocation reused.
    pub fn read_into(&self, out: &mut Vec<f32>) {
        // `global_model_into` zero-fills `out` itself.
        out.resize(self.models[0].len(), 0.0);
        global_model_into(out, &self.models);
    }

    /// The model list in slot order (`K` reference bumps).
    pub fn snapshot(&self) -> AlgorithmState {
        AlgorithmState::multi_model(self.models.clone())
    }

    /// Restores a [`Middleware::snapshot`]; a model list of the wrong count
    /// or dimension is rejected and leaves the models untouched. The first
    /// fusion afterwards pays one copy-on-write duplication per block.
    pub fn restore(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let models = state.expect_models(self.models.len(), self.models[0].len())?;
        self.models = models.to_vec();
        Ok(())
    }
}

/// The single global model of FedAvg-style algorithms. Dispatch is a
/// reference bump per client, and server rules write the next model into the
/// retired buffer in place.
#[derive(Debug)]
pub struct GlobalModel {
    model: ParamBlock,
}

impl GlobalModel {
    /// Wraps the initial global model.
    ///
    /// # Panics
    /// Panics on empty initial parameters.
    pub fn new(init_params: Vec<f32>) -> Self {
        assert!(
            !init_params.is_empty(),
            "initial parameters must not be empty"
        );
        let model = ParamBlock::from(init_params);
        Self { model }
    }

    /// The current global model.
    pub fn params(&self) -> &ParamBlock {
        &self.model
    }

    /// Write access for a server rule; the dispatch references are gone by
    /// the time a round aggregates, so this reuses the retired buffer.
    pub fn params_mut(&mut self) -> &mut [f32] {
        self.model.make_mut()
    }

    /// Dispatches the global model to `selected` as plain training jobs and
    /// returns the uploads in dispatch order.
    pub fn dispatch(&self, ctx: &mut RoundContext<'_>, selected: &[usize]) -> Vec<LocalUpdate> {
        // alloc: bounded — one reference bump per client; the model is shared, not copied
        self.dispatch_jobs(ctx, selected, |client, model| {
            TrainJob::plain(client, model.clone())
        })
    }

    /// Dispatches the global model to `selected` through `job`, which builds
    /// each client's training job from the shared model (gradient
    /// corrections, auxiliary payload), and returns the uploads in dispatch
    /// order whatever order they arrived in.
    pub fn dispatch_jobs(
        &self,
        ctx: &mut RoundContext<'_>,
        selected: &[usize],
        mut job: impl FnMut(usize, &ParamBlock) -> TrainJob,
    ) -> Vec<LocalUpdate> {
        let jobs = selected
            .iter()
            .map(|&client| job(client, &self.model))
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        let mut updates = ctx.local_train_jobs(jobs);
        canonicalize_updates(&mut updates, selected);
        updates
    }

    /// FedAvg's rule: replaces the model with the sample-count-weighted mean
    /// of the uploads, in slice order. An empty round carries it over.
    pub fn weighted_mean(&mut self, updates: &[LocalUpdate]) {
        if updates.is_empty() {
            return;
        }
        // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
        let params: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        let weights: Vec<f32> = updates
            .iter()
            .map(|u| u.num_samples.max(1) as f32)
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        weighted_average_into(self.model.make_mut(), &params, &weights);
    }

    /// The deployed model, copied into `out` with its allocation reused.
    pub fn read_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.model);
    }

    /// The global model as checkpoint state (a reference bump).
    pub fn snapshot(&self) -> AlgorithmState {
        AlgorithmState::single_model(self.model.clone())
    }

    /// Restores a [`GlobalModel::snapshot`]; a model of the wrong dimension
    /// is rejected and leaves the current one untouched.
    pub fn restore(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.model = state.expect_single_model(self.model.len())?.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::cross_aggregate;

    fn in_order(k: usize, alpha: f32, init: Vec<f32>) -> Middleware {
        Middleware::new(
            init,
            k,
            alpha,
            SelectionStrategy::InOrder,
            SimilarityMeasure::Cosine,
        )
    }

    fn bits(model: &ParamBlock) -> Vec<u32> {
        model.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fuse_writes_returned_slots_and_carries_the_rest() {
        let mut middleware = in_order(4, 0.75, vec![9.0, 9.0]);
        let candidates = [vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        middleware.fuse(0, &[0, 2, 3], &candidates, Acceleration::None);
        let partners = SelectionStrategy::InOrder.select_all(0, &candidates);
        for (i, slot) in [0usize, 2, 3].into_iter().enumerate() {
            let expected = cross_aggregate(&candidates[i], &candidates[partners[i]], 0.75);
            assert_eq!(middleware.models()[slot].as_slice(), expected.as_slice());
        }
        assert_eq!(middleware.models()[1].as_slice(), &[9.0, 9.0]);
    }

    #[test]
    fn lone_candidate_is_kept_as_trained() {
        let mut middleware = in_order(3, 0.9, vec![0.0]);
        middleware.fuse(4, &[1], &[vec![3.5f32]], Acceleration::None);
        let values: Vec<f32> = middleware.models().iter().map(|m| m[0]).collect();
        assert_eq!(values, vec![0.0, 3.5, 0.0]);
        middleware.fuse(5, &[], &[] as &[Vec<f32>], Acceleration::None);
        assert_eq!(middleware.models()[1][0], 3.5);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn fuse_rejects_unsorted_slots() {
        let mut middleware = in_order(3, 0.9, vec![0.0]);
        middleware.fuse(0, &[2, 0], &[vec![1.0f32], vec![2.0]], Acceleration::None);
    }

    #[test]
    fn a_single_propeller_matches_plain_fusion_bitwise() {
        // With two candidates the propeller schedule picks the other one,
        // so propeller fusion must reproduce plain fusion bit for bit.
        let candidates = [vec![0.3f32, -1.7, 2.9], vec![1.1, 0.2, -0.4]];
        let mut plain = in_order(2, 0.9, vec![0.0; 3]);
        plain.fuse(1, &[0, 1], &candidates, Acceleration::None);
        let mut propelled = in_order(2, 0.9, vec![0.0; 3]);
        let acceleration = Acceleration::PropellerModels {
            propellers: 3,
            until_round: 5,
        };
        propelled.fuse(1, &[0, 1], &candidates, acceleration);
        for (a, b) in plain.models().iter().zip(propelled.models()) {
            assert_eq!(bits(a), bits(b));
        }
    }
}
