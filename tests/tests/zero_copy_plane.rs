//! Equivalence and allocation-behaviour tests for the zero-copy parameter
//! plane: the `ParamBlock` dispatch path and the in-place fused kernels must
//! be *bitwise* indistinguishable from the historical allocating pipeline,
//! and the steady-state round loop must actually reuse buffers instead of
//! cloning models.

use fedcross::aggregation::{
    cross_aggregate_all_into, cross_aggregate_into, cross_aggregate_propellers_into,
    global_model_into,
};
use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{ClientWorkerPool, CommTracker, FederatedAlgorithm, LocalTrainConfig};
use fedcross_nn::params::ParamBlock;
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_models(k: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..k)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-1.5, 1.5)).collect())
        .collect()
}

/// `α·v + (1-α)·w` element by element: the CrossAggr rule as a plain loop.
fn naive_fuse(v: &[f32], w: &[f32], alpha: f32) -> Vec<f32> {
    v.iter()
        .zip(w)
        .map(|(&x, &y)| alpha * x + (1.0 - alpha) * y)
        .collect()
}

/// Every kernel, writing over NaN-filled buffers, matches the plain loop it
/// stands for bitwise: a dirty output buffer leaks nothing into the result.
#[test]
fn in_place_kernels_match_allocating_kernels_bitwise() {
    for &(k, dim) in &[(2usize, 1usize), (4, 7), (6, 64), (10, 1000)] {
        let models = random_models(k, dim, 42 + dim as u64);
        let collaborators: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
        for &alpha in &[0.5f32, 0.8, 0.99] {
            // Pairwise kernel.
            let mut in_place = vec![f32::NAN; dim];
            cross_aggregate_into(&mut in_place, &models[0], &models[1], alpha);
            assert_eq!(
                bits(&naive_fuse(&models[0], &models[1], alpha)),
                bits(&in_place)
            );

            // Whole-list kernel.
            let mut buffers = vec![vec![f32::NAN; dim]; k];
            {
                let mut targets: Vec<&mut [f32]> =
                    buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
                cross_aggregate_all_into(&mut targets, &models, &collaborators, alpha);
            }
            for (i, b) in buffers.iter().enumerate() {
                let naive = naive_fuse(&models[i], &models[collaborators[i]], alpha);
                assert_eq!(bits(&naive), bits(b));
            }

            // Propeller kernel: α·v, then each propeller's equal share of
            // 1-α added in order.
            let refs: Vec<&[f32]> = models[1..].iter().map(|m| m.as_slice()).collect();
            let share = (1.0 - alpha) / refs.len() as f32;
            let mut naive_prop: Vec<f32> = models[0].iter().map(|&x| alpha * x).collect();
            for propeller in &refs {
                for (o, &p) in naive_prop.iter_mut().zip(propeller.iter()) {
                    *o += share * p;
                }
            }
            let mut prop_buffer = vec![f32::NAN; dim];
            cross_aggregate_propellers_into(&mut prop_buffer, &models[0], &refs, alpha);
            assert_eq!(bits(&naive_prop), bits(&prop_buffer));
        }

        // Global-model generation: each model's 1/K share added in order.
        let scale = 1.0 / k as f32;
        let mut naive_global = vec![0f32; dim];
        for model in &models {
            for (o, &x) in naive_global.iter_mut().zip(model) {
                *o += scale * x;
            }
        }
        let mut global_buffer = vec![f32::NAN; dim];
        global_model_into(&mut global_buffer, &models);
        assert_eq!(bits(&naive_global), bits(&global_buffer));
    }
}

#[test]
#[should_panic]
fn in_place_cross_aggregation_rejects_alpha_of_one() {
    let mut out = vec![0.0; 2];
    cross_aggregate_into(&mut out, &[1.0, 2.0], &[3.0, 4.0], 1.0);
}

#[test]
#[should_panic]
fn in_place_propellers_reject_length_mismatch() {
    let mut out = vec![0.0; 2];
    cross_aggregate_propellers_into(&mut out, &[1.0, 2.0], &[&[1.0][..]], 0.9);
}

fn tiny_setup(seed: u64, clients: usize) -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(seed);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: 20,
            test_samples: 30,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = fedcross_nn::models::cnn(
        (3, 16, 16),
        10,
        fedcross_nn::models::CnnConfig {
            conv_channels: (3, 6),
            fc_hidden: 12,
            kernel: 3,
        },
        &mut rng,
    );
    (data, template)
}

/// One FedCross round written exactly as the seed implementation did it —
/// `Vec<f32>` middleware, clone-on-dispatch, a freshly allocated buffer per
/// fused model — used as the ground truth the ParamBlock pipeline must
/// reproduce.
fn reference_round(
    middleware: &mut [Vec<f32>],
    round: usize,
    alpha: f32,
    strategy: SelectionStrategy,
    measure: SimilarityMeasure,
    ctx: &mut RoundContext<'_>,
) {
    let mut selected = ctx.select_clients();
    ctx.rng_mut().shuffle(&mut selected);
    let jobs: Vec<(usize, Vec<f32>)> = selected
        .iter()
        .zip(middleware.iter())
        .map(|(&client, model)| (client, model.clone()))
        .collect();
    let updates = ctx.local_train_batch(&jobs);
    let mut returned_slots = Vec::with_capacity(updates.len());
    let mut uploaded: Vec<Vec<f32>> = Vec::with_capacity(updates.len());
    for update in &updates {
        let slot = selected
            .iter()
            .position(|&client| client == update.client)
            .expect("selected client");
        returned_slots.push(slot);
        uploaded.push(update.params.to_vec());
    }
    assert!(uploaded.len() >= 2, "reference round assumes no dropout");
    let collaborators = strategy.select_all_with(round, &uploaded, measure);
    for ((&slot, upload), &co) in returned_slots.iter().zip(&uploaded).zip(&collaborators) {
        let mut fused = vec![0f32; upload.len()];
        cross_aggregate_into(&mut fused, upload, &uploaded[co], alpha);
        middleware[slot] = fused;
    }
}

#[test]
fn fedcross_round_on_param_block_plane_is_bitwise_identical_to_seed_pipeline() {
    let (data, template) = tiny_setup(7, 6);
    let k = 4;
    let rounds = 3;
    let init = template.params_flat();
    let config = FedCrossConfig {
        alpha: 0.9,
        strategy: SelectionStrategy::LowestSimilarity,
        measure: SimilarityMeasure::Cosine,
        ..Default::default()
    };
    let local = LocalTrainConfig::fast();
    let master = SeededRng::new(99);

    // Real pipeline: ParamBlock plane with in-place fused kernels.
    let mut algo = FedCross::new(config, init.clone(), k);
    // Reference pipeline: the seed's Vec<f32> clone-and-allocate storm.
    let mut reference: Vec<Vec<f32>> = vec![init; k];

    for round in 0..rounds {
        let mut comm = CommTracker::new();
        let mut pool = ClientWorkerPool::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            local,
            k,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        );
        algo.run_round(round, &mut ctx);

        let mut ref_comm = CommTracker::new();
        let mut ref_pool = ClientWorkerPool::new();
        let mut ref_ctx = RoundContext::new(
            &data,
            template.as_ref(),
            local,
            k,
            master.fork(round as u64),
            &mut ref_comm,
            &mut ref_pool,
        );
        reference_round(
            &mut reference,
            round,
            config.alpha,
            config.strategy,
            config.measure,
            &mut ref_ctx,
        );

        for (slot, (block, expected)) in algo.middleware().iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(block.as_slice()),
                bits(expected),
                "round {round}, middleware slot {slot} diverged from the seed pipeline"
            );
        }
    }

    // The deployable global model agrees too.
    let mut reference_global = vec![0f32; reference[0].len()];
    global_model_into(&mut reference_global, &reference);
    assert_eq!(bits(&algo.global_params()), bits(&reference_global));
}

#[test]
fn construction_shares_one_buffer_across_all_middleware() {
    let algo = FedCross::new(FedCrossConfig::default(), vec![0.5; 1024], 8);
    let first = &algo.middleware()[0];
    assert_eq!(first.ref_count(), 8, "K middleware models share one buffer");
    assert!(algo
        .middleware()
        .iter()
        .all(|block| block.ptr_eq(first)));
}

#[test]
fn dispatch_is_by_reference_and_fusion_reuses_middleware_buffers() {
    let (data, template) = tiny_setup(11, 5);
    let k = 4;
    let config = FedCrossConfig {
        alpha: 0.9,
        ..Default::default()
    };
    let mut algo = FedCross::new(config, template.params_flat(), k);
    let local = LocalTrainConfig::fast();
    let master = SeededRng::new(5);

    // Dispatching jobs from the middleware is a reference bump, not a copy.
    let jobs: Vec<(usize, ParamBlock)> = algo
        .middleware()
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.clone()))
        .collect();
    for (job, block) in jobs.iter().zip(algo.middleware()) {
        assert!(job.1.ptr_eq(block), "dispatch must not copy the model");
    }
    drop(jobs);

    // Round 0 un-shares the initial buffer (copy-on-write); afterwards every
    // block is uniquely owned.
    let mut comm = CommTracker::new();
    let mut pool = ClientWorkerPool::new();
    let mut ctx = RoundContext::new(
        &data,
        template.as_ref(),
        local,
        k,
        master.fork(0),
        &mut comm,
        &mut pool,
    );
    algo.run_round(0, &mut ctx);
    assert!(algo.middleware().iter().all(|m| m.is_unique()));

    // From round 1 on, fusion writes into the retired buffers in place: the
    // backing allocations of all K middleware slots are stable.
    let pointers: Vec<*const f32> = algo
        .middleware()
        .iter()
        .map(|m| m.as_slice().as_ptr())
        .collect();
    for round in 1..3 {
        let mut comm = CommTracker::new();
        let mut pool = ClientWorkerPool::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            local,
            k,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        );
        algo.run_round(round, &mut ctx);
        let now: Vec<*const f32> = algo
            .middleware()
            .iter()
            .map(|m| m.as_slice().as_ptr())
            .collect();
        assert_eq!(
            pointers, now,
            "round {round} reallocated a middleware buffer instead of reusing it"
        );
    }
}

#[test]
fn local_updates_share_worker_buffers_under_copy_on_write() {
    // Since the persistent worker plane (PR 3), an upload produced through a
    // RoundContext shares its buffer with the worker slot's reusable upload
    // block (one handle each), so a steady-state round uploads without
    // allocating. Copy-on-write keeps both sides safe: a server that mutates
    // its update duplicates the buffer and never perturbs the worker.
    let (data, template) = tiny_setup(13, 3);
    let mut comm = CommTracker::new();
    let mut pool = ClientWorkerPool::new();
    let mut ctx = RoundContext::new(
        &data,
        template.as_ref(),
        LocalTrainConfig::fast(),
        3,
        SeededRng::new(1),
        &mut comm,
        &mut pool,
    );
    let global = ParamBlock::from(template.params_flat());
    let jobs: Vec<(usize, ParamBlock)> = (0..3).map(|c| (c, global.clone())).collect();
    let mut updates = ctx.local_train_batch(&jobs);
    for update in &updates {
        assert_eq!(
            update.params.ref_count(),
            2,
            "an upload shares its buffer with exactly its worker slot"
        );
    }
    // Server-side mutation copies on write instead of corrupting the worker.
    let before = updates[0].params.to_vec();
    updates[0].params.make_mut()[0] += 1.0;
    assert!(updates[0].params.is_unique());
    assert_eq!(updates[0].params.as_slice()[1..], before[1..]);

    // The standalone client API keeps the historical unique-ownership
    // guarantee: its scratch (and the buffer handle) dies with the call.
    let mut model = template.clone_model();
    model.set_params_flat(&global);
    let update = fedcross_flsim::client::local_train(
        0,
        model.as_mut(),
        data.client(0),
        &LocalTrainConfig::fast(),
        &mut SeededRng::new(2),
        None,
    );
    assert!(update.params.is_unique());
}
