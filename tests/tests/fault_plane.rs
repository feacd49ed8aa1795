//! Fault-plane integration tests: deadline rounds, fault injection and
//! staleness-aware buffered aggregation.
//!
//! The contracts pinned here:
//!
//! * buffered aggregation ([`fedcross::BufferedFedAvg`] /
//!   [`fedcross::BufferedFedCross`]) is a pure function of the arrival *set* —
//!   permuting arrival order or duplicating transport copies changes no bit
//!   (proptests),
//! * a deadline round with `min_quorum` equal to the cohort size rescues every
//!   late upload and is bitwise identical to a synchronous round,
//! * fault injection tallies what it does ([`fedcross_flsim::FaultTally`]) and
//!   crashed uploads actually shrink participation,
//! * the ISSUE's end-to-end pin: deadline rounds under 40% stragglers converge
//!   to ≥ 90% of the no-straggler accuracy,
//! * a crash between arrival and aggregation (mid-buffer checkpoint) resumes
//!   bitwise, pending stores included.

use fedcross::buffered::{BufferedFedAvg, BufferedFedCross, BufferedFedCrossConfig, BufferedUpload};
use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{
    DeviceModel, FaultPlan, FederatedAlgorithm, LocalTrainConfig, RoundPolicy, Simulation,
    SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;
use proptest::prelude::*;

fn setup(seed: u64) -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(seed);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 12,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 4),
            fc_hidden: 8,
            kernel: 3,
        },
        &mut rng,
    );
    (data, template)
}

fn sim_config(rounds: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round: 3,
        eval_every: 2,
        eval_batch_size: 32,
        local: LocalTrainConfig::fast(),
        seed: 77,
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// Order-invariance proptests: the buffered server half must be a pure
// function of the arrival set.
// ---------------------------------------------------------------------------

/// Deterministic delta so a duplicated (client, train_round) pair always
/// carries identical content — exactly what a duplicated transport delivers.
fn arrival(client: usize, slot: usize, train_round: usize, dim: usize) -> BufferedUpload {
    let delta: Vec<f32> = (0..dim)
        .map(|i| ((client * 31 + train_round * 17 + i * 7) % 13) as f32 * 0.05 - 0.3)
        .collect();
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

/// Builds a unique-client arrival set from raw proptest draws.
fn arrival_set(clients: &[usize], rounds: &[usize], slots: usize, dim: usize) -> Vec<BufferedUpload> {
    let mut seen = Vec::new();
    let mut arrivals = Vec::new();
    for (i, &client) in clients.iter().enumerate() {
        if seen.contains(&client) {
            continue;
        }
        seen.push(client);
        let train_round = rounds[i % rounds.len()];
        arrivals.push(arrival(client, client % slots, train_round, dim));
    }
    arrivals
}

/// The adversarial re-orderings every absorb must be invariant to: a seeded
/// shuffle plus a duplicated transport copy of one arrival.
fn permute_and_duplicate(
    arrivals: &[BufferedUpload],
    perm_seed: u64,
    dup_index: usize,
) -> Vec<BufferedUpload> {
    let mut permuted: Vec<BufferedUpload> = arrivals.to_vec();
    SeededRng::new(perm_seed).shuffle(&mut permuted);
    permuted.push(arrivals[dup_index % arrivals.len()].clone());
    permuted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffered_fedavg_absorb_is_order_and_duplicate_invariant(
        clients in prop::collection::vec(0usize..12, 1..8),
        rounds in prop::collection::vec(0usize..5, 8..9),
        perm_seed in 0u64..1_000_000,
        dup_index in 0usize..8,
        staleness_alpha in 0.0f32..2.0,
    ) {
        let dim = 6;
        let arrivals = arrival_set(&clients, &rounds, 1, dim);
        let permuted = permute_and_duplicate(&arrivals, perm_seed, dup_index);

        let mut a = BufferedFedAvg::new(staleness_alpha, vec![0.1; dim], 12);
        let mut b = BufferedFedAvg::new(staleness_alpha, vec![0.1; dim], 12);
        let report_a = a.absorb(4, 1, 4, arrivals);
        let report_b = b.absorb(4, 1, 4, permuted);

        prop_assert!(bitwise_eq(a.global(), b.global()),
            "permuted/duplicated arrivals changed the buffered FedAvg aggregate");
        prop_assert_eq!(report_a.participants, report_b.participants);
        prop_assert_eq!(report_a.total_samples, report_b.total_samples);
        prop_assert_eq!(
            report_a.mean_train_loss.to_bits(),
            report_b.mean_train_loss.to_bits()
        );
    }

    #[test]
    fn buffered_fedcross_absorb_is_order_and_duplicate_invariant(
        clients in prop::collection::vec(0usize..12, 1..8),
        rounds in prop::collection::vec(0usize..5, 8..9),
        perm_seed in 0u64..1_000_000,
        dup_index in 0usize..8,
    ) {
        let dim = 6;
        let k = 3;
        let arrivals = arrival_set(&clients, &rounds, k, dim);
        let permuted = permute_and_duplicate(&arrivals, perm_seed, dup_index);

        let config = BufferedFedCrossConfig::default();
        let mut a = BufferedFedCross::new(config, vec![0.1; dim], k, 12);
        let mut b = BufferedFedCross::new(config, vec![0.1; dim], k, 12);
        let report_a = a.absorb(4, 1, 4, arrivals);
        let report_b = b.absorb(4, 1, 4, permuted);

        for slot in 0..k {
            prop_assert!(
                bitwise_eq(&a.middleware()[slot], &b.middleware()[slot]),
                "middleware slot {} diverged under permuted arrivals", slot
            );
        }
        prop_assert_eq!(report_a.participants, report_b.participants);
        prop_assert_eq!(
            report_a.mean_train_loss.to_bits(),
            report_b.mean_train_loss.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Deadline rounds and fault injection at the engine level.
// ---------------------------------------------------------------------------

#[test]
fn full_quorum_deadline_is_bitwise_identical_to_synchronous() {
    // min_quorum = clients_per_round rescues every late upload, so the round
    // processes the identical update set in the identical order — latency
    // draws are pure functions and consume no shared RNG state.
    let (data, template) = setup(5);
    let config = sim_config(4);
    let devices = DeviceModel::two_tier(0.5, 8.0, 13);
    let build = || {
        build_algorithm(
            AlgorithmSpec::fedcross_default(),
            template.params_flat(),
            data.num_clients(),
            3,
        )
    };

    let mut sync_algo = build();
    let sync = Simulation::new(config, &data, template.clone_model()).run(sync_algo.as_mut());

    let mut deadline_algo = build();
    let deadline = Simulation::new(config, &data, template.clone_model())
        .with_devices(devices)
        .with_round_policy(RoundPolicy::Deadline {
            budget: 2.0,
            min_quorum: 3,
        })
        .run(deadline_algo.as_mut());

    assert!(bitwise_eq(
        &sync_algo.global_params(),
        &deadline_algo.global_params()
    ));
    assert_eq!(sync.history, deadline.history);
    // The rescue actually fired: the 8× stragglers all blow a 2.0 budget.
    assert!(deadline.faults.quorum_rescued > 0);
    assert_eq!(deadline.faults.missed_deadline, 0);
    assert_eq!(sync.faults.quorum_rescued, 0, "sync rounds draw no fates");
}

#[test]
fn deadline_without_quorum_discards_stragglers_and_tallies_them() {
    let (data, template) = setup(5);
    let config = sim_config(4);
    let mut algo = build_algorithm(
        AlgorithmSpec::FedAvg,
        template.params_flat(),
        data.num_clients(),
        3,
    );
    let result = Simulation::new(config, &data, template.clone_model())
        .with_devices(DeviceModel::two_tier(0.5, 8.0, 13))
        .with_round_policy(RoundPolicy::Deadline {
            budget: 2.0,
            min_quorum: 0,
        })
        .run(algo.as_mut());
    assert!(
        result.faults.missed_deadline > 0,
        "half the fleet at 8x must miss a 2.0 budget at least once"
    );
    assert_eq!(result.faults.quorum_rescued, 0, "min_quorum 0 never rescues");
    assert_eq!(result.rounds_completed, 4, "discarded uploads do not stall rounds");
}

#[test]
fn crash_faults_shrink_participation_and_are_tallied() {
    let (data, template) = setup(5);
    let config = sim_config(6);
    let faults = FaultPlan {
        crash_prob: 0.4,
        ..Default::default()
    };
    let run = |faults: Option<FaultPlan>| {
        let mut algo = build_algorithm(
            AlgorithmSpec::FedAvg,
            template.params_flat(),
            data.num_clients(),
            3,
        );
        let mut sim = Simulation::new(config, &data, template.clone_model());
        if let Some(f) = faults {
            sim = sim.with_faults(f);
        }
        sim.run(algo.as_mut())
    };
    let clean = run(None);
    let faulty = run(Some(faults));
    assert_eq!(clean.faults.crashed, 0);
    assert!(faulty.faults.crashed > 0, "crash prob 0.4 over 18 uploads");
    // Lost uploads change the trajectory: the faulty run trained on fewer
    // updates, so its learning curve cannot match the clean one.
    assert_ne!(clean.history, faulty.history);
}

#[test]
fn duplicate_faults_are_deduped_not_double_counted() {
    // Duplicates under a synchronous-server policy are tally-only: the round
    // must stay bitwise identical to a fault-free run.
    let (data, template) = setup(5);
    let config = sim_config(4);
    let build = || {
        build_algorithm(
            AlgorithmSpec::FedAvg,
            template.params_flat(),
            data.num_clients(),
            3,
        )
    };
    let mut clean_algo = build();
    let clean = Simulation::new(config, &data, template.clone_model()).run(clean_algo.as_mut());
    let mut dup_algo = build();
    let dup = Simulation::new(config, &data, template.clone_model())
        .with_faults(FaultPlan {
            duplicate_prob: 0.6,
            ..Default::default()
        })
        .run(dup_algo.as_mut());
    assert!(dup.faults.duplicated > 0);
    assert!(bitwise_eq(
        &clean_algo.global_params(),
        &dup_algo.global_params()
    ));
    assert_eq!(clean.history, dup.history);
}

#[test]
fn exhausted_server_retries_abandon_the_round_but_not_the_run() {
    let (data, template) = setup(5);
    let config = sim_config(6);
    let mut algo = build_algorithm(
        AlgorithmSpec::fedcross_default(),
        template.params_flat(),
        data.num_clients(),
        3,
    );
    let result = Simulation::new(config, &data, template.clone_model())
        .with_faults(FaultPlan {
            server_fail_prob: 0.5,
            max_retries: 1,
            ..Default::default()
        })
        .run(algo.as_mut());
    assert!(
        result.faults.apply_retries > 0 || result.faults.rounds_lost > 0,
        "a 0.5 apply-failure rate over 6 rounds must fire at least once"
    );
    assert_eq!(result.rounds_completed, 6, "lost rounds still advance the run");
}

// ---------------------------------------------------------------------------
// The ISSUE's end-to-end pin: deadline rounds under 40% stragglers reach
// ≥ 90% of the no-straggler accuracy.
// ---------------------------------------------------------------------------

#[test]
fn deadline_rounds_under_stragglers_converge_close_to_the_clean_run() {
    // A larger test set than the shared fixture: a 40-sample set quantizes
    // accuracy in 2.5% steps, far coarser than the 10% band being pinned.
    let mut rng = SeededRng::new(5);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 20,
            test_samples: 200,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 4),
            fc_hidden: 8,
            kernel: 3,
        },
        &mut rng,
    );
    let config = sim_config(12);
    let build = || {
        build_algorithm(
            AlgorithmSpec::fedcross_default(),
            template.params_flat(),
            data.num_clients(),
            3,
        )
    };

    let mut clean_algo = build();
    let clean = Simulation::new(config, &data, template.clone_model()).run(clean_algo.as_mut());

    let mut straggled_algo = build();
    let straggled = Simulation::new(config, &data, template.clone_model())
        .with_devices(DeviceModel::two_tier(0.4, 8.0, 29))
        .with_round_policy(RoundPolicy::Deadline {
            budget: 2.0,
            min_quorum: 2,
        })
        .run(straggled_algo.as_mut());

    // Mean of the last two evaluations: single-round accuracy on a tiny
    // synthetic test set is too noisy to pin directly.
    let final_accuracy = |r: &fedcross_flsim::engine::SimulationResult| {
        let records = r.history.records();
        let tail = &records[records.len() - 2..];
        tail.iter().map(|rec| rec.accuracy).sum::<f32>() / tail.len() as f32
    };
    let clean_acc = final_accuracy(&clean);
    let straggled_acc = final_accuracy(&straggled);
    assert!(
        straggled_acc >= 0.9 * clean_acc,
        "deadline rounds under 40% stragglers fell below 90% of the clean \
         accuracy: {straggled_acc} vs {clean_acc}"
    );
}

// ---------------------------------------------------------------------------
// Mid-buffer crash: pending stores resume bitwise.
// ---------------------------------------------------------------------------

fn assert_mid_buffer_resume_is_bitwise<A: FederatedAlgorithm>(
    build: impl Fn(Vec<f32>, usize) -> A,
    tag: &str,
    pending_of: impl Fn(&A) -> usize,
) {
    let (data, template) = setup(5);
    let config = sim_config(6);
    let make_sim = || {
        Simulation::new(config, &data, template.clone_model())
            .with_devices(DeviceModel::two_tier(0.5, 3.0, 17))
            .with_round_policy(RoundPolicy::Buffered {
                goal_k: 2,
                max_staleness: 3,
            })
            .with_faults(FaultPlan {
                stall_prob: 0.3,
                max_stall: 2,
                duplicate_prob: 0.2,
                ..Default::default()
            })
    };
    let build = || build(template.params_flat(), data.num_clients());

    let mut whole = build();
    let uninterrupted = make_sim().run(&mut whole);

    let mut first = build();
    let sim = make_sim();
    let partial = sim.run_segment(&mut first, 0, 3);
    assert!(
        pending_of(&first) > 0,
        "{tag}: the checkpoint round must actually have uploads in flight or \
         buffered for this test to pin anything"
    );
    let checkpoint = sim.checkpoint(&first, &partial).expect("snapshot supported");
    drop(first);

    let mut fresh = build();
    let resumed = make_sim()
        .resume(&checkpoint, &mut fresh)
        .expect("checkpoint matches the resuming simulation");

    assert!(
        bitwise_eq(&whole.global_params(), &fresh.global_params()),
        "{tag}: mid-buffer resume diverged from the uninterrupted run"
    );
    assert_eq!(resumed.history, uninterrupted.history, "{tag}: history diverged");
    assert_eq!(resumed.comm, uninterrupted.comm, "{tag}: comm totals diverged");
}

#[test]
fn buffered_fedavg_resumes_bitwise_from_a_mid_buffer_checkpoint() {
    assert_mid_buffer_resume_is_bitwise(
        |init, num_clients| BufferedFedAvg::new(0.5, init, num_clients),
        "buffered-fedavg",
        |algo| algo.inflight().len() + algo.buffer().len(),
    );
}

#[test]
fn buffered_fedcross_resumes_bitwise_from_a_mid_buffer_checkpoint() {
    assert_mid_buffer_resume_is_bitwise(
        |init, num_clients| {
            BufferedFedCross::new(BufferedFedCrossConfig::default(), init, 3, num_clients)
        },
        "buffered-fedcross",
        |algo| algo.inflight().len() + algo.buffer().len(),
    );
}

#[test]
fn buffered_runs_make_progress_under_stragglers() {
    // Sanity: the buffered policy is not a no-op — staleness-weighted rounds
    // actually move the model and aggregate late arrivals.
    let (data, template) = setup(5);
    let config = sim_config(8);
    let mut algo = BufferedFedAvg::new(0.5, template.params_flat(), data.num_clients());
    let init = template.params_flat();
    let result = Simulation::new(config, &data, template.clone_model())
        .with_devices(DeviceModel::two_tier(0.4, 3.0, 17))
        .with_round_policy(RoundPolicy::Buffered {
            goal_k: 2,
            max_staleness: 4,
        })
        .run(&mut algo);
    assert!(!bitwise_eq(&algo.global_params(), &init), "model never moved");
    assert_eq!(result.rounds_completed, 8);
    assert!(result.faults.stalled == 0, "no stall faults were configured");
}
