//! Deadline rounds under stragglers, with a mid-run crash and resume.
//!
//! A third of the fleet runs on 8× slower hardware ([`DeviceModel`]), and the
//! server closes each round after a fixed latency budget
//! ([`RoundPolicy::Deadline`]): uploads that miss the budget are discarded
//! (FedCross carries the unreported middleware slots over), unless the
//! `min_quorum` rescue keeps the round from starving. Half-way through, the
//! server "crashes", checkpoints are reloaded, and the run finishes —
//! **bitwise identically** to an uninterrupted run, because straggler
//! membership, per-round latencies and fault draws are all pure functions of
//! `(seed, round, client)`, never of wall-clock time or process state.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin deadline_rounds
//! ```

use fedcross::{FedCross, FedCrossConfig};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{
    Checkpoint, DeviceModel, FederatedAlgorithm, LocalTrainConfig, RoundPolicy, Simulation,
    SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

fn main() {
    let mut rng = SeededRng::new(55);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 12,
            samples_per_client: 40,
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
            conv_channels: (8, 16),
            fc_hidden: 32,
            kernel: 3,
        },
        &mut rng,
    );

    // 30% of clients are 8x slower; a 2.0 budget means "wait twice as long as
    // a nominal device needs", so every straggler upload blows the deadline.
    let devices = DeviceModel::two_tier(0.3, 8.0, 23);
    let policy = RoundPolicy::Deadline {
        budget: 2.0,
        min_quorum: 2,
    };
    let stragglers: Vec<usize> = (0..data.num_clients())
        .filter(|&c| devices.is_straggler(c))
        .collect();
    println!(
        "fleet: {} clients, stragglers {stragglers:?} ({}), policy deadline(2.0, q=2)",
        data.num_clients(),
        devices.label()
    );

    let fed_config = FedCrossConfig {
        alpha: 0.9,
        ..Default::default()
    };
    let sim_config = SimulationConfig {
        rounds: 20,
        clients_per_round: 4,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 13,
    };
    let halfway = sim_config.rounds / 2;
    let sim = Simulation::new(sim_config, &data, template.clone_model())
        .with_devices(devices)
        .with_round_policy(policy);

    // Reference: the same 20 deadline rounds with no interruption.
    let mut reference = FedCross::new(fed_config, template.params_flat(), 4);
    let uninterrupted = sim.run(&mut reference);
    println!(
        "reference run: accuracy {:.1}%, {} uploads missed the deadline, {} rescued by quorum",
        uninterrupted.final_accuracy_pct(),
        uninterrupted.faults.missed_deadline,
        uninterrupted.faults.quorum_rescued,
    );

    // Phase 1: half the run, then the server dies mid-training.
    let mut algo = FedCross::new(fed_config, template.params_flat(), 4);
    let partial = sim.run_segment(&mut algo, 0, halfway);
    println!(
        "phase 1: rounds 0..{halfway}, accuracy so far {:.1}%, {} deadline misses",
        partial.final_accuracy_pct(),
        partial.faults.missed_deadline,
    );
    let checkpoint_path = std::env::temp_dir().join("fedcross-example-deadline.json");
    sim.checkpoint(&algo, &partial)
        .expect("FedCross supports checkpointing")
        .save(&checkpoint_path)
        .expect("checkpoint saves");
    drop(algo);

    // Phase 2: restart. Latency draws are keyed by (seed, round, client), so
    // the resumed rounds see the exact same stragglers missing the exact same
    // deadlines as the uninterrupted run.
    let restored = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut resumed = FedCross::new(fed_config, template.params_flat(), 4);
    let second = sim
        .resume(&restored, &mut resumed)
        .expect("checkpoint matches the resuming simulation");
    println!(
        "phase 2 (resumed): rounds {halfway}..{}, final accuracy {:.1}%",
        sim_config.rounds,
        second.final_accuracy_pct()
    );

    // The crash was a non-event: identical bits, identical curve, identical
    // communication totals.
    let identical = reference
        .global_params()
        .iter()
        .zip(resumed.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && uninterrupted.history == second.history
        && uninterrupted.comm == second.comm;
    println!(
        "resumed deadline run is bitwise identical to the uninterrupted run: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "resume must be a non-event");

    let _ = std::fs::remove_file(&checkpoint_path);
    println!("\nExpected: the straggler set and every deadline decision replay exactly");
    println!("across the restart — fault-tolerant rounds and fault-tolerant servers compose.");
}
