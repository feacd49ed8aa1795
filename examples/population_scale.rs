//! A million-client federation on a laptop: the sharded lazy data plane.
//!
//! The eager [`FederatedDataset`](fedcross_data::federated::FederatedDataset)
//! materialises every client's shard up front — at 10^6 clients that is
//! gigabytes of tensors before the first round runs. This example builds
//! the same federation as a
//! [`SynthTaskSource`] instead: every client's shard is a pure function of
//! `(task_seed, client_id)`, materialised on demand through a bounded
//! [`ShardPlane`] cache (here: 32 shards resident, 8 prefetch slots), so
//! total memory stays flat no matter the population.
//!
//! Because shards are derived, not stored, eviction is a bitwise no-op and
//! the whole run stays deterministic: we checkpoint FedCross half-way,
//! "restart the server", resume — and assert the resumed run is **bitwise
//! identical** to an uninterrupted one, exactly as on the eager backend.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin population_scale
//! ```

use std::sync::Arc;

use fedcross::{FedCross, FedCrossConfig};
use fedcross_data::federated::SynthCifar10Config;
use fedcross_data::{Heterogeneity, ShardPlane, ShardPlaneConfig, SynthTaskSource};
use fedcross_flsim::{
    Checkpoint, FederatedAlgorithm, LocalTrainConfig, Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

const NUM_CLIENTS: usize = 1_000_000;
const K: usize = 10;

fn main() {
    // One million clients, constructed in O(1): only the shared class
    // prototypes and the global test set are materialised here.
    let source = SynthTaskSource::cifar10(
        &SynthCifar10Config {
            num_clients: NUM_CLIENTS,
            samples_per_client: 20,
            test_samples: 200,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.3),
        55,
    );
    let plane = ShardPlane::new(
        Arc::new(source),
        ShardPlaneConfig {
            capacity: 32,
            prefetch_depth: 8,
        },
    );
    println!(
        "federation: {} clients, lazily sharded ({} resident + {} prefetch slots)",
        plane.num_clients(),
        plane.config().capacity,
        plane.config().prefetch_depth,
    );

    let mut rng = SeededRng::new(55);
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

    let fed_config = FedCrossConfig {
        alpha: 0.9,
        ..Default::default()
    };
    let sim_config = SimulationConfig {
        rounds: 6,
        clients_per_round: K,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 13,
    };
    let halfway = sim_config.rounds / 2;
    let sim = Simulation::new_sharded(sim_config, &plane, template.clone_model());

    // Reference: the full run with no interruption.
    let mut reference = FedCross::new(fed_config, template.params_flat(), K);
    let uninterrupted = sim.run(&mut reference);
    println!(
        "uninterrupted run: {} rounds, final accuracy {:.1}%",
        sim_config.rounds,
        uninterrupted.final_accuracy_pct()
    );

    // Phase 1: half the run, then an atomic checkpoint.
    let mut algo = FedCross::new(fed_config, template.params_flat(), K);
    let partial = sim.run_segment(&mut algo, 0, halfway);
    let checkpoint_path = std::env::temp_dir().join("fedcross-population-scale.json");
    let checkpoint = sim
        .checkpoint(&algo, &partial)
        .expect("FedCross supports checkpointing");
    checkpoint.save(&checkpoint_path).expect("checkpoint saves");
    println!(
        "checkpointed {} middleware models at round {} to {}",
        checkpoint.state.models.len(),
        checkpoint.rounds_completed,
        checkpoint_path.display()
    );

    // Phase 2: restart and resume. Client shards this half touches are
    // re-materialised from (task_seed, client_id) — nothing about them was
    // ever persisted, and nothing about them could have drifted.
    let restored = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut resumed = FedCross::new(fed_config, template.params_flat(), K);
    let second = sim
        .resume(&restored, &mut resumed)
        .expect("checkpoint matches the resuming simulation");
    println!(
        "resumed run: rounds {halfway}..{}, final accuracy {:.1}%",
        sim_config.rounds,
        second.final_accuracy_pct()
    );

    let identical = reference
        .global_params()
        .iter()
        .zip(resumed.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && uninterrupted.history == second.history
        && uninterrupted.comm == second.comm;
    println!(
        "resumed run is bitwise identical to the uninterrupted run: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "resume must be a non-event at any population size");

    let stats = plane.stats();
    println!(
        "shard plane over all three runs: {} hits, {} misses, {} prefetched, \
         {} evictions, peak {} resident shards (of {} clients)",
        stats.hits,
        stats.misses,
        stats.prefetched,
        stats.evictions,
        stats.peak_resident,
        NUM_CLIENTS
    );
    assert!(
        stats.peak_resident <= plane.config().capacity + plane.config().prefetch_depth,
        "resident shards must stay within capacity + prefetch depth"
    );

    let _ = std::fs::remove_file(&checkpoint_path);
    println!("\nExpected: a million-client run whose memory footprint is a few dozen");
    println!("shards, with checkpoint/resume still bitwise exact.");
}
