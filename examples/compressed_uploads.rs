//! Compressed uploads: shrink client→server traffic with quantization and
//! top-k sparsification and see what it costs in accuracy — then checkpoint
//! a compressed run mid-way, "restart", and resume bitwise.
//!
//! Stochastic compression draws its dithering randomness from
//! `(CompressionDither, seed, absolute round, client id)`, and the
//! checkpoint carries the `UploadStats` counters plus the per-client
//! error-feedback residuals, so a resumed run reproduces the uninterrupted
//! one exactly — accounting included.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin compressed_uploads
//! ```

use fedcross_compress::{CompressedFedAvg, Compressor, Identity, TopK, UniformQuantizer};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{
    Checkpoint, FederatedAlgorithm, LocalTrainConfig, Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

fn main() {
    let mut rng = SeededRng::new(33);
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
    println!(
        "federation: {} clients, model: {} parameters ({:.2} MiB per upload)\n",
        data.num_clients(),
        template.param_count(),
        template.param_count() as f64 * 4.0 / (1024.0 * 1024.0)
    );

    let sim_config = SimulationConfig {
        rounds: 20,
        clients_per_round: 4,
        eval_every: 5,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 11,
    };

    let schemes: Vec<(Box<dyn Compressor>, bool)> = vec![
        (Box::new(Identity), false),
        (Box::new(UniformQuantizer::new(8, true)), false),
        (Box::new(TopK::new(0.1)), true),
    ];

    for (compressor, error_feedback) in schemes {
        let mut algo = CompressedFedAvg::new(
            template.params_flat(),
            compressor,
            error_feedback,
            77,
        );
        let name = algo.name();
        let result = Simulation::new(sim_config, &data, template.clone_model()).run(&mut algo);
        let stats = algo.upload_stats();
        println!(
            "{name:<32} best accuracy {:>5.1}%   upload {:>5.1}x smaller   saved {:.2} MiB",
            result.best_accuracy_pct(),
            stats.ratio(),
            stats.saved_mib()
        );
    }

    // Checkpoint/resume: the top-k + error-feedback scheme carries the most
    // cross-round state (global model, upload counters, per-client residual
    // memory) — interrupt it half-way and prove the restart is a non-event.
    let build = || {
        CompressedFedAvg::new(template.params_flat(), Box::new(TopK::new(0.1)), true, 77)
    };
    let sim = Simulation::new(sim_config, &data, template.clone_model());
    let mut reference = build();
    let uninterrupted = sim.run(&mut reference);

    let halfway = sim_config.rounds / 2;
    let mut interrupted = build();
    let partial = sim.run_segment(&mut interrupted, 0, halfway);
    let checkpoint_path =
        std::env::temp_dir().join("fedcross-example-compressed-checkpoint.json");
    sim.checkpoint(&interrupted, &partial)
        .expect("CompressedFedAvg supports checkpointing")
        .save(&checkpoint_path)
        .expect("checkpoint saves");
    println!(
        "\ncheckpointed {} at round {halfway} ({} uploads so far) to {}",
        interrupted.name(),
        interrupted.upload_stats().uploads,
        checkpoint_path.display()
    );
    drop(interrupted); // the "crash"

    let restored = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut resumed = build();
    let second = sim
        .resume(&restored, &mut resumed)
        .expect("checkpoint matches the resuming simulation");
    let identical = reference
        .global_params()
        .iter()
        .zip(resumed.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && uninterrupted.history == second.history
        && reference.upload_stats() == resumed.upload_stats();
    println!(
        "resumed compressed run is bitwise identical (params, history, upload stats): {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "compressed resume must be a non-event");
    let _ = std::fs::remove_file(&checkpoint_path);

    println!("\nExpected: 8-bit quantized uploads match the uncompressed accuracy at ~4x less");
    println!("traffic; top-10% sparsification with error feedback trades a little accuracy for");
    println!("~5x less traffic; and a mid-run restart resumes models, residual memory and");
    println!("upload accounting exactly where they left off.");
}
