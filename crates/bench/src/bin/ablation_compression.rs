//! Ablation (extension): upload compression vs. accuracy.
//!
//! Table I of the paper compares methods by *qualitative* communication
//! overhead; this harness measures the actual upload volume and how much of it
//! can be removed by standard compression without hurting accuracy. FedAvg is
//! run with uncompressed uploads, 8-/4-bit stochastic quantization, top-10%
//! sparsification (with and without error feedback) and random-10%
//! sparsification.
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin ablation_compression [--rounds N]
//! ```

use fedcross_bench::report::{print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_compress::{CompressedFedAvg, Compressor, Identity, RandK, TopK, UniformQuantizer};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{Simulation, SimulationConfig};

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5));
    let data = build_task(task, &config, config.seed);

    let schemes: Vec<(Box<dyn Compressor>, bool)> = vec![
        (Box::new(Identity), false),
        (Box::new(UniformQuantizer::new(8, true)), false),
        (Box::new(UniformQuantizer::new(4, true)), true),
        (Box::new(TopK::new(0.1)), true),
        (Box::new(TopK::new(0.1)), false),
        (Box::new(RandK::new(0.1)), false),
    ];

    println!("Ablation — upload compression (CIFAR-10, beta=0.5, CNN, FedAvg)");
    println!(
        "({} clients, K={}, {} rounds)\n",
        config.num_clients, config.clients_per_round, config.rounds
    );
    print_header(&[
        ("Scheme", 26),
        ("Final acc (%)", 14),
        ("Best acc (%)", 14),
        ("Upload ratio", 13),
        ("Saved (MiB)", 12),
    ]);

    let mut json = Vec::new();
    for (compressor, error_feedback) in schemes {
        let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
        let mut algo = CompressedFedAvg::new(
            template.params_flat(),
            compressor,
            error_feedback,
            config.seed.wrapping_add(3),
        );
        let sim_config = SimulationConfig {
            rounds: config.rounds,
            clients_per_round: config.clients_per_round.min(data.num_clients()),
            eval_every: config.eval_every,
            eval_batch_size: 64,
            local: config.local,
            seed: config.seed,
        };
        let name = {
            use fedcross_flsim::FederatedAlgorithm;
            algo.name()
        };
        let result = Simulation::new(sim_config, &data, template).run(&mut algo);
        let stats = algo.upload_stats();
        print_row(&[
            (name.clone(), 26),
            (format!("{:.2}", result.final_accuracy_pct()), 14),
            (format!("{:.2}", result.best_accuracy_pct()), 14),
            (format!("{:.1}x", stats.ratio()), 13),
            (format!("{:.2}", stats.saved_mib()), 12),
        ]);
        json.push(serde_json::json!({
            "scheme": name,
            "error_feedback": error_feedback,
            "final_accuracy_pct": result.final_accuracy_pct(),
            "best_accuracy_pct": result.best_accuracy_pct(),
            "upload_ratio": stats.ratio(),
            "saved_mib": stats.saved_mib(),
            "raw_scalars": stats.raw_scalars,
            "compressed_scalars": stats.compressed_scalars,
        }));
    }

    write_json("ablation_compression.json", &json);
    println!("\nExpected shape: 8-bit quantization is essentially free (~4x smaller uploads at");
    println!("uncompressed accuracy); aggressive top-10% sparsification needs error feedback to");
    println!("stay close to the uncompressed curve, and loses accuracy without it.");
}
