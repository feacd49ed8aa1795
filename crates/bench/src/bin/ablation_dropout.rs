//! Ablation (extension): robustness to client dropout.
//!
//! The paper assumes every selected client uploads every round. Real
//! federations lose clients mid-round, and FedCross is structurally more
//! exposed than FedAvg: a dropped client means one middleware model simply
//! skips the round. This harness sweeps the per-contact dropout probability
//! for FedAvg and FedCross and reports accuracy plus the realised number of
//! client contacts.
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin ablation_dropout [--rounds N]
//! ```

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_bench::report::{format_mean_std, print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, scaled_fedcross, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{AvailabilityModel, Simulation, SimulationConfig};

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());
    let dropout_probs = [0.0f32, 0.1, 0.3, 0.5];

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5));
    let data = build_task(task, &config, config.seed);
    let k = config.clients_per_round.min(data.num_clients());

    println!("Ablation — client dropout robustness (CIFAR-10, beta=0.5, CNN)");
    println!(
        "({} clients, K={}, {} rounds; dropped clients never upload)\n",
        config.num_clients, config.clients_per_round, config.rounds
    );
    print_header(&[
        ("Method", 10),
        ("Dropout", 9),
        ("Accuracy (%)", 16),
        ("Best (%)", 10),
        ("Contacts", 10),
    ]);

    let mut json = Vec::new();
    for &prob in &dropout_probs {
        for spec in [AlgorithmSpec::FedAvg, scaled_fedcross()] {
            let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
            let mut algo = build_algorithm(spec, template.params_flat(), data.num_clients(), k);
            let sim_config = SimulationConfig {
                rounds: config.rounds,
                clients_per_round: k,
                eval_every: config.eval_every,
                eval_batch_size: 64,
                local: config.local,
                seed: config.seed,
            };
            let availability = if prob > 0.0 {
                AvailabilityModel::RandomDropout { prob }
            } else {
                AvailabilityModel::AlwaysOn
            };
            let result = Simulation::new(sim_config, &data, template)
                .with_availability(availability)
                .run(algo.as_mut());
            let (mean, std) = result.history.mean_std_last(3);
            print_row(&[
                (spec.label().to_string(), 10),
                (format!("{:.0}%", prob * 100.0), 9),
                (format_mean_std(mean, std), 16),
                (format!("{:.2}", result.best_accuracy_pct()), 10),
                (format!("{}", result.comm.client_contacts), 10),
            ]);
            json.push(serde_json::json!({
                "method": spec.label(),
                "dropout_prob": prob,
                "accuracy_mean_pct": mean,
                "accuracy_std_pct": std,
                "best_accuracy_pct": result.best_accuracy_pct(),
                "client_contacts": result.comm.client_contacts,
            }));
        }
    }

    write_json("ablation_dropout.json", &json);
    println!("\nExpected shape: both methods degrade gracefully as dropout grows (fewer");
    println!("effective updates per round) and no run crashes or diverges: a FedCross middleware");
    println!("model whose client drops out simply skips the round and is re-dispatched later.");
    println!("FedCross is hit harder at this reduced round budget because every skipped upload");
    println!("also delays middleware unification (its known slow-convergence trait, Sec. IV-F2);");
    println!("use --rounds 60 or --full to approach the paper's regime.");
}
