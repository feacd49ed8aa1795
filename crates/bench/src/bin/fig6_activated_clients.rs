//! Figure 6: impact of the number of activated clients K per round
//! (CIFAR-10, β = 0.1).
//!
//! Sweeps K while keeping the federation fixed, running FedCross and the
//! FedAvg reference for each K. Usage:
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig6_activated_clients [--rounds N] [--ks 2,4,8]
//! ```

use fedcross::AlgorithmSpec;
use fedcross_bench::report::{format_curve, write_json};
use fedcross_bench::{build_model, build_task, run_method_on, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};

fn main() {
    let args = Args::from_env();
    let base = args.apply(ExperimentConfig::default());

    let ks: Vec<usize> = args.list("--ks").unwrap_or_else(|| vec![2, 4, 8]);

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.1));
    let data = build_task(task, &base, base.seed);

    println!(
        "Figure 6 — impact of activated clients K ({} clients total, {} rounds, {})",
        base.num_clients, base.rounds, task.label()
    );

    let mut json = Vec::new();
    for &k in &ks {
        if k > data.num_clients() || k < 2 {
            println!("  (skipping K={k}: outside the valid range)");
            continue;
        }
        let config = ExperimentConfig {
            clients_per_round: k,
            ..base
        };
        println!("\n  K = {k}");
        for spec in [AlgorithmSpec::FedAvg, fedcross_bench::scaled_fedcross()] {
            let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
            let outcome = run_method_on(spec, &data, template, &config, &task.label(), "CNN");
            println!(
                "    {:<9} best {:>5.1}%  curve: {}",
                spec.label(),
                outcome.result.best_accuracy_pct(),
                format_curve(&outcome.result.history, 6)
            );
            json.push(serde_json::json!({
                "k": k,
                "method": spec.label(),
                "best_accuracy_pct": outcome.result.best_accuracy_pct(),
                "curve": outcome.result.history.accuracy_curve(),
            }));
        }
    }
    write_json("fig6_activated_clients.json", &json);
    println!("\nPaper shape to check: FedCross beats FedAvg at every K; accuracy grows with K");
    println!("for small K and saturates for larger K, with smoother curves at larger K.");
}
