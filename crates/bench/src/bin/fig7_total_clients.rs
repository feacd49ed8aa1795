//! Figure 7: impact of the total number of clients |C| (CIFAR-10, β = 0.5)
//! with 10% participation.
//!
//! The total sample budget is held fixed, so more clients means less data per
//! client — exactly the paper's construction. Usage:
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig7_total_clients [--rounds N] [--sizes 20,50,100]
//! ```

use fedcross::AlgorithmSpec;
use fedcross_bench::report::{format_curve, write_json};
use fedcross_bench::{build_model, build_task, run_method_on, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::Heterogeneity;

fn main() {
    let args = Args::from_env();
    let base = args.apply(ExperimentConfig::default());

    let sizes: Vec<usize> = args.list("--sizes").unwrap_or_else(|| vec![20, 40, 80]);
    // Fixed total training budget, shared across clients.
    let total_samples = base.num_clients * base.samples_per_client;

    let task_heterogeneity = Heterogeneity::Dirichlet(0.5);

    println!(
        "Figure 7 — impact of the total number of clients (10% participation, {} total samples, {} rounds)",
        total_samples, base.rounds
    );

    let mut json = Vec::new();
    for &num_clients in &sizes {
        let clients_per_round = (num_clients / 10).max(2);
        let config = ExperimentConfig {
            num_clients,
            clients_per_round,
            samples_per_client: (total_samples / num_clients).max(4),
            ..base
        };
        let task = TaskSpec::Cifar10(task_heterogeneity);
        let data = build_task(task, &config, config.seed);
        println!(
            "\n  |C| = {num_clients} (K = {clients_per_round}, {} samples/client)",
            config.samples_per_client
        );
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
                "total_clients": num_clients,
                "clients_per_round": clients_per_round,
                "samples_per_client": config.samples_per_client,
                "method": spec.label(),
                "best_accuracy_pct": outcome.result.best_accuracy_pct(),
                "curve": outcome.result.history.accuracy_curve(),
            }));
        }
    }
    write_json("fig7_total_clients.json", &json);
    println!("\nPaper shape to check: FedCross wins at every federation size, and more clients");
    println!("(hence less data per client) slows everyone's convergence.");
}
