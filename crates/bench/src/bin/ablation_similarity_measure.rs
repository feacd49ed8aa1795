//! Ablation (beyond the paper): cosine vs Euclidean model-similarity measure
//! in the FedCross selection strategies.
//!
//! The paper adopts cosine similarity and explicitly lists other measures
//! (e.g. Euclidean distance) as future work (Section III-B1). This harness
//! runs that extension: both similarity-based strategies under both measures,
//! on CIFAR-10 with β = 1.0 — the Table III setting.
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin ablation_similarity_measure [--rounds N]
//! ```

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_bench::report::{format_mean_std, print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{Simulation, SimulationConfig};

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(1.0));
    let data = build_task(task, &config, config.seed);

    println!("Ablation — model-similarity measure (CIFAR-10, beta=1.0, CNN, alpha=0.99)");
    println!(
        "({} clients, K={}, {} rounds)\n",
        config.num_clients, config.clients_per_round, config.rounds
    );
    print_header(&[
        ("Strategy", 20),
        ("Cosine (paper)", 18),
        ("Euclidean (ext.)", 18),
    ]);

    let mut json = Vec::new();
    for strategy in [
        SelectionStrategy::HighestSimilarity,
        SelectionStrategy::LowestSimilarity,
    ] {
        let mut cells = vec![(strategy.to_string(), 20)];
        let mut row = serde_json::json!({ "strategy": strategy.to_string() });
        for measure in [SimilarityMeasure::Cosine, SimilarityMeasure::Euclidean] {
            let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
            let fed_config = FedCrossConfig {
                alpha: 0.99,
                strategy,
                measure,
                acceleration: Default::default(),
            };
            let mut algo = FedCross::new(
                fed_config,
                template.params_flat(),
                config.clients_per_round.min(data.num_clients()),
            );
            let sim_config = SimulationConfig {
                rounds: config.rounds,
                clients_per_round: config.clients_per_round.min(data.num_clients()),
                eval_every: config.eval_every,
                eval_batch_size: 64,
                local: config.local,
                seed: config.seed,
            };
            let result = Simulation::new(sim_config, &data, template).run(&mut algo);
            let (mean, std) = result.history.mean_std_last(3);
            cells.push((format_mean_std(mean, std), 18));
            row[measure.label()] = serde_json::json!({ "mean": mean, "std": std });
        }
        print_row(&cells);
        json.push(row);
    }
    write_json("ablation_similarity_measure.json", &json);
    println!("\nExpected: the two measures land in the same accuracy range — the choice of");
    println!("similarity measure is not the load-bearing part of FedCross (supporting the");
    println!("paper's decision to defer it to future work).");
}
