//! Figure 3: client data distributions under Dirichlet non-IID settings.
//!
//! Prints the per-client per-class sample counts of ten sampled clients for
//! β ∈ {0.1, 0.5, 1.0} (and IID for reference), as ASCII dot plots plus the
//! skew summary. Usage:
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig3_distributions [--clients N]
//! ```

use fedcross_bench::report::{ascii_distribution_row, write_json};
use fedcross_bench::{build_task, Args, ExperimentConfig, TaskSpec};
use fedcross_data::partition::skew_score;
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_tensor::SeededRng;

fn main() {
    let args = Args::from_env();
    let mut config = args.apply(ExperimentConfig::default());
    // Figure 3 uses 100 clients with 10 sampled for display.
    if !args.flag("--smoke") {
        config.num_clients = config.num_clients.max(50);
    }

    let settings = [
        Heterogeneity::Dirichlet(0.1),
        Heterogeneity::Dirichlet(0.5),
        Heterogeneity::Dirichlet(1.0),
        Heterogeneity::Iid,
    ];

    let mut json = Vec::new();
    for heterogeneity in settings {
        let data = build_task(TaskSpec::Cifar10(heterogeneity), &config, config.seed);
        let counts = data.class_count_matrix();
        let mut rng = SeededRng::new(config.seed);
        let mut sampled = rng.sample_without_replacement(data.num_clients(), 10.min(data.num_clients()));
        sampled.sort_unstable();

        println!(
            "\nFigure 3 — data distribution of {} sampled clients, {}",
            sampled.len(),
            heterogeneity.label()
        );
        println!("(rows = clients, columns = classes 0..9; darker = larger share)");
        for &client in &sampled {
            println!(
                "  client {:>3} |{}| {:>3} samples",
                client,
                ascii_distribution_row(&counts[client]),
                counts[client].iter().sum::<usize>()
            );
        }
        let skew = skew_score(&counts);
        println!("  skew score (mean max-class share): {skew:.3}");
        json.push(serde_json::json!({
            "heterogeneity": heterogeneity.label(),
            "skew_score": skew,
            "sampled_clients": sampled,
            "counts": sampled.iter().map(|&c| counts[c].clone()).collect::<Vec<_>>(),
        }));
    }
    write_json("fig3_distributions.json", &json);
    println!("\nPaper shape to check: beta=0.1 is strongly skewed (few classes per client),");
    println!("beta=1.0 is mildly skewed, IID is uniform.");
}
