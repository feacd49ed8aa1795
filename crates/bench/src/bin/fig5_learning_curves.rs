//! Figure 5: learning curves (accuracy vs communication round) of the six
//! methods on the CIFAR-10 stand-in.
//!
//! The default run uses the CNN under β = 0.1 and IID; `--all-settings` adds
//! β = 0.5 and β = 1.0, and `--model resnet|vgg` switches the architecture
//! (the paper's sub-figure rows). Usage:
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig5_learning_curves [--rounds N] [--all-settings] [--model resnet]
//! ```

use fedcross_bench::report::{format_curve, write_json};
use fedcross_bench::{build_model, build_task, run_method_on, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::Heterogeneity;

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());
    let model = args.value("--model").unwrap_or(ModelSpec::Cnn);

    let settings: Vec<Heterogeneity> = if args.flag("--all-settings") {
        vec![
            Heterogeneity::Dirichlet(0.1),
            Heterogeneity::Dirichlet(0.5),
            Heterogeneity::Dirichlet(1.0),
            Heterogeneity::Iid,
        ]
    } else {
        vec![Heterogeneity::Dirichlet(0.1), Heterogeneity::Iid]
    };

    let mut json = Vec::new();
    for heterogeneity in settings {
        let task = TaskSpec::Cifar10(heterogeneity);
        let data = build_task(task, &config, config.seed);
        println!(
            "\nFigure 5 — learning curves, {} with {} ({} rounds, K={})",
            model.label(),
            task.label(),
            config.rounds,
            config.clients_per_round
        );
        println!("  (each series: round:accuracy%)");

        for spec in fedcross_bench::scaled_lineup() {
            let template = build_model(model, &data, config.seed.wrapping_add(1));
            let outcome =
                run_method_on(spec, &data, template, &config, &task.label(), model.label());
            let best = outcome.result.best_accuracy_pct();
            let fluctuation = outcome.result.history.max_fluctuation_last(10) * 100.0;
            println!(
                "  {:<9} best {:>5.1}%  late fluctuation {:>4.1}pp  curve: {}",
                spec.label(),
                best,
                fluctuation,
                format_curve(&outcome.result.history, 8)
            );
            json.push(serde_json::json!({
                "setting": heterogeneity.label(),
                "model": model.label(),
                "method": spec.label(),
                "best_accuracy_pct": best,
                "late_fluctuation_pp": fluctuation,
                "curve": outcome.result.history.accuracy_curve(),
            }));
        }
    }
    write_json("fig5_learning_curves.json", &json);
    println!("\nPaper shape to check: FedCross ends highest with the smallest late fluctuations;");
    println!("with large models it can lag the baselines in the earliest rounds.");
}
