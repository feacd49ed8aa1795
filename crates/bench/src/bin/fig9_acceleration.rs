//! Figure 9: FedCross training-acceleration variants (vanilla, w/ PM, w/ DA,
//! w/ PM-DA) on the CIFAR-10 stand-in under β = 0.1 and IID.
//!
//! The acceleration window scales with the configured round budget (the paper
//! uses 100 of 1000 rounds; the harness uses the same 10% ratio by default).
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig9_acceleration [--rounds N] [--model vgg]
//! ```

use fedcross::{Acceleration, AlgorithmSpec, SelectionStrategy};
use fedcross_bench::report::{format_curve, write_json};
use fedcross_bench::{build_model, build_task, run_method_on, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::Heterogeneity;

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());
    let model = args.value("--model").unwrap_or(ModelSpec::Cnn);
    // Acceleration is active for the first ~third of training at reduced scale
    // (the paper uses 100 of 1000 rounds at full scale).
    let window = (config.rounds / 3).max(2);
    let variants = [
        ("FedCross", Acceleration::None),
        (
            "FedCross w/ PM",
            Acceleration::PropellerModels {
                propellers: 3,
                until_round: window,
            },
        ),
        (
            "FedCross w/ DA",
            Acceleration::DynamicAlpha {
                start_alpha: 0.5,
                until_round: window,
            },
        ),
        (
            "FedCross w/ PM-DA",
            Acceleration::PropellerThenDynamic {
                propellers: 3,
                switch_round: window / 2,
                until_round: window,
            },
        ),
    ];

    let mut json = Vec::new();
    for heterogeneity in [Heterogeneity::Dirichlet(0.1), Heterogeneity::Iid] {
        let task = TaskSpec::Cifar10(heterogeneity);
        let data = build_task(task, &config, config.seed);
        println!(
            "\nFigure 9 — acceleration variants, {} with {} ({} rounds, window {} rounds)",
            model.label(),
            task.label(),
            config.rounds,
            window
        );
        for (label, acceleration) in variants {
            let spec = AlgorithmSpec::FedCross {
                alpha: 0.99,
                strategy: SelectionStrategy::LowestSimilarity,
                acceleration,
            };
            let template = build_model(model, &data, config.seed.wrapping_add(1));
            let outcome = run_method_on(spec, &data, template, &config, &task.label(), model.label());
            // Early-phase accuracy = accuracy at the end of the acceleration window.
            let early = outcome
                .result
                .history
                .records()
                .iter()
                .filter(|r| r.round <= window)
                .map(|r| r.accuracy * 100.0)
                .fold(0.0f32, f32::max);
            println!(
                "  {:<18} early(≤{window}) {:>5.1}%  best {:>5.1}%  curve: {}",
                label,
                early,
                outcome.result.best_accuracy_pct(),
                format_curve(&outcome.result.history, 6)
            );
            json.push(serde_json::json!({
                "setting": heterogeneity.label(),
                "variant": label,
                "early_accuracy_pct": early,
                "best_accuracy_pct": outcome.result.best_accuracy_pct(),
                "curve": outcome.result.history.accuracy_curve(),
            }));
        }
    }
    write_json("fig9_acceleration.json", &json);
    println!("\nPaper shape to check: all accelerated variants reach higher accuracy early in");
    println!("training than vanilla FedCross, at a small cost in final accuracy.");
}
