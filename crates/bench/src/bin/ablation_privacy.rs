//! Ablation (extension): the privacy/utility trade-off of differentially
//! private FedAvg and FedCross.
//!
//! Section IV-F1 of the paper argues that FedCross "can easily integrate
//! existing privacy-preserving techniques" because its dispatch / train /
//! upload pipeline is identical to FedAvg's. This harness measures that claim:
//! both methods are run with per-client delta clipping and Gaussian noise at a
//! sweep of noise multipliers, reporting the final accuracy and the (ε, δ)
//! guarantee spent (Rényi accountant, δ = 1e-5).
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin ablation_privacy [--rounds N]
//! ```

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy};
use fedcross_bench::report::{print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{FederatedAlgorithm, Simulation, SimulationConfig};
use fedcross_privacy::mechanism::{DpConfig, NoisePlacement};
use fedcross_privacy::algorithms::{DpFedAvg, DpFedCross, DpFedCrossConfig};

const DELTA: f64 = 1e-5;
const CLIP_NORM: f32 = 1.0;

fn sim_config(config: &ExperimentConfig, data_clients: usize) -> SimulationConfig {
    SimulationConfig {
        rounds: config.rounds,
        clients_per_round: config.clients_per_round.min(data_clients),
        eval_every: config.eval_every,
        eval_batch_size: 64,
        local: config.local,
        seed: config.seed,
    }
}

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());
    let noise_multipliers: Vec<f32> = vec![0.0, 0.05, 0.2, 1.0];

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5));
    let data = build_task(task, &config, config.seed);
    let k = config.clients_per_round.min(data.num_clients());

    println!("Ablation — differential privacy (CIFAR-10, beta=0.5, CNN, clip C={CLIP_NORM})");
    println!(
        "({} clients, K={}, {} rounds, central Gaussian noise, delta={DELTA})\n",
        config.num_clients, config.clients_per_round, config.rounds
    );
    print_header(&[
        ("Method", 14),
        ("Noise z", 9),
        ("Final acc (%)", 14),
        ("Best acc (%)", 14),
        ("Epsilon", 12),
    ]);

    let mut json = Vec::new();
    for &noise_multiplier in &noise_multipliers {
        let dp = DpConfig {
            clip_norm: CLIP_NORM,
            noise_multiplier,
            placement: NoisePlacement::Central,
        };

        // DP-FedAvg.
        let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
        let mut fedavg = DpFedAvg::new(template.params_flat(), dp, config.seed.wrapping_add(7));
        let result = Simulation::new(sim_config(&config, data.num_clients()), &data, template)
            .run(&mut fedavg);
        let epsilon = fedavg.epsilon(DELTA).unwrap_or(f64::INFINITY);
        emit_row(
            "DP-FedAvg",
            noise_multiplier,
            result.final_accuracy_pct(),
            result.best_accuracy_pct(),
            epsilon,
            &mut json,
        );

        // DP-FedCross (scale-mapped alpha = 0.9, lowest similarity).
        let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
        let mut fedcross = DpFedCross::new(
            DpFedCrossConfig {
                alpha: 0.9,
                strategy: SelectionStrategy::LowestSimilarity,
                dp,
                ..Default::default()
            },
            template.params_flat(),
            k,
            config.seed.wrapping_add(11),
        );
        let result = Simulation::new(sim_config(&config, data.num_clients()), &data, template)
            .run(&mut fedcross);
        let epsilon = fedcross.epsilon(DELTA).unwrap_or(f64::INFINITY);
        emit_row(
            "DP-FedCross",
            noise_multiplier,
            result.final_accuracy_pct(),
            result.best_accuracy_pct(),
            epsilon,
            &mut json,
        );
    }

    // Non-private references.
    for (label, private) in [("FedAvg", false), ("FedCross", true)] {
        let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
        let mut algo: Box<dyn FederatedAlgorithm> = if private {
            Box::new(FedCross::new(
                FedCrossConfig {
                    alpha: 0.9,
                    strategy: SelectionStrategy::LowestSimilarity,
                    ..Default::default()
                },
                template.params_flat(),
                k,
            ))
        } else {
            Box::new(DpFedAvg::new(
                template.params_flat(),
                DpConfig {
                    clip_norm: 1e6,
                    noise_multiplier: 0.0,
                    placement: NoisePlacement::Central,
                },
                0,
            ))
        };
        let result = Simulation::new(sim_config(&config, data.num_clients()), &data, template)
            .run(algo.as_mut());
        emit_row(
            &format!("{label} (no DP)"),
            0.0,
            result.final_accuracy_pct(),
            result.best_accuracy_pct(),
            f64::INFINITY,
            &mut json,
        );
    }

    write_json("ablation_privacy.json", &json);
    println!("\nExpected shape: accuracy degrades as the noise multiplier grows while epsilon");
    println!("shrinks, and at every noise level DP-FedCross degrades the same way DP-FedAvg does");
    println!("— the Section IV-F1 claim that the multi-to-multi scheme composes with FedAvg-style");
    println!("privacy mechanisms. (At this reduced scale FedCross itself converges more slowly");
    println!("than FedAvg — see the Table II notes in EXPERIMENTS.md — so compare each method");
    println!("against its own no-DP row, not the two methods against each other.)");
}

fn emit_row(
    method: &str,
    noise: f32,
    final_acc: f32,
    best_acc: f32,
    epsilon: f64,
    json: &mut Vec<serde_json::Value>,
) {
    let epsilon_text = if epsilon.is_finite() {
        format!("{epsilon:.2}")
    } else {
        "inf".to_string()
    };
    print_row(&[
        (method.to_string(), 14),
        (format!("{noise:.2}"), 9),
        (format!("{final_acc:.2}"), 14),
        (format!("{best_acc:.2}"), 14),
        (epsilon_text, 12),
    ]);
    json.push(serde_json::json!({
        "method": method,
        "noise_multiplier": noise,
        "final_accuracy_pct": final_acc,
        "best_accuracy_pct": best_acc,
        "epsilon": if epsilon.is_finite() { Some(epsilon) } else { None },
    }));
}
