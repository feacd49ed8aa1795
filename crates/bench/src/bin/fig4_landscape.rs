//! Figure 4 / RQ1: loss-landscape comparison between FedAvg and FedCross
//! global models.
//!
//! Trains both methods on the CIFAR-10 stand-in (β = 0.1 and IID), then
//! reports (i) a sharpness score — the expected loss rise under random
//! norm-bounded perturbations — and (ii) a small 2-D loss surface grid around
//! each trained global model. The paper's claim to reproduce: FedCross'
//! global model sits in a flatter region (lower sharpness / flatter surface).
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin fig4_landscape [--rounds N]
//! ```

use fedcross::AlgorithmSpec;
use fedcross_bench::report::write_json;
use fedcross_bench::{build_model, build_task, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::landscape::{loss_surface_2d, sharpness};
use fedcross_flsim::{Simulation, SimulationConfig};
use fedcross_tensor::SeededRng;

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());
    let resolution: usize = args.value("--resolution").unwrap_or(5);
    let radius: f32 = args.value("--radius").unwrap_or(0.3);

    let mut json = Vec::new();
    for heterogeneity in [Heterogeneity::Dirichlet(0.1), Heterogeneity::Iid] {
        let task = TaskSpec::Cifar10(heterogeneity);
        let data = build_task(task, &config, config.seed);
        println!("\nFigure 4 — loss landscape, {}", task.label());

        for spec in [AlgorithmSpec::FedAvg, fedcross_bench::scaled_fedcross()] {
            let template = build_model(ModelSpec::Cnn, &data, config.seed.wrapping_add(1));
            let mut algorithm = fedcross::build_algorithm(
                spec,
                template.params_flat(),
                data.num_clients(),
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
            let analysis_template = template.clone_model();
            let result = Simulation::new(sim_config, &data, template).run(algorithm.as_mut());
            let trained = algorithm.global_params();
            let final_acc = result.final_accuracy_pct();

            let mut rng = SeededRng::new(config.seed.wrapping_add(7));
            let sharp = sharpness(
                analysis_template.as_ref(),
                &trained,
                data.test_set(),
                0.2,
                6,
                64,
                &mut rng,
            );
            let surface = loss_surface_2d(
                analysis_template.as_ref(),
                &trained,
                data.test_set(),
                resolution,
                radius,
                64,
                &mut SeededRng::new(config.seed.wrapping_add(8)),
            );

            println!(
                "  {:<9} final acc {:>5.1}%  sharpness(eps=0.2) {:>7.4}  surface mean rise {:>7.4}",
                spec.label(),
                final_acc,
                sharp,
                surface.mean_rise()
            );
            println!("    loss surface (rows = d1, cols = d2, centre = trained model):");
            for row in &surface.loss {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:6.3}")).collect();
                println!("      [{}]", cells.join(" "));
            }
            json.push(serde_json::json!({
                "heterogeneity": heterogeneity.label(),
                "method": spec.label(),
                "final_accuracy_pct": final_acc,
                "sharpness": sharp,
                "surface_mean_rise": surface.mean_rise(),
                "surface": surface.loss,
            }));
        }
    }
    write_json("fig4_landscape.json", &json);
    println!("\nPaper shape to check: FedCross' sharpness / mean rise is below FedAvg's");
    println!("in both the beta=0.1 and IID settings.");
}
