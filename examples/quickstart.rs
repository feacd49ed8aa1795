//! Quickstart: train FedCross and FedAvg on a small synthetic federated
//! image-classification task and compare their learning curves.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin quickstart
//! ```

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

fn main() {
    // 1. Build a federation: 12 clients with Dirichlet(0.5)-skewed synthetic
    //    CIFAR-10-style data plus a held-out global test set.
    let mut rng = SeededRng::new(42);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 12,
            samples_per_client: 40,
            test_samples: 200,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    println!(
        "federation: {} clients, {} training samples, {} test samples",
        data.num_clients(),
        data.total_train_samples(),
        data.test_set().len()
    );

    // 2. Every method starts from the same CNN initialisation.
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (8, 16),
            fc_hidden: 32,
            kernel: 3,
        },
        &mut rng,
    );
    println!("model: {} ({} parameters)", template.arch_name(), template.param_count());

    // 3. Shared simulation settings: 4 clients per round, 20 rounds.
    let sim_config = SimulationConfig {
        rounds: 20,
        clients_per_round: 4,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 7,
    };

    // 4. Run FedAvg and FedCross and compare.
    for spec in [AlgorithmSpec::FedAvg, AlgorithmSpec::fedcross_default()] {
        let mut algorithm = build_algorithm(
            spec,
            template.params_flat(),
            data.num_clients(),
            sim_config.clients_per_round,
        );
        let sim = Simulation::new(sim_config, &data, template.clone_model());
        let result = sim.run_with_observer(algorithm.as_mut(), |round, record| {
            println!(
                "  [{:<8}] round {:>3}: accuracy {:>5.1}%  test loss {:.3}",
                spec.label(),
                round,
                record.accuracy * 100.0,
                record.test_loss
            );
        });
        println!(
            "{}: best accuracy {:.1}%, total communication {:.1} MiB\n",
            spec.label(),
            result.best_accuracy_pct(),
            result.comm.total_mib()
        );
    }
    println!("Expected: FedCross ends at or above FedAvg on this skewed federation.");
}
