//! Federated sentiment analysis over naturally non-IID users (the Sent140
//! scenario): every client is one user with their own vocabulary and topic
//! bias, and an LSTM classifier is trained without any raw text leaving the
//! clients.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin text_sentiment_federation
//! ```

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::{FederatedDataset, SynthSent140Config};
use fedcross_data::ClientDataSource;
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::models::{lstm_classifier, LstmConfig};
use fedcross_tensor::SeededRng;

fn main() {
    let mut rng = SeededRng::new(5);
    let data = FederatedDataset::synth_sent140(
        &SynthSent140Config {
            num_clients: 20,
            samples_per_client: 40,
            test_samples: 200,
            ..Default::default()
        },
        &mut rng,
    );
    println!(
        "federation: {} users, {} tweets, binary sentiment, test set {}",
        data.num_clients(),
        data.total_train_samples(),
        data.test_set().len()
    );

    let template = lstm_classifier(
        LstmConfig {
            vocab: 64,
            embed_dim: 16,
            hidden_dim: 32,
        },
        2,
        &mut rng,
    );
    println!("model: LSTM sentiment classifier ({} parameters)", template.param_count());

    let sim_config = SimulationConfig {
        rounds: 15,
        clients_per_round: 4,
        eval_every: 3,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 13,
    };

    for spec in [
        AlgorithmSpec::FedAvg,
        AlgorithmSpec::FedProx { mu: 0.01 },
        AlgorithmSpec::fedcross_default(),
    ] {
        let mut algorithm = build_algorithm(
            spec,
            template.params_flat(),
            data.num_clients(),
            sim_config.clients_per_round,
        );
        let result = Simulation::new(sim_config, &data, template.clone_model())
            .run(algorithm.as_mut());
        println!(
            "{:<9} best accuracy {:>5.1}%  final accuracy {:>5.1}%",
            spec.label(),
            result.best_accuracy_pct(),
            result.final_accuracy_pct()
        );
    }
    println!("\nExpected: all methods learn sentiment well above the 50% chance level from");
    println!("user-local data only; FedCross is competitive with or better than the baselines.");
}
