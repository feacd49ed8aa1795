//! Integration tests covering the text tasks (Shakespeare / Sent140 stand-ins
//! with the LSTM classifier) and the scale knobs the compatibility analysis
//! (RQ3) sweeps: the number of activated clients K and the federation size.

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::{
    FederatedDataset, SynthSent140Config, SynthShakespeareConfig,
};
use fedcross_data::ClientDataSource;
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::models::{lstm_classifier, LstmConfig};
use fedcross_tensor::SeededRng;

fn text_sim_config(rounds: usize, k: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round: k,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 3,
    }
}

#[test]
fn sentiment_federation_learns_above_chance_with_fedcross_and_fedavg() {
    let mut rng = SeededRng::new(1);
    let data = FederatedDataset::synth_sent140(
        &SynthSent140Config {
            num_clients: 12,
            samples_per_client: 30,
            test_samples: 120,
            ..Default::default()
        },
        &mut rng,
    );
    let template = lstm_classifier(
        LstmConfig {
            vocab: 64,
            embed_dim: 8,
            hidden_dim: 16,
        },
        2,
        &mut rng,
    );
    for spec in [AlgorithmSpec::FedAvg, AlgorithmSpec::fedcross_default()] {
        let mut algorithm =
            build_algorithm(spec, template.params_flat(), data.num_clients(), 4);
        let result = Simulation::new(text_sim_config(8, 4), &data, template.clone_model())
            .run(algorithm.as_mut());
        assert!(
            result.history.best_accuracy() > 0.6,
            "{} only reached {:.2} on binary sentiment",
            spec.label(),
            result.history.best_accuracy()
        );
    }
}

#[test]
fn next_char_federation_beats_uniform_guessing() {
    let mut rng = SeededRng::new(2);
    let data = FederatedDataset::synth_shakespeare(
        &SynthShakespeareConfig {
            num_clients: 10,
            samples_per_client: 40,
            test_samples: 150,
            ..Default::default()
        },
        &mut rng,
    );
    let vocab = data.num_classes();
    let template = lstm_classifier(
        LstmConfig {
            vocab: vocab.max(64),
            embed_dim: 8,
            hidden_dim: 16,
        },
        vocab,
        &mut rng,
    );
    let mut algorithm = build_algorithm(
        AlgorithmSpec::fedcross_default(),
        template.params_flat(),
        data.num_clients(),
        4,
    );
    let result = Simulation::new(text_sim_config(8, 4), &data, template).run(algorithm.as_mut());
    let chance = 1.0 / vocab as f32;
    assert!(
        result.history.best_accuracy() > 3.0 * chance,
        "next-char accuracy {:.3} is not clearly above chance {:.3}",
        result.history.best_accuracy(),
        chance
    );
}

#[test]
fn fedcross_supports_different_numbers_of_activated_clients() {
    // RQ3 / Figure 6: K is a free parameter; the algorithm must run for any
    // K >= 2 that matches its middleware count.
    let mut rng = SeededRng::new(4);
    let data = FederatedDataset::synth_sent140(
        &SynthSent140Config {
            num_clients: 12,
            samples_per_client: 15,
            test_samples: 60,
            ..Default::default()
        },
        &mut rng,
    );
    let template = lstm_classifier(
        LstmConfig {
            vocab: 64,
            embed_dim: 8,
            hidden_dim: 12,
        },
        2,
        &mut rng,
    );
    for k in [2usize, 4, 8] {
        let mut algorithm = build_algorithm(
            AlgorithmSpec::fedcross_default(),
            template.params_flat(),
            data.num_clients(),
            k,
        );
        let mut config = text_sim_config(3, k);
        config.eval_every = 3;
        let result =
            Simulation::new(config, &data, template.clone_model()).run(algorithm.as_mut());
        assert_eq!(result.comm.client_contacts as usize, 3 * k);
        assert!(algorithm.global_params().iter().all(|p| p.is_finite()));
    }
}

#[test]
fn growing_the_federation_shrinks_per_client_data_but_still_trains() {
    // RQ3 / Figure 7: fixed total sample budget spread over more clients.
    let total_samples = 360usize;
    for num_clients in [9usize, 18, 36] {
        let mut rng = SeededRng::new(5);
        let data = FederatedDataset::synth_sent140(
            &SynthSent140Config {
                num_clients,
                samples_per_client: total_samples / num_clients,
                test_samples: 80,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(data.total_train_samples(), total_samples);
        let template = lstm_classifier(
            LstmConfig {
                vocab: 64,
                embed_dim: 8,
                hidden_dim: 12,
            },
            2,
            &mut rng,
        );
        let k = (num_clients / 9).max(2);
        let mut algorithm = build_algorithm(
            AlgorithmSpec::fedcross_default(),
            template.params_flat(),
            data.num_clients(),
            k,
        );
        let result = Simulation::new(text_sim_config(4, k), &data, template)
            .run(algorithm.as_mut());
        assert!(result.history.final_accuracy() >= 0.0);
        assert!(result.comm.total_scalars() > 0);
    }
}
