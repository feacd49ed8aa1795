//! Prints FNV-1a fingerprints of fixed-seed training trajectories.
//!
//! Used to pin the training plane bitwise: the hashes printed here must not
//! change across performance refactors of the compute kernels (see
//! `tests/tests/training_plane.rs`).

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{Dataset, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::client::local_train;
use fedcross_flsim::{ClientWorkerPool, CommTracker, FederatedAlgorithm, LocalTrainConfig};
use fedcross_nn::models::{
    cnn, fedavg_cnn, lstm_classifier, mlp, resnet20_lite, CnnConfig, LstmConfig,
};
use fedcross_tensor::{SeededRng, Tensor};

fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

fn image_task(seed: u64, clients: usize) -> FederatedDataset {
    let mut rng = SeededRng::new(seed);
    FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: 20,
            test_samples: 30,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    )
}

fn flatten_images(data: &Dataset) -> Dataset {
    let n = data.len();
    let dim: usize = data.sample_dims().iter().product();
    Dataset::new(
        data.features().reshape(&[n, dim]),
        data.labels().to_vec(),
        data.num_classes(),
    )
}

fn main() {
    // 1. Three FedCross rounds on the tiny CNN (the zero_copy_plane config).
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(3);
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (3, 6),
            fc_hidden: 12,
            kernel: 3,
        },
        &mut rng,
    );
    let config = FedCrossConfig {
        alpha: 0.9,
        strategy: SelectionStrategy::LowestSimilarity,
        measure: SimilarityMeasure::Cosine,
        ..Default::default()
    };
    let mut algo = FedCross::new(config, template.params_flat(), 4);
    let master = SeededRng::new(99);
    for round in 0..3 {
        let mut comm = CommTracker::new();
        let mut pool = ClientWorkerPool::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            4,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        );
        algo.run_round(round, &mut ctx);
    }
    println!("fedcross_global {:#018x}", fnv1a(&algo.global_params()));

    // 2. One local_train on the default CNN (crosses the matmul parallel
    //    thresholds, including the blocked at_b reduction).
    let mut rng = SeededRng::new(11);
    let mut model = fedavg_cnn((3, 16, 16), 10, &mut rng);
    let client_data = data.client(0);
    let local = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };
    let mut train_rng = SeededRng::new(13);
    let update = local_train(0, model.as_mut(), client_data, &local, &mut train_rng, None);
    println!("cnn_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 3. One local_train on an MLP (pure linear/relu plane).
    let mut rng = SeededRng::new(17);
    let mut model = mlp(3 * 16 * 16, &[32, 16], 10, &mut rng);
    let flat = flatten_images(data.client(1));
    let mut train_rng = SeededRng::new(19);
    let update = local_train(
        1,
        model.as_mut(),
        &flat,
        &LocalTrainConfig::fast(),
        &mut train_rng,
        None,
    );
    println!("mlp_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 4. One local_train on the ResNet-lite (batchnorm + residual blocks).
    let mut rng = SeededRng::new(23);
    let mut model = resnet20_lite((3, 16, 16), 10, &mut rng);
    let mut train_rng = SeededRng::new(29);
    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };
    let update = local_train(2, model.as_mut(), data.client(2), &local, &mut train_rng, None);
    println!("resnet_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 5. One local_train on the LSTM classifier (embedding + recurrence).
    let mut rng = SeededRng::new(31);
    let mut model = lstm_classifier(
        LstmConfig {
            vocab: 32,
            embed_dim: 8,
            hidden_dim: 16,
        },
        8,
        &mut rng,
    );
    let tokens: Vec<f32> = (0..40 * 12).map(|i| ((i * 7 + 3) % 32) as f32).collect();
    let labels: Vec<usize> = (0..40).map(|i| (i * 5 + 1) % 8).collect();
    let text = Dataset::new(Tensor::from_vec(tokens, &[40, 12]), labels, 8);
    let mut train_rng = SeededRng::new(37);
    let update = local_train(
        3,
        model.as_mut(),
        &text,
        &LocalTrainConfig::fast(),
        &mut train_rng,
        None,
    );
    println!("lstm_local_train {:#018x}", fnv1a(update.params.as_slice()));
}
