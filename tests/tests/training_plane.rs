//! Equivalence tests for the zero-allocation training plane: the pooled
//! `forward_into` / `backward_into` layer forms, the pooled loss, the
//! in-place optimizer step and the reused minibatch gather buffers must all
//! be **bitwise** indistinguishable from the historical allocating pipeline.
//!
//! The final section pins whole fixed-seed training trajectories against
//! FNV-1a fingerprints recorded from the pre-refactor (PR 1) pipeline via
//! `examples/trajectory_probe.rs` — if any kernel, blocking parameter, or
//! loop restructure changes a single bit anywhere in training, these hashes
//! move and the test fails. A table pins the schedule-invariance fixture's
//! trajectory fingerprint of every shipped algorithm the same way.

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_bench::determinism::{spec_fingerprint, SweptAlgorithm};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{Batch, Dataset, Heterogeneity};
use fedcross_flsim::client::local_train;
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{CommTracker, FederatedAlgorithm, LocalTrainConfig};
use fedcross_nn::layers::{
    BatchNorm2d, Conv2d, Dropout, Embedding, Flatten, GlobalAvgPool2d, Linear, Lstm, MaxPool2d,
    Relu, ResidualBlock, Sigmoid, Tanh,
};
use fedcross_nn::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use fedcross_nn::models::{
    cnn, fedavg_cnn, lstm_classifier, mlp, resnet20_lite, CnnConfig, LstmConfig,
};
use fedcross_nn::{Layer, Model};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

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

// ---------------------------------------------------------------------------
// Per-layer equivalence: forward/backward vs forward_into/backward_into
// ---------------------------------------------------------------------------

/// Runs one forward/backward through `allocating` with the historical API and
/// through `pooled` (a clone) with the arena API, asserting every output,
/// input gradient and parameter gradient matches bit for bit. Repeats to
/// exercise buffer reuse (the second pass runs entirely on recycled buffers).
fn assert_layer_equivalence(
    mut allocating: Box<dyn Layer>,
    mut pooled: Box<dyn Layer>,
    inputs: &[Tensor],
    train: bool,
) {
    let mut pool = TensorPool::new();
    for (pass, input) in inputs.iter().enumerate() {
        let out_a = allocating.forward(input, train);
        let out_p = pooled.forward_into(input, train, &mut pool);
        assert_eq!(
            bits(out_a.data()),
            bits(out_p.data()),
            "forward mismatch (pass {pass})"
        );
        assert_eq!(out_a.dims(), out_p.dims(), "forward dims (pass {pass})");

        let grad_out = Tensor::from_vec(
            (0..out_a.numel())
                .map(|i| ((i * 13 % 29) as f32) * 0.21 - 2.9)
                .collect(),
            out_a.dims(),
        );
        let gin_a = allocating.backward(&grad_out);
        let gin_p = pooled.backward_into(&grad_out, &mut pool);
        assert_eq!(
            bits(gin_a.data()),
            bits(gin_p.data()),
            "backward mismatch (pass {pass})"
        );
        for (pa, pp) in allocating.params().iter().zip(pooled.params()) {
            assert_eq!(
                bits(pa.grad.data()),
                bits(pp.grad.data()),
                "param grad mismatch (pass {pass})"
            );
            assert_eq!(bits(pa.value.data()), bits(pp.value.data()));
        }
        pool.recycle(out_p);
        pool.recycle(gin_p);
    }
}

fn image_batch(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    init::normal(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn linear_pooled_forms_match_allocating_forms() {
    // Odd shapes: feature dims off the 8-wide tile, batch 1, empty batch.
    for &(batch, inf, outf) in &[(5usize, 7usize, 3usize), (1, 13, 9), (0, 4, 6), (16, 32, 10)] {
        let mut rng = SeededRng::new(42 + batch as u64);
        let layer = Linear::new(inf, outf, &mut rng);
        let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[batch, inf], i)).collect();
        assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    }
}

#[test]
fn conv2d_pooled_forms_match_allocating_forms() {
    for &(n, c, oc, hw, k, s, p) in &[
        (2usize, 3usize, 5usize, 9usize, 3usize, 1usize, 1usize),
        (1, 1, 2, 7, 3, 2, 0),
        (3, 2, 4, 8, 1, 1, 0),
    ] {
        let mut rng = SeededRng::new(7 + n as u64);
        let layer = Conv2d::new(c, oc, k, s, p, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[n, c, hw, hw], 10 + i)).collect();
        assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    }
}

#[test]
fn activation_pooled_forms_match_allocating_forms() {
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[3, 11], 20 + i)).collect();
    assert_layer_equivalence(Box::new(Relu::new()), Box::new(Relu::new()), &inputs, true);
    assert_layer_equivalence(Box::new(Tanh::new()), Box::new(Tanh::new()), &inputs, true);
    assert_layer_equivalence(Box::new(Sigmoid::new()), Box::new(Sigmoid::new()), &inputs, true);
}

#[test]
fn dropout_pooled_forms_match_allocating_forms() {
    // The two clones share the forked mask RNG state, so masks line up.
    let mut rng = SeededRng::new(31);
    let layer = Dropout::new(0.4, &mut rng);
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[6, 10], 30 + i)).collect();
    assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    // Eval mode exercises the identity path.
    let mut rng = SeededRng::new(32);
    let eval_layer = Dropout::new(0.4, &mut rng);
    assert_layer_equivalence(eval_layer.clone_layer(), eval_layer.clone_layer(), &inputs, false);
}

#[test]
fn shape_layers_pooled_forms_match_allocating_forms() {
    let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[2, 3, 6, 6], 40 + i)).collect();
    assert_layer_equivalence(Box::new(Flatten::new()), Box::new(Flatten::new()), &inputs, true);
    assert_layer_equivalence(
        Box::new(MaxPool2d::new(2)),
        Box::new(MaxPool2d::new(2)),
        &inputs,
        true,
    );
    assert_layer_equivalence(
        Box::new(MaxPool2d::with_stride(3, 2)),
        Box::new(MaxPool2d::with_stride(3, 2)),
        &inputs,
        true,
    );
    assert_layer_equivalence(
        Box::new(GlobalAvgPool2d::new()),
        Box::new(GlobalAvgPool2d::new()),
        &inputs,
        true,
    );
}

#[test]
fn batchnorm_pooled_forms_match_allocating_forms() {
    let layer = BatchNorm2d::new(3);
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[2, 3, 5, 5], 50 + i)).collect();
    assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    // Eval mode uses the running statistics branch.
    let mut warm = BatchNorm2d::new(3);
    warm.forward(&inputs[0], true);
    assert_layer_equivalence(warm.clone_layer(), warm.clone_layer(), &inputs, false);
}

#[test]
fn embedding_pooled_forms_match_allocating_forms() {
    let mut rng = SeededRng::new(61);
    let layer = Embedding::new(17, 5, &mut rng);
    let inputs: Vec<Tensor> = (0..3)
        .map(|s| {
            Tensor::from_vec(
                (0..4 * 6).map(|i| ((i * 5 + s as usize) % 17) as f32).collect(),
                &[4, 6],
            )
        })
        .collect();
    assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
}

#[test]
fn lstm_pooled_forms_match_allocating_forms() {
    for &(n, t, d, h) in &[(3usize, 4usize, 5usize, 6usize), (1, 7, 3, 9), (2, 1, 2, 4)] {
        let mut rng = SeededRng::new(70 + n as u64);
        let layer = Lstm::new(d, h, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[n, t, d], 80 + i)).collect();
        assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    }
}

#[test]
fn residual_block_pooled_forms_match_allocating_forms() {
    for &(cin, cout, stride) in &[(3usize, 3usize, 1usize), (3, 6, 2)] {
        let mut rng = SeededRng::new(90 + cout as u64);
        let layer = ResidualBlock::new(cin, cout, stride, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[2, cin, 8, 8], 95 + i)).collect();
        assert_layer_equivalence(layer.clone_layer(), layer.clone_layer(), &inputs, true);
    }
}

// ---------------------------------------------------------------------------
// Loss, model chain, first-layer gradient skip
// ---------------------------------------------------------------------------

#[test]
fn pooled_loss_matches_allocating_loss_bitwise() {
    let mut pool = TensorPool::new();
    for &(batch, classes) in &[(1usize, 2usize), (7, 10), (16, 3)] {
        let logits = image_batch(&[batch, classes], 100 + batch as u64);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % classes).collect();
        let (loss_a, grad_a) = softmax_cross_entropy(&logits, &labels);
        let (loss_p, grad_p) = softmax_cross_entropy_into(&logits, &labels, &mut pool);
        assert_eq!(loss_a.to_bits(), loss_p.to_bits());
        assert_eq!(bits(grad_a.data()), bits(grad_p.data()));
        pool.recycle(grad_p);
    }
}

#[test]
fn sequential_pooled_chain_matches_allocating_chain() {
    // A model covering conv, pool, flatten, linear and relu; the pooled chain
    // (with its first-layer input-gradient skip) must leave parameters and
    // gradients bitwise identical to the allocating chain.
    let config = CnnConfig {
        conv_channels: (3, 6),
        fc_hidden: 12,
        kernel: 3,
    };
    let mut rng = SeededRng::new(123);
    let mut model_a = cnn((3, 16, 16), 10, config, &mut rng);
    let mut model_p = model_a.clone_model();
    let mut pool = TensorPool::new();
    for step in 0..3 {
        let x = image_batch(&[4, 3, 16, 16], 200 + step);
        let labels: Vec<usize> = (0..4).map(|i| (i + step as usize) % 10).collect();

        model_a.zero_grads();
        let logits_a = model_a.forward(&x, true);
        let (_, grad_a) = softmax_cross_entropy(&logits_a, &labels);
        model_a.backward(&grad_a);

        model_p.zero_grads();
        let logits_p = model_p.forward_into(&x, true, &mut pool);
        assert_eq!(bits(logits_a.data()), bits(logits_p.data()), "step {step}");
        let (_, grad_p) = softmax_cross_entropy_into(&logits_p, &labels, &mut pool);
        pool.recycle(logits_p);
        model_p.backward_into(&grad_p, &mut pool);
        pool.recycle(grad_p);

        assert_eq!(
            bits(&model_a.grads_flat()),
            bits(&model_p.grads_flat()),
            "gradients diverged at step {step}"
        );
    }
}

#[test]
fn read_params_into_matches_params_flat() {
    let mut rng = SeededRng::new(321);
    let model = mlp(12, &[9, 5], 3, &mut rng);
    let mut buf = vec![f32::NAN; 4];
    model.read_params_into(&mut buf);
    assert_eq!(bits(&buf), bits(&model.params_flat()));
    let mut gbuf = Vec::new();
    model.read_grads_into(&mut gbuf);
    assert_eq!(bits(&gbuf), bits(&model.grads_flat()));
}

// ---------------------------------------------------------------------------
// Whole-loop equivalence: local_train vs the seed's allocating loop
// ---------------------------------------------------------------------------

/// The seed implementation of one client's local training, written exactly as
/// before this refactor: per-epoch `minibatches` allocation, allocating
/// forward/backward, flat-vector SGD with its own velocity buffer.
fn reference_local_train(
    model: &mut dyn Model,
    data: &Dataset,
    config: &LocalTrainConfig,
    rng: &mut SeededRng,
) -> Vec<f32> {
    let mut velocity = vec![0f32; model.param_count()];
    for _ in 0..config.epochs {
        for batch in data.minibatches(config.batch_size, Some(rng)) {
            model.zero_grads();
            let logits = model.forward(&batch.features, true);
            let (_, grad) = softmax_cross_entropy(&logits, &batch.labels);
            model.backward(&grad);
            let mut params = model.params_flat();
            let grads = model.grads_flat();
            for i in 0..params.len() {
                let mut g = grads[i];
                if config.weight_decay > 0.0 {
                    g += config.weight_decay * params[i];
                }
                let v = config.momentum * velocity[i] + g;
                velocity[i] = v;
                params[i] -= config.lr * v;
            }
            model.set_params_flat(&params);
        }
    }
    model.params_flat()
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

#[test]
fn local_train_is_bitwise_identical_to_seed_loop() {
    let data = image_task(7, 3);
    let config = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };

    // CNN (conv/pool/flatten/linear plane).
    let mut rng = SeededRng::new(55);
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
    let mut pooled_model = template.clone_model();
    let update = local_train(
        0,
        pooled_model.as_mut(),
        data.client(0),
        &config,
        &mut SeededRng::new(77),
        None,
    );
    let mut ref_model = template.clone_model();
    let reference =
        reference_local_train(ref_model.as_mut(), data.client(0), &config, &mut SeededRng::new(77));
    assert_eq!(bits(update.params.as_slice()), bits(&reference), "cnn");

    // MLP (pure linear plane) on flattened features.
    let mut rng = SeededRng::new(56);
    let template = mlp(3 * 16 * 16, &[24, 12], 10, &mut rng);
    let flat = flatten_images(data.client(1));
    let mut pooled_model = template.clone_model();
    let update = local_train(
        1,
        pooled_model.as_mut(),
        &flat,
        &config,
        &mut SeededRng::new(78),
        None,
    );
    let mut ref_model = template.clone_model();
    let reference =
        reference_local_train(ref_model.as_mut(), &flat, &config, &mut SeededRng::new(78));
    assert_eq!(bits(update.params.as_slice()), bits(&reference), "mlp");
}

#[test]
fn gather_batch_reproduces_minibatches() {
    let data = flatten_images(image_task(11, 2).client(0));
    let batch_size = 6;
    let reference = data.minibatches(batch_size, Some(&mut SeededRng::new(5)));
    let mut order = Vec::new();
    data.epoch_order(Some(&mut SeededRng::new(5)), &mut order);
    let mut batch = Batch::reusable();
    for (i, chunk) in order.chunks(batch_size).enumerate() {
        data.gather_batch(chunk, &mut batch);
        assert_eq!(bits(batch.features.data()), bits(reference[i].features.data()));
        assert_eq!(batch.labels, reference[i].labels);
        assert_eq!(batch.features.dims(), reference[i].features.dims());
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed trajectory fingerprints (recorded from the pre-PR pipeline)
// ---------------------------------------------------------------------------

/// FNV-1a fingerprints of fixed-seed training trajectories recorded with the
/// PR 1 (pre-training-plane) pipeline via `examples/trajectory_probe.rs`.
/// Any single-bit divergence anywhere in dispatch, training, loss, optimizer
/// or aggregation moves these hashes.
const FEDCROSS_GLOBAL_FINGERPRINT: u64 = 0x6a3f7ad376e78a38;
const CNN_LOCAL_TRAIN_FINGERPRINT: u64 = 0x9232324d6247755f;
const RESNET_LOCAL_TRAIN_FINGERPRINT: u64 = 0x05d75076902b6b4f;
const LSTM_LOCAL_TRAIN_FINGERPRINT: u64 = 0xe53afd52b8e5e469;

/// Canonical trajectory fingerprint (metric bits, comm counters, final-model
/// bits) of every shipped algorithm on the `fedcross_bench::determinism`
/// fixture, in [`SweptAlgorithm::shipped`] order, recorded before the algorithms
/// shared one server skeleton (`fedcross::server`). SecureAgg-FedAvg's value
/// is its dispatch-order trajectory, which it now also produces under a
/// permuted upload arrival order.
const ALGORITHM_FINGERPRINTS: [(&str, u64); 14] = [
    ("FedAvg", 0x0fa424bd91b4a0cd),
    ("FedProx", 0xc39883989763cffd),
    ("SCAFFOLD", 0x16bdf7a9181307a7),
    ("FedGen", 0xdaa36676e9df43f5),
    ("CluSamp", 0x81ef4b49ee22186c),
    ("FedCross", 0x06b452b19e1efd2b),
    ("Robust-FedAvg", 0xfd41c7819e91c5dd),
    ("Robust-FedCross", 0xe41d56c562f0e62a),
    ("Buffered-FedAvg", 0x27798de05f5b9ffb),
    ("Buffered-FedCross", 0xbe585dbc2463bb87),
    ("DP-FedAvg", 0x47892885db5cb2f1),
    ("DP-FedCross", 0x2b9299a141b37169),
    ("Compressed-FedAvg", 0x3b04ff88d7f5ebe6),
    ("SecureAgg-FedAvg", 0x3646bb6670bb3ea7),
];

#[test]
fn every_algorithm_matches_its_pinned_fingerprint() {
    let algorithms = SweptAlgorithm::shipped();
    assert_eq!(
        algorithms.len(),
        ALGORITHM_FINGERPRINTS.len(),
        "a shipped algorithm has no pinned fingerprint"
    );
    let diverged: Vec<String> = algorithms
        .iter()
        .zip(ALGORITHM_FINGERPRINTS)
        .filter_map(|(algorithm, (label, pinned))| {
            assert_eq!(algorithm.label(), label, "pin table order drifted");
            let actual = spec_fingerprint(*algorithm, None);
            (actual != pinned).then(|| format!("{label}: {actual:016x} != pinned {pinned:016x}"))
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "trajectories diverged from their pins:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn fedcross_trajectory_matches_pre_refactor_fingerprint() {
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
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            4,
            master.fork(round as u64),
            &mut comm,
        );
        algo.run_round(round, &mut ctx);
    }
    assert_eq!(
        fnv1a(&algo.global_params()),
        FEDCROSS_GLOBAL_FINGERPRINT,
        "the FedCross training trajectory diverged from the pre-refactor pipeline"
    );
}

#[test]
fn cnn_local_train_matches_pre_refactor_fingerprint() {
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(11);
    let mut model = fedavg_cnn((3, 16, 16), 10, &mut rng);
    let local = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };
    let update = local_train(
        0,
        model.as_mut(),
        data.client(0),
        &local,
        &mut SeededRng::new(13),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), CNN_LOCAL_TRAIN_FINGERPRINT);
}

#[test]
fn resnet_local_train_matches_pre_refactor_fingerprint() {
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(23);
    let mut model = resnet20_lite((3, 16, 16), 10, &mut rng);
    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };
    let update = local_train(
        2,
        model.as_mut(),
        data.client(2),
        &local,
        &mut SeededRng::new(29),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), RESNET_LOCAL_TRAIN_FINGERPRINT);
}

#[test]
fn lstm_local_train_matches_pre_refactor_fingerprint() {
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
    let update = local_train(
        3,
        model.as_mut(),
        &text,
        &LocalTrainConfig::fast(),
        &mut SeededRng::new(37),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), LSTM_LOCAL_TRAIN_FINGERPRINT);
}
