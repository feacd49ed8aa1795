//! Criterion benchmarks of the client-side training plane introduced by the
//! scratch-arena refactor: per-layer pooled forward/backward passes, the
//! shared blocked matmul micro-kernel, and a full `local_train` call — the
//! cost FedCross multiplies by `K` every round.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run
//! so CI can detect kernel regressions without paying for full statistics.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::client::local_train;
use fedcross_flsim::LocalTrainConfig;
use fedcross_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, Lstm, MaxPool2d, Relu};
use fedcross_nn::models::{fedavg_cnn, mlp};
use fedcross_nn::{Layer, Sequential};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

/// Benchmarks a layer's pooled forward+backward round trip on `input`.
fn bench_layer(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    mut layer: Box<dyn Layer>,
    input: Tensor,
) {
    let mut pool = TensorPool::new();
    // Prime the caches so the measurement sees the steady state.
    let out = layer.forward_into(&input, true, &mut pool);
    let grad_out = Tensor::ones(out.dims());
    pool.recycle(out);
    group.bench_function(name, |b| {
        b.iter(|| {
            let out = layer.forward_into(black_box(&input), true, &mut pool);
            pool.recycle(out);
            let grad_in = layer.backward_into(black_box(&grad_out), &mut pool);
            pool.recycle(grad_in);
        })
    });
}

fn bench_client_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_training");
    group.sample_size(sample_size());
    let mut rng = SeededRng::new(1);

    // Per-layer forward/backward at the default-CNN working set sizes.
    let image = init::normal(&[10, 3, 16, 16], 0.0, 1.0, &mut rng);
    bench_layer(
        &mut group,
        "conv2d_3to16_fwd_bwd",
        Box::new(Conv2d::new(3, 16, 3, 1, 1, &mut rng)),
        image.clone(),
    );
    let fc_in = init::normal(&[10, 2048], 0.0, 1.0, &mut rng);
    bench_layer(
        &mut group,
        "linear_2048to64_fwd_bwd",
        Box::new(Linear::new(2048, 64, &mut rng)),
        fc_in,
    );
    let act_in = init::normal(&[10, 16, 16, 16], 0.0, 1.0, &mut rng);
    bench_layer(&mut group, "relu_fwd_bwd", Box::new(Relu::new()), act_in.clone());
    bench_layer(
        &mut group,
        "maxpool2_fwd_bwd",
        Box::new(MaxPool2d::new(2)),
        act_in.clone(),
    );
    bench_layer(
        &mut group,
        "batchnorm_fwd_bwd",
        Box::new(BatchNorm2d::new(16)),
        act_in,
    );
    let seq = init::normal(&[10, 10, 16], 0.0, 1.0, &mut rng);
    bench_layer(
        &mut group,
        "lstm_h32_fwd_bwd",
        Box::new(Lstm::new(16, 32, &mut rng)),
        seq,
    );

    // Full local_train calls: the end-to-end client cost per round.
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 1,
            samples_per_client: 20,
            test_samples: 10,
            ..Default::default()
        },
        Heterogeneity::Iid,
        &mut rng,
    );
    let client = data.client(0);
    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };

    let template = fedavg_cnn((3, 16, 16), 10, &mut rng);
    group.bench_function("local_train_cnn_e1_b10", |b| {
        let mut model = template.clone_model();
        let mut train_rng = SeededRng::new(3);
        b.iter(|| {
            black_box(local_train(
                0,
                model.as_mut(),
                client,
                &local,
                &mut train_rng,
                None,
            ))
        })
    });

    let flat_dim: usize = client.sample_dims().iter().product();
    let flat = fedcross_data::Dataset::new(
        client.features().reshape(&[client.len(), flat_dim]),
        client.labels().to_vec(),
        client.num_classes(),
    );
    let mlp_template = mlp(flat_dim, &[128, 64], 10, &mut rng);
    group.bench_function("local_train_mlp_e1_b10", |b| {
        let mut model = mlp_template.clone_model();
        let mut train_rng = SeededRng::new(4);
        b.iter(|| {
            black_box(local_train(
                1,
                model.as_mut(),
                &flat,
                &local,
                &mut train_rng,
                None,
            ))
        })
    });

    // The wide_server client: one step of batch 8 through a 768-1024-10
    // MLP behind a Flatten. Each step starts from zeroed gradients, so this
    // also times the path where dW is written straight into the gradient.
    let wide = Sequential::new("wide_mlp")
        .push(Flatten::new())
        .push(Linear::new(flat_dim, 1024, &mut rng))
        .push(Relu::new())
        .push(Linear::new(1024, 10, &mut rng))
        .boxed();
    let eight = client.subset(&(0..8).collect::<Vec<_>>());
    let one_step = LocalTrainConfig {
        batch_size: 8,
        ..local
    };
    group.bench_function("local_train_wide_mlp_b8", |b| {
        let mut model = wide.clone_model();
        let mut train_rng = SeededRng::new(5);
        b.iter(|| {
            black_box(local_train(
                2,
                model.as_mut(),
                &eight,
                &one_step,
                &mut train_rng,
                None,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_client_training);
criterion_main!(benches);
