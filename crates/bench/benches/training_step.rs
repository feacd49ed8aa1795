//! Criterion micro-benchmarks of one client-side SGD step (forward + backward
//! + update) for each model family of Table II.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedcross_nn::loss::softmax_cross_entropy;
use fedcross_nn::models::{fedavg_cnn, lstm_classifier, resnet20_lite, vgg_lite, LstmConfig, VggConfig};
use fedcross_nn::optim::Sgd;
use fedcross_nn::Model;
use fedcross_tensor::{init, SeededRng, Tensor};

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        10
    }
}

fn step(model: &mut dyn Model, x: &Tensor, labels: &[usize], sgd: &mut Sgd) {
    model.zero_grads();
    let logits = model.forward(x, true);
    let (_, grad) = softmax_cross_entropy(&logits, labels);
    model.backward(&grad);
    sgd.step(model);
}

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_training_step");
    group.sample_size(sample_size());
    let mut rng = SeededRng::new(1);

    let image = init::normal(&[10, 3, 16, 16], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..10).map(|i| i % 10).collect();

    let mut cnn = fedavg_cnn((3, 16, 16), 10, &mut rng);
    group.bench_function("cnn_batch10", |b| {
        let mut sgd = Sgd::paper_default();
        b.iter(|| step(black_box(cnn.as_mut()), &image, &labels, &mut sgd))
    });

    let mut resnet = resnet20_lite((3, 16, 16), 10, &mut rng);
    group.bench_function("resnet20_lite_batch10", |b| {
        let mut sgd = Sgd::paper_default();
        b.iter(|| step(black_box(resnet.as_mut()), &image, &labels, &mut sgd))
    });

    let mut vgg = vgg_lite((3, 16, 16), 10, VggConfig::default(), &mut rng);
    group.bench_function("vgg_lite_batch10", |b| {
        let mut sgd = Sgd::paper_default();
        b.iter(|| step(black_box(vgg.as_mut()), &image, &labels, &mut sgd))
    });

    let tokens = Tensor::from_vec(
        (0..10 * 10).map(|i| (i % 30) as f32).collect(),
        &[10, 10],
    );
    let text_labels: Vec<usize> = (0..10).map(|i| i % 32).collect();
    let mut lstm = lstm_classifier(
        LstmConfig {
            vocab: 32,
            embed_dim: 16,
            hidden_dim: 32,
        },
        32,
        &mut rng,
    );
    group.bench_function("lstm_batch10", |b| {
        let mut sgd = Sgd::paper_default();
        b.iter(|| step(black_box(lstm.as_mut()), &tokens, &text_labels, &mut sgd))
    });

    group.finish();
}

criterion_group!(benches, bench_training_step);
criterion_main!(benches);
