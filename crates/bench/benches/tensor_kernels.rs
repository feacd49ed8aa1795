//! Criterion micro-benchmarks of the tensor kernels that dominate client-side
//! training cost: matmul and im2col convolution (each writing into a
//! preallocated output, as the layers do) and softmax cross-entropy.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run
//! so CI can detect kernel regressions without paying for full statistics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross_nn::loss::softmax_cross_entropy;
use fedcross_tensor::conv::{im2col_into, im2col_shape, Conv2dGeom};
use fedcross_tensor::{init, SeededRng, Tensor};

fn sample_size(full: usize) -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        full
    }
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(sample_size(20));
    let mut rng = SeededRng::new(1);
    for &n in &[64usize, 128, 256] {
        let a = init::normal(&[n, n], 0.0, 1.0, &mut rng);
        let b = init::normal(&[n, n], 0.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(&[n, n]);
        group.bench_with_input(BenchmarkId::new("square", n), &n, |bench, _| {
            bench.iter(|| {
                a.matmul_into(&b, &mut out);
                black_box(out.numel())
            })
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_im2col");
    group.sample_size(sample_size(20));
    let mut rng = SeededRng::new(2);
    let geom = Conv2dGeom::new(3, 1, 1);
    for &(batch, channels, size) in &[(10usize, 3usize, 16usize), (32, 16, 16)] {
        let input = init::normal(&[batch, channels, size, size], 0.0, 1.0, &mut rng);
        let (rows, row_len) = im2col_shape(&input, geom);
        let mut out = Tensor::zeros(&[rows, row_len]);
        let id = format!("b{batch}_c{channels}_s{size}");
        group.bench_with_input(BenchmarkId::new("im2col", &id), &id, |bench, _| {
            bench.iter(|| {
                im2col_into(&input, geom, &mut out);
                black_box(out.numel())
            })
        });
    }
    group.finish();
}

fn bench_loss(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_cross_entropy");
    group.sample_size(sample_size(30));
    let mut rng = SeededRng::new(3);
    for &(batch, classes) in &[(50usize, 10usize), (50, 100)] {
        let logits = init::normal(&[batch, classes], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        let id = format!("b{batch}_c{classes}");
        group.bench_with_input(BenchmarkId::new("forward_backward", &id), &id, |bench, _| {
            bench.iter(|| black_box(softmax_cross_entropy(&logits, &labels)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_loss);
criterion_main!(benches);
