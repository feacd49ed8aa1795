//! Criterion micro-benchmarks of the server-side aggregation kernels:
//! FedAvg weighted averaging vs FedCross cross-aggregation (single
//! collaborator and propeller variants) and global-model generation, each
//! writing into a preallocated output as the round loop does.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run
//! so CI can detect kernel regressions without paying for full statistics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::aggregation::{
    cross_aggregate_all_into, cross_aggregate_propellers_into, global_model_into,
};
use fedcross_nn::params::weighted_average_into;
use fedcross_tensor::SeededRng;

fn make_models(k: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..k)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
        .collect()
}

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_aggregation");
    group.sample_size(sample_size());

    for &dim in &[10_000usize, 100_000] {
        let models = make_models(10, dim, 7);
        let weights = vec![1.0f32; models.len()];
        let collaborators: Vec<usize> = (0..models.len())
            .map(|i| (i + 1) % models.len())
            .collect();

        // The fused kernels as the round loop runs them: zero allocations,
        // rayon-parallel over the K models.
        group.bench_with_input(
            BenchmarkId::new("fedavg_weighted_average_into", dim),
            &dim,
            |b, _| {
                let mut out = vec![0f32; dim];
                b.iter(|| {
                    weighted_average_into(&mut out, &models, &weights);
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fedcross_cross_aggregate_all_into", dim),
            &dim,
            |b, _| {
                let mut buffers = vec![vec![0f32; dim]; models.len()];
                b.iter(|| {
                    let mut targets: Vec<&mut [f32]> =
                        buffers.iter_mut().map(|v| v.as_mut_slice()).collect();
                    cross_aggregate_all_into(&mut targets, &models, &collaborators, 0.99);
                    black_box(targets.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fedcross_propellers_x3_into", dim),
            &dim,
            |b, _| {
                let mut out = vec![0f32; dim];
                b.iter(|| {
                    let refs: Vec<&[f32]> = models[1..4].iter().map(|m| m.as_slice()).collect();
                    cross_aggregate_propellers_into(&mut out, &models[0], &refs, 0.99);
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("global_model_generation_into", dim),
            &dim,
            |b, _| {
                let mut out = vec![0f32; dim];
                b.iter(|| {
                    global_model_into(&mut out, &models);
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
