//! Criterion micro-benchmarks of the Byzantine-robust aggregation kernels:
//! coordinate-wise median, trimmed mean, (multi-)Krum selection and the
//! norm-bounded mean, at the same upload shapes as the `aggregation` bench
//! so the overhead of robustness over plain averaging is directly readable.
//!
//! Median and trimmed mean sort every coordinate column (O(dim · n log n)),
//! Krum is O(n² · dim) pairwise distances; all three parallelise over
//! coordinate chunks / candidates once the workload crosses the rayon
//! threshold, with bitwise-identical serial and parallel results.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::aggregation::{
    coordinate_median_into, multi_krum_select, norm_bounded_mean_into, trimmed_mean_into,
};
use fedcross_nn::params::average_into;
use fedcross_tensor::SeededRng;

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

fn make_uploads(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
        .collect()
}

fn bench_robust_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("robust_aggregation");
    group.sample_size(sample_size());

    for &dim in &[10_000usize, 100_000] {
        let uploads = make_uploads(10, dim, 7);
        let anchor: Vec<f32> = make_uploads(1, dim, 8).pop().unwrap();
        let mut out = vec![0f32; dim];

        // The non-robust baseline every rule is paying over.
        group.bench_with_input(BenchmarkId::new("plain_mean_into", dim), &dim, |b, _| {
            b.iter(|| {
                average_into(&mut out, &uploads);
                black_box(out.len())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("coordinate_median_into", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    coordinate_median_into(&mut out, &uploads);
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trimmed_mean_into_t0.2", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    trimmed_mean_into(&mut out, &uploads, 0.2);
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("multi_krum_select_f2_m3", dim),
            &dim,
            |b, _| b.iter(|| black_box(multi_krum_select(&uploads, 2, 3))),
        );
        group.bench_with_input(
            BenchmarkId::new("norm_bounded_mean_into_c1", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    norm_bounded_mean_into(&mut out, &anchor, &uploads, 1.0);
                    black_box(out.len())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_robust_aggregation);
criterion_main!(benches);
