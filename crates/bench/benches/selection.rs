//! Criterion micro-benchmarks of collaborative-model selection: the in-order
//! schedule vs the similarity-based strategies (which require pairwise cosine
//! similarities over the flat parameter vectors). The largest shape is the
//! `wide_server` round of fcbench: K = 20 uploads of a 797,706-parameter MLP.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run
//! so CI can detect kernel regressions without paying for full statistics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::selection::SelectionStrategy;
use fedcross_tensor::SeededRng;

fn make_models(k: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..k)
        .map(|_| (0..dim).map(|_| rng.normal()).collect())
        .collect()
}

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("collaborative_selection");
    group.sample_size(sample_size());

    for &(k, dim) in &[(10usize, 50_000usize), (20, 50_000), (20, 797_706)] {
        let models = make_models(k, dim, 3);
        let id = format!("k{k}_d{dim}");

        group.bench_with_input(BenchmarkId::new("in_order", &id), &id, |b, _| {
            b.iter(|| black_box(SelectionStrategy::InOrder.select_all(5, &models)))
        });
        group.bench_with_input(BenchmarkId::new("lowest_similarity", &id), &id, |b, _| {
            b.iter(|| black_box(SelectionStrategy::LowestSimilarity.select_all(5, &models)))
        });
        group.bench_with_input(BenchmarkId::new("highest_similarity", &id), &id, |b, _| {
            b.iter(|| black_box(SelectionStrategy::HighestSimilarity.select_all(5, &models)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
