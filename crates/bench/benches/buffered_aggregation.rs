//! Criterion micro-benchmarks of the staleness-aware buffered server half
//! (`BufferedFedAvg::absorb` / `BufferedFedCross::absorb`): merge + dedupe of
//! an arrival set, the staleness-weighted delta fold, and — for the FedCross
//! variant — the weighted deltas staged and rebuilt into candidates by the
//! middleware, plus similarity-driven cross-aggregation.
//!
//! Shapes match the `aggregation` and `robust_aggregation` benches (10
//! uploads at 10k/100k parameters) so the cost of buffering over a plain
//! synchronous mean is directly readable. Duplicate arrivals are included:
//! the dedupe path is part of every real round under transport faults.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::buffered::{BufferedFedAvg, BufferedFedCross, BufferedFedCrossConfig, BufferedUpload};
use fedcross_tensor::SeededRng;

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

/// An arrival set of `n` uploads with round-spread staleness, plus `dups`
/// duplicated transport copies.
fn make_arrivals(n: usize, dups: usize, slots: usize, dim: usize, seed: u64) -> Vec<BufferedUpload> {
    let mut rng = SeededRng::new(seed);
    let mut arrivals: Vec<BufferedUpload> = (0..n)
        .map(|client| BufferedUpload {
            client,
            slot: client % slots,
            train_round: client % 4,
            due_round: 4,
            copies: 1,
            delta: (0..dim).map(|_| rng.uniform_range(-0.1, 0.1)).collect(),
            num_samples: 10 + client,
            train_loss: 0.5,
        })
        .collect();
    for i in 0..dups {
        arrivals.push(arrivals[i % n].clone());
    }
    arrivals
}

fn bench_buffered_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffered_aggregation");
    group.sample_size(sample_size());

    for &dim in &[10_000usize, 100_000] {
        let fedavg_arrivals = make_arrivals(10, 3, 1, dim, 7);
        group.bench_with_input(
            BenchmarkId::new("buffered_fedavg_absorb", dim),
            &dim,
            |b, &dim| {
                // Built once and flushed once before timing, so every timed
                // absorb is a steady flush of the same arrival set.
                let mut algo = BufferedFedAvg::new(0.5, vec![0.1; dim], 16);
                algo.absorb(4, 1, 4, fedavg_arrivals.clone());
                b.iter(|| {
                    let report = algo.absorb(4, 1, 4, fedavg_arrivals.clone());
                    black_box(report.participants)
                })
            },
        );

        let fedcross_arrivals = make_arrivals(10, 3, 10, dim, 9);
        group.bench_with_input(
            BenchmarkId::new("buffered_fedcross_absorb_k10", dim),
            &dim,
            |b, &dim| {
                // The first flush grows the middleware's staging buffers and
                // splits its shared models; the timed absorbs reuse both.
                let mut algo = BufferedFedCross::new(
                    BufferedFedCrossConfig::default(),
                    vec![0.1; dim],
                    10,
                    16,
                );
                algo.absorb(4, 1, 4, fedcross_arrivals.clone());
                b.iter(|| {
                    let report = algo.absorb(4, 1, 4, fedcross_arrivals.clone());
                    black_box(report.participants)
                })
            },
        );

        // The merge/dedupe path alone: arrivals land but the goal is not
        // reached, so no aggregation fires.
        group.bench_with_input(
            BenchmarkId::new("buffered_fedavg_merge_only", dim),
            &dim,
            |b, &dim| {
                b.iter(|| {
                    let mut algo = BufferedFedAvg::new(0.5, vec![0.1; dim], 16);
                    let report = algo.absorb(4, 64, 4, fedavg_arrivals.clone());
                    black_box(report.participants + algo.buffer().len())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_buffered_aggregation);
criterion_main!(benches);
