//! Criterion micro-benchmarks of the extension kernels: upload compression
//! (quantization / sparsification), differential-privacy clipping and noising,
//! and secure-aggregation masking. These are the per-upload costs a production
//! deployment pays on top of the paper's plain pipeline.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run
//! so CI can detect kernel regressions without paying for full statistics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross_compress::{Compressor, RandK, TopK, UniformQuantizer};
use fedcross_privacy::clipping::clipped_delta;
use fedcross_privacy::mechanism::add_gaussian_noise;
use fedcross_privacy::secure_agg::PairwiseMasker;
use fedcross_tensor::SeededRng;

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        20
    }
}

fn make_delta(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeededRng::new(seed);
    (0..dim).map(|_| rng.normal_with(0.0, 0.1)).collect()
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("upload_compression");
    group.sample_size(sample_size());
    for &dim in &[10_000usize, 100_000] {
        let delta = make_delta(dim, 3);
        group.bench_with_input(BenchmarkId::new("quantize_8bit", dim), &dim, |b, _| {
            let quantizer = UniformQuantizer::new(8, true);
            let mut rng = SeededRng::new(4);
            b.iter(|| black_box(quantizer.compress(&delta, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("quantize_decode_8bit", dim), &dim, |b, _| {
            let quantizer = UniformQuantizer::new(8, true);
            let mut rng = SeededRng::new(4);
            let encoded = quantizer.compress(&delta, &mut rng);
            b.iter(|| black_box(encoded.decode()))
        });
        group.bench_with_input(BenchmarkId::new("top_10pct", dim), &dim, |b, _| {
            let sparsifier = TopK::new(0.1);
            let mut rng = SeededRng::new(5);
            b.iter(|| black_box(sparsifier.compress(&delta, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("rand_10pct", dim), &dim, |b, _| {
            let sparsifier = RandK::new(0.1);
            let mut rng = SeededRng::new(6);
            b.iter(|| black_box(sparsifier.compress(&delta, &mut rng)))
        });
    }
    group.finish();
}

fn bench_privacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("privacy_kernels");
    group.sample_size(sample_size());
    for &dim in &[10_000usize, 100_000] {
        let trained = make_delta(dim, 7);
        let anchor = make_delta(dim, 8);
        group.bench_with_input(BenchmarkId::new("clip_delta", dim), &dim, |b, _| {
            b.iter(|| black_box(clipped_delta(&trained, &anchor, 1.0)))
        });
        group.bench_with_input(BenchmarkId::new("gaussian_noise", dim), &dim, |b, _| {
            let mut rng = SeededRng::new(9);
            b.iter(|| {
                let mut noised = trained.clone();
                add_gaussian_noise(&mut noised, 0.1, &mut rng);
                black_box(noised)
            })
        });
        group.bench_with_input(BenchmarkId::new("pairwise_mask_k10", dim), &dim, |b, _| {
            let masker = PairwiseMasker::new(11, 10.0);
            b.iter(|| black_box(masker.mask(&trained, 3, 10)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compression, bench_privacy);
criterion_main!(benches);
