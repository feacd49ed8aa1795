//! Criterion benchmarks of population scaling on the sharded lazy data
//! plane: per-round cost at N = 10^3 … 10^6 clients with a fixed cohort of
//! K = 10.
//!
//! On the eager backend, building a million-client federation alone would
//! allocate ~10 GB before the first round; the lazy [`ShardPlane`] makes
//! population size a free parameter. These benchmarks pin the two costs that
//! must stay (near-)flat in N for that claim to hold:
//!
//! * `sparse_selection/N` — Floyd's O(k) cohort sampler on its own
//!   ([`SeededRng::sample_without_replacement_sparse`]); the dense sampler
//!   is O(N) and would dominate a million-client round.
//! * `steady_round/N` — one full FedAvg communication round on a warm
//!   worker pool: cohort selection, lazy materialisation of the K selected
//!   shards through the bounded cache, local training and aggregation.
//!   Every iteration draws a fresh round cohort, so at large N this measures
//!   the honest cache-miss path, not a warmed-over cohort.
//!
//! The per-round cost is dominated by K local trainings (constant in N);
//! the N-dependent parts — selection and shard synthesis bookkeeping — must
//! stay negligible beside them.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::SynthCifar10Config;
use fedcross_data::{Heterogeneity, ShardPlane, ShardPlaneConfig, SynthTaskSource};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{ClientWorkerPool, CommTracker, LocalTrainConfig};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

/// Cohort size — fixed across the population sweep.
const K: usize = 10;

const POPULATIONS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        10
    }
}

fn bench_population_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("population_scale");
    group.sample_size(sample_size());

    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 8,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };

    for &n in &POPULATIONS {
        group.bench_with_input(BenchmarkId::new("sparse_selection", n), &n, |b, &n| {
            let mut rng = SeededRng::new(11);
            b.iter(|| black_box(rng.sample_without_replacement_sparse(n, K)))
        });

        let source = SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: n,
                samples_per_client: 12,
                test_samples: 20,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.3),
            7,
        );
        let plane = ShardPlane::new(
            Arc::new(source),
            ShardPlaneConfig {
                capacity: 32,
                prefetch_depth: 8,
            },
        );
        let mut model_rng = SeededRng::new(6);
        let template = cnn(
            (3, 16, 16),
            10,
            CnnConfig {
                conv_channels: (2, 4),
                fc_hidden: 8,
                kernel: 3,
            },
            &mut model_rng,
        );

        group.bench_with_input(BenchmarkId::new("steady_round", n), &n, |b, &n| {
            let mut pool = ClientWorkerPool::new();
            let mut algorithm =
                build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), n, K);
            let master = SeededRng::new(9);
            let mut round = 0u64;
            b.iter(|| {
                // A fresh round stream per iteration: at large N each round
                // selects an almost surely disjoint cohort, so the cache
                // misses and materialises exactly as a real long run does.
                round += 1;
                let rng = master.fork(round); // fork: construction-seed
                let mut comm = CommTracker::new();
                let mut ctx = RoundContext::new(
                    &plane,
                    template.as_ref(),
                    local,
                    K,
                    rng,
                    &mut comm,
                    &mut pool,
                );
                black_box(algorithm.run_round(round as usize, &mut ctx));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_population_scale);
criterion_main!(benches);
