//! Criterion benchmark of one full communication round per FL method —
//! the end-to-end per-round cost behind the paper's wall-clock comparisons.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross::AlgorithmSpec;
use fedcross_bench::{build_model, build_task, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{ClientWorkerPool, CommTracker, LocalTrainConfig};
use fedcross_tensor::SeededRng;

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        10
    }
}

fn bench_fl_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fl_round");
    group.sample_size(sample_size());

    let config = ExperimentConfig {
        num_clients: 8,
        clients_per_round: 4,
        samples_per_client: 20,
        test_samples: 20,
        rounds: 1,
        eval_every: 1,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 5,
    };
    let data = build_task(TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5)), &config, 5);
    let template = build_model(ModelSpec::Cnn, &data, 6);

    for spec in AlgorithmSpec::paper_lineup() {
        group.bench_with_input(
            BenchmarkId::new("one_round", spec.label()),
            &spec,
            |b, spec| {
                // The worker pool persists across iterations, exactly as it
                // persists across rounds inside a Simulation: after the first
                // iteration every round trains on warm cached models, which
                // is the steady-state cost a multi-round run pays.
                let mut pool = ClientWorkerPool::new();
                b.iter(|| {
                    let mut algorithm = fedcross::build_algorithm(
                        *spec,
                        template.params_flat(),
                        data.num_clients(),
                        config.clients_per_round,
                    );
                    let mut comm = CommTracker::new();
                    let mut ctx = RoundContext::new(
                        &data,
                        template.as_ref(),
                        config.local,
                        config.clients_per_round,
                        SeededRng::new(9),
                        &mut comm,
                        &mut pool,
                    );
                    black_box(algorithm.run_round(0, &mut ctx));
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fl_round);
criterion_main!(benches);
