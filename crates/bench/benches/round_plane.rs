//! Criterion benchmarks of the persistent round plane: a steady-state round
//! on a warm `ClientWorkerPool` vs. the same round on a fresh pool (one
//! template clone per job), and evaluation on a warm `EvalWorker` vs. a
//! fresh one per call. These isolate exactly the costs that keeping one
//! pool and one evaluation worker per run removes from every round of a
//! multi-round simulation.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedcross::{FedCross, FedCrossConfig};
use fedcross_bench::{build_model, build_task, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{
    ClientWorkerPool, CommTracker, EvalWorker, FederatedAlgorithm, LocalTrainConfig,
};
use fedcross_tensor::SeededRng;

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        10
    }
}

fn bench_round_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_plane");
    group.sample_size(sample_size());

    let config = ExperimentConfig {
        num_clients: 8,
        clients_per_round: 4,
        samples_per_client: 20,
        test_samples: 40,
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
    let make_algorithm = || {
        FedCross::new(
            FedCrossConfig::default(),
            template.params_flat(),
            config.clients_per_round,
        )
    };

    // Steady-state FedCross round on warm workers (the cost a multi-round
    // simulation pays every round after warm-up).
    group.bench_function("fedcross_round_persistent_workers", |b| {
        let mut pool = ClientWorkerPool::new();
        b.iter(|| {
            let mut algorithm = make_algorithm();
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
    });

    // The same round on a fresh pool per iteration: every iteration clones
    // one model per job, the cost of rebuilding client models every round.
    group.bench_function("fedcross_round_clone_per_round", |b| {
        b.iter(|| {
            let mut algorithm = make_algorithm();
            let mut comm = CommTracker::new();
            let mut pool = ClientWorkerPool::new();
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
    });

    // Evaluation: a warm worker vs. a fresh one per call, which clones the
    // template each time.
    let params = template.params_flat();
    group.bench_function("eval_pooled_worker", |b| {
        let mut worker = EvalWorker::new(template.as_ref());
        b.iter(|| {
            black_box(worker.evaluate_params(&params, data.test_set(), 16));
        })
    });
    group.bench_function("eval_clone_per_call", |b| {
        b.iter(|| {
            let mut worker = EvalWorker::new(template.as_ref());
            black_box(worker.evaluate_params(&params, data.test_set(), 16));
        })
    });

    group.finish();
}

criterion_group!(benches, bench_round_plane);
criterion_main!(benches);
