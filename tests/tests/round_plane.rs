//! Equivalence tests for the persistent round plane (PR 3).
//!
//! The engine now trains on cached worker models (`ClientWorkerPool`) and
//! evaluates through a cached evaluation model (`EvalWorker`) instead of
//! cloning the template for every job and every evaluation. These tests pin
//! the central claim of that refactor: **reuse changes nothing but the
//! allocation profile.** Fixed-seed trajectories through persistent workers
//! are bitwise identical to the historical clone-per-round pipeline —
//! across FedCross and the baselines, across every availability model, and
//! through models with stochastic (dropout) layers, which is exactly where
//! naive model caching would silently diverge.

use fedcross::baselines::{FedAvg, FedProx};
use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{
    AvailabilityModel, ClientWorkerPool, CommTracker, EvalWorker, FederatedAlgorithm,
    LocalTrainConfig, Scenario,
};
use fedcross_nn::layers::{Dropout, Flatten, Linear, Relu};
use fedcross_nn::{Model, Sequential};
use fedcross_tensor::SeededRng;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn image_task(seed: u64, clients: usize) -> FederatedDataset {
    let mut rng = SeededRng::new(seed);
    FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: 18,
            test_samples: 24,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    )
}

/// A small model that *contains dropout*: the one layer whose naive reuse
/// across rounds breaks trajectories (its mask RNG would keep running instead
/// of restarting like a fresh clone's). Flatten lets it consume the synthetic
/// CIFAR images directly.
fn dropout_model(seed: u64) -> Box<dyn Model> {
    let mut rng = SeededRng::new(seed);
    Sequential::new("dropout-mlp")
        .push(Flatten::new())
        .push(Linear::new(3 * 16 * 16, 24, &mut rng))
        .push(Relu::new())
        .push(Dropout::new(0.3, &mut rng))
        .push(Linear::new(24, 10, &mut rng))
        .boxed()
}

type AlgoFactory = fn(Vec<f32>, usize) -> Box<dyn FederatedAlgorithm>;

fn fedcross_factory(init: Vec<f32>, k: usize) -> Box<dyn FederatedAlgorithm> {
    Box::new(FedCross::new(
        FedCrossConfig {
            alpha: 0.9,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
            ..Default::default()
        },
        init,
        k,
    ))
}

fn fedavg_factory(init: Vec<f32>, _k: usize) -> Box<dyn FederatedAlgorithm> {
    Box::new(FedAvg::new(init))
}

fn fedprox_factory(init: Vec<f32>, _k: usize) -> Box<dyn FederatedAlgorithm> {
    Box::new(FedProx::new(init, 0.1))
}

/// Runs `rounds` rounds of `algorithm`, recording the deployed global
/// parameters after every round. With `persistent = true` all rounds share
/// one `ClientWorkerPool` (the steady-state simulation path); with `false`
/// every round gets a fresh pool, which clones one model per job every
/// round.
fn run_trajectory(
    make: AlgoFactory,
    data: &FederatedDataset,
    template: &dyn Model,
    availability: AvailabilityModel,
    k: usize,
    rounds: usize,
    persistent: bool,
) -> Vec<Vec<f32>> {
    let mut algorithm = make(template.params_flat(), k);
    let master = SeededRng::new(77);
    let mut shared_pool = ClientWorkerPool::new();
    let scenario = Scenario {
        availability,
        ..Scenario::default()
    };
    let mut trajectory = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut comm = CommTracker::new();
        let mut fresh_pool = ClientWorkerPool::new();
        let pool = if persistent {
            &mut shared_pool
        } else {
            &mut fresh_pool
        };
        let mut ctx = RoundContext::new(
            data,
            template,
            LocalTrainConfig {
                epochs: 1,
                batch_size: 8,
                lr: 0.05,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            k,
            master.fork(round as u64),
            &mut comm,
            pool,
        )
        .with_scenario(scenario, round);
        algorithm.run_round(round, &mut ctx);
        trajectory.push(algorithm.global_params());
    }
    trajectory
}

#[test]
fn persistent_workers_match_clone_per_round_across_algorithms_and_availability() {
    let k = 4;
    let data = image_task(11, 6);
    let template = dropout_model(23);
    let algorithms: [(&str, AlgoFactory); 3] = [
        ("fedcross", fedcross_factory),
        ("fedavg", fedavg_factory),
        ("fedprox", fedprox_factory),
    ];
    let availabilities = [
        AvailabilityModel::AlwaysOn,
        AvailabilityModel::RandomDropout { prob: 0.25 },
        AvailabilityModel::PeriodicStraggler { period: 3 },
    ];
    for (name, factory) in algorithms {
        for availability in availabilities {
            let persistent =
                run_trajectory(factory, &data, template.as_ref(), availability, k, 3, true);
            let fresh =
                run_trajectory(factory, &data, template.as_ref(), availability, k, 3, false);
            for (round, (p, f)) in persistent.iter().zip(&fresh).enumerate() {
                assert_eq!(
                    bits(p),
                    bits(f),
                    "{name} under {} diverged at round {round}: cached workers are not \
                     bitwise-equivalent to clone-per-round",
                    availability.label()
                );
            }
        }
    }
}

#[test]
fn dropout_reuse_without_reseeding_would_diverge() {
    // Sanity check that the equivalence above is non-trivial: the dropout
    // mask stream really does advance during training, so a cached model that
    // skipped `reset_stochastic_state` would produce different masks in round
    // two. We show the stream advances by comparing a reset model against a
    // deliberately unreset one.
    let template = dropout_model(5);
    let mut used = template.clone_model();
    let x = fedcross_tensor::init::normal(&[6, 3, 16, 16], 0.0, 1.0, &mut SeededRng::new(1));
    let first = used.forward(&x, true);
    let second = used.forward(&x, true); // stream advanced: different masks
    assert_ne!(bits(first.data()), bits(second.data()));

    let mut entropy = SeededRng::new(2);
    used.reset_stochastic_state(&mut entropy);
    let rewound = used.forward(&x, true);
    assert_eq!(
        bits(first.data()),
        bits(rewound.data()),
        "reset_stochastic_state must rewind the mask stream to fresh-clone state"
    );
}

#[test]
fn steady_state_rounds_construct_no_models() {
    let k = 4;
    let data = image_task(31, 6);
    let template = dropout_model(37);
    let mut algorithm = fedcross_factory(template.params_flat(), k);
    let master = SeededRng::new(3);
    let mut pool = ClientWorkerPool::new();
    let mut comm = CommTracker::new();
    for round in 0..5 {
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            k,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        );
        algorithm.run_round(round, &mut ctx);
        if round == 0 {
            assert_eq!(pool.models_built(), k, "warm-up builds one model per slot");
        }
    }
    assert_eq!(
        pool.models_built(),
        k,
        "steady-state rounds must not construct models"
    );
    assert_eq!(pool.len(), k);
}

/// `(accuracy, loss)` bits of the three perturbed parameter vectors in
/// `pooled_eval_matches_clone_per_eval_bitwise`, recorded from a
/// clone-per-eval loop over `Dataset::minibatches` with the allocating
/// `Model::forward` and `softmax_cross_entropy`.
const EVAL_PINS: [(u32, u32); 3] = [
    (0x0000_0000, 0x4073_73a4),
    (0x0000_0000, 0x4070_7380),
    (0x0000_0000, 0x406f_8af8),
];

#[test]
fn pooled_eval_matches_clone_per_eval_bitwise() {
    let data = image_task(41, 3);
    let template = dropout_model(43);
    let mut worker = EvalWorker::new(template.as_ref());
    // Several parameter vectors through the same cached worker, each compared
    // against the bits a clone-per-eval loop produced (`EVAL_PINS`) — NOT
    // against a fresh EvalWorker, which would make this test compare the
    // worker to itself. Odd batch size so the tail batch is exercised.
    for (seed, &(accuracy, loss)) in (0..3u64).zip(&EVAL_PINS) {
        let mut rng = SeededRng::new(100 + seed);
        let params: Vec<f32> = template
            .params_flat()
            .iter()
            .map(|p| p + 0.01 * rng.normal())
            .collect();
        let pooled = worker.evaluate_params(&params, data.test_set(), 7);
        assert_eq!(
            (pooled.accuracy.to_bits(), pooled.loss.to_bits()),
            (accuracy, loss),
            "parameter vector {seed}"
        );
        assert_eq!(pooled.samples, data.test_set().len());
    }
}

#[test]
fn simulation_results_are_unchanged_by_the_round_plane() {
    // End-to-end: a full Simulation (which now runs entirely on the
    // persistent plane) must reproduce the round-by-round numbers of driving
    // the same algorithm with fresh per-round contexts + clone-per-eval.
    use fedcross_flsim::{Simulation, SimulationConfig};
    let data = image_task(51, 5);
    let template = dropout_model(53);
    let k = 3;
    let local = LocalTrainConfig::fast();
    let config = SimulationConfig {
        rounds: 3,
        clients_per_round: k,
        eval_every: 1,
        eval_batch_size: 16,
        local,
        seed: 9,
    };

    let mut algo_sim = fedcross_factory(template.params_flat(), k);
    let sim = Simulation::new(config, &data, template.clone_model());
    let result = sim.run(algo_sim.as_mut());

    let mut algo_ref = fedcross_factory(template.params_flat(), k);
    let master = SeededRng::new(config.seed);
    for round in 0..config.rounds {
        let mut comm = CommTracker::new();
        let mut pool = ClientWorkerPool::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            local,
            k,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        )
        .with_scenario(Scenario::default(), round);
        algo_ref.run_round(round, &mut ctx);
        let eval = EvalWorker::new(template.as_ref()).evaluate_params(
            &algo_ref.global_params(),
            data.test_set(),
            config.eval_batch_size,
        );
        let record = &result.history.records()[round];
        assert_eq!(record.accuracy.to_bits(), eval.accuracy.to_bits(), "round {round}");
        assert_eq!(record.test_loss.to_bits(), eval.loss.to_bits(), "round {round}");
    }
}
