//! Prefetch hints name the cohort each round checks out.
//!
//! While round `r` trains, `Simulation` replays round `r + 1`'s selection
//! draw and hands the predicted cohort to `ClientDataSource::prefetch`. A
//! wrong hint only costs a wasted background materialisation, so no
//! trajectory pin notices a prediction that drifted from the real draw.
//! This binary checks the prediction itself: a recording source logs every
//! hint and every shard checkout, and each round's hint must equal the
//! clients that round trained, on either side of the dense/sparse sampler
//! switch at `SPARSE_SELECTION_THRESHOLD`.

use std::sync::{Arc, Mutex};

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_data::federated::SynthCifar10Config;
use fedcross_data::{ClientDataSource, Dataset, Heterogeneity, SynthTaskSource};
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig, SPARSE_SELECTION_THRESHOLD};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

const K: usize = 4;
const ROUNDS: usize = 3;
/// The largest dense-sampler population and the smallest sparse one.
const POPULATIONS: [usize; 2] = [SPARSE_SELECTION_THRESHOLD, SPARSE_SELECTION_THRESHOLD + 1];

/// A lazy source that records every prefetch hint and shard checkout.
struct Recorder {
    inner: SynthTaskSource,
    hints: Mutex<Vec<Vec<usize>>>,
    checkouts: Mutex<Vec<usize>>,
}

impl ClientDataSource for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn test_set(&self) -> &Dataset {
        self.inner.test_set()
    }

    fn materialize(&self, client: usize) -> Dataset {
        self.inner.materialize(client)
    }

    fn shard(&self, client: usize) -> Arc<Dataset> {
        self.checkouts.lock().expect("checkout log").push(client);
        self.inner.shard(client)
    }

    fn prefetch(&self, clients: &[usize]) {
        self.hints.lock().expect("hint log").push(clients.to_vec());
    }

    fn fingerprint_tokens(&self) -> Vec<u64> {
        self.inner.fingerprint_tokens()
    }
}

/// Runs `spec` over an `n`-client lazy source and returns, per round, the
/// hinted cohort and the clients whose shards the round checked out.
fn hints_and_checkouts(spec: AlgorithmSpec, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let recorder = Recorder {
        inner: SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: n,
                samples_per_client: 4,
                test_samples: 8,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.5),
            5,
        ),
        hints: Mutex::new(Vec::new()),
        checkouts: Mutex::new(Vec::new()),
    };
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 4),
            fc_hidden: 8,
            kernel: 3,
        },
        &mut SeededRng::new(2),
    );
    let mut algorithm = build_algorithm(spec, template.params_flat(), n, K);
    let config = SimulationConfig {
        rounds: ROUNDS,
        clients_per_round: K,
        eval_every: ROUNDS,
        eval_batch_size: 8,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 13,
    };
    Simulation::new(config, &recorder, template).run(algorithm.as_mut());

    let hints = recorder.hints.into_inner().expect("hint log");
    let checkouts = recorder.checkouts.into_inner().expect("checkout log");
    assert_eq!(hints.len(), ROUNDS, "one hint per round");
    assert_eq!(checkouts.len(), ROUNDS * K, "K checkouts per round");
    hints
        .into_iter()
        .zip(checkouts.chunks(K).map(<[usize]>::to_vec))
        .collect()
}

fn sorted(mut clients: Vec<usize>) -> Vec<usize> {
    clients.sort_unstable();
    clients
}

#[test]
fn fedavg_checks_out_each_hinted_cohort_in_order() {
    for n in POPULATIONS {
        for (round, (hint, checked_out)) in hints_and_checkouts(AlgorithmSpec::FedAvg, n)
            .into_iter()
            .enumerate()
        {
            assert_eq!(hint, checked_out, "N = {n}, round {round}");
        }
    }
}

#[test]
fn fedcross_checks_out_each_hinted_cohort() {
    // FedCross shuffles its cohort after drawing it, so only the set matches.
    for n in POPULATIONS {
        for (round, (hint, checked_out)) in
            hints_and_checkouts(AlgorithmSpec::fedcross_default(), n)
                .into_iter()
                .enumerate()
        {
            assert_eq!(sorted(hint), sorted(checked_out), "N = {n}, round {round}");
        }
    }
}
