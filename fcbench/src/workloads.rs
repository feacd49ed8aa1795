//! The three benchmark workloads: inputs, model and FedCross configuration.
//!
//! Every workload runs FedCross with the harness's scale-mapped settings
//! (`fedcross_bench::scaled_fedcross`: α = 0.9, lowest-similarity selection,
//! no acceleration), evaluates every round, and derives all of its inputs
//! from the benchmark seed.

use crate::decorators::{TracedLayer, TracedModel, TracedSource};
use crate::trace::Sink;
use fedcross::{AlgorithmSpec, FedCross, FedCrossConfig};
use fedcross_bench::{build_task, scaled_fedcross, ExperimentConfig, TaskSpec};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::synth::images::SynthImageConfig;
use fedcross_data::{
    ClientDataSource, Heterogeneity, ShardPlane, ShardPlaneConfig, SynthTaskSource,
};
use fedcross_flsim::{LocalTrainConfig, SimulationConfig};
use fedcross_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
use fedcross_nn::{Layer, Model, Sequential};
use fedcross_tensor::SeededRng;
use std::sync::Arc;

/// Image side and channels of the synthetic CIFAR-10 stand-in.
const IMAGE: (usize, usize, usize) = (3, 16, 16);
const CLASSES: usize = 10;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Default CNN, 100 eager clients, K = 8: local conv training dominates.
    CnnTrain,
    /// Wide MLP (d ≈ 0.8M), 200 eager clients, K = 20, one SGD step each:
    /// the server path dominates.
    WideServer,
    /// Tiny CNN over a 10^6-client sharded source: shard synthesis competes
    /// with training.
    MillionShards,
}

/// The model a workload trains.
#[derive(Debug, Clone, Copy)]
enum Net {
    /// Two-conv CNN: conv channels and hidden FC width.
    Cnn {
        channels: (usize, usize),
        hidden: usize,
    },
    /// Flatten → Linear(768, hidden) → ReLU → Linear(hidden, 10).
    Wide { hidden: usize },
}

/// A fixed workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// Federation size.
    pub clients: usize,
    /// Training samples per client.
    pub samples: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Clients per round = FedCross middleware count K.
    pub k: usize,
    /// Local training.
    pub local: LocalTrainConfig,
    /// Accuracy (fraction) `quality.time_to_target_s` waits for; a run
    /// that never reaches it fails.
    pub target_accuracy: f32,
    /// Last round of the evaluation window `final_accuracy_pct` averages.
    pub accuracy_round: usize,
    /// Checkpoint cycles after the run.
    pub checkpoint_cycles: usize,
    net: Net,
    heterogeneity: Heterogeneity,
}

/// All workloads, in report order.
pub const ALL: [Workload; 3] = [
    Workload {
        kind: Kind::CnnTrain,
        name: "cnn_train",
        clients: 100,
        samples: 40,
        test_samples: 200,
        k: 8,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        target_accuracy: 0.40,
        accuracy_round: 100,
        checkpoint_cycles: 5,
        net: Net::Cnn {
            channels: (16, 32),
            hidden: 64,
        },
        heterogeneity: Heterogeneity::Dirichlet(0.5),
    },
    Workload {
        kind: Kind::WideServer,
        name: "wide_server",
        clients: 200,
        samples: 8,
        test_samples: 100,
        k: 20,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        target_accuracy: 0.60,
        accuracy_round: 100,
        // One cycle of K·d = 16M parameters takes ~18 s and a 337 MB JSON
        // file through the checkpoint codec, so this workload skips them.
        checkpoint_cycles: 0,
        net: Net::Wide { hidden: 1024 },
        heterogeneity: Heterogeneity::Iid,
    },
    Workload {
        kind: Kind::MillionShards,
        name: "million_shards",
        clients: 1_000_000,
        samples: 64,
        test_samples: 100,
        k: 10,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        target_accuracy: 0.50,
        accuracy_round: 200,
        checkpoint_cycles: 5,
        net: Net::Cnn {
            channels: (2, 4),
            hidden: 8,
        },
        heterogeneity: Heterogeneity::Dirichlet(0.3),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// A workload's client data: resident shards or a sharded lazy source.
pub enum ClientData {
    /// Every shard built up front.
    Eager(FederatedDataset),
    /// Bounded shard cache with prefetch over a lazy source.
    Sharded(ShardPlane),
}

impl ClientData {
    /// The plane's counters (`None` for eager data).
    pub fn shard_stats(&self) -> Option<fedcross_data::ShardStats> {
        match self {
            ClientData::Eager(_) => None,
            ClientData::Sharded(plane) => Some(plane.stats()),
        }
    }
}

impl Workload {
    /// Client data for `seed`. With a sink, the lazy source is wrapped in a
    /// [`TracedSource`].
    pub fn build_data(&self, seed: u64, sink: Option<&Arc<Sink>>) -> ClientData {
        match self.kind {
            Kind::CnnTrain | Kind::WideServer => {
                let config = ExperimentConfig {
                    num_clients: self.clients,
                    clients_per_round: self.k,
                    samples_per_client: self.samples,
                    test_samples: self.test_samples,
                    local: self.local,
                    seed,
                    ..ExperimentConfig::default()
                };
                ClientData::Eager(build_task(
                    TaskSpec::Cifar10(self.heterogeneity),
                    &config,
                    seed,
                ))
            }
            Kind::MillionShards => {
                let source: Arc<dyn ClientDataSource> = Arc::new(SynthTaskSource::cifar10(
                    &SynthCifar10Config {
                        num_clients: self.clients,
                        samples_per_client: self.samples,
                        test_samples: self.test_samples,
                        // The library's default images: on the hardened ones
                        // the 742-parameter CNN stays at chance for some seeds.
                        image: SynthImageConfig::cifar10(),
                    },
                    self.heterogeneity,
                    seed,
                ));
                let source: Arc<dyn ClientDataSource> = match sink {
                    None => source,
                    Some(sink) => Arc::new(TracedSource::new(source, Arc::clone(sink))),
                };
                ClientData::Sharded(ShardPlane::new(
                    source,
                    ShardPlaneConfig {
                        capacity: 32,
                        prefetch_depth: 8,
                    },
                ))
            }
        }
    }

    /// The model template for `seed`. With a sink, every layer is wrapped in
    /// a [`TracedLayer`] and the model in a [`TracedModel`]; the parameters
    /// are the same either way.
    pub fn build_template(&self, seed: u64, sink: Option<&Arc<Sink>>) -> Box<dyn Model> {
        let mut rng = SeededRng::new(seed);
        let wrap = |layer: Box<dyn Layer>| -> Box<dyn Layer> {
            match sink {
                None => layer,
                Some(sink) => Box::new(TracedLayer::new(layer, Arc::clone(sink))),
            }
        };
        let (c, h, w) = IMAGE;
        let model = match self.net {
            // The layer sequence and draw order of `fedcross_nn::models::cnn`
            // with a 3x3 kernel (pinned by the tests).
            Net::Cnn { channels, hidden } => {
                let (c1, c2) = channels;
                let flat = c2 * (h / 4) * (w / 4);
                Sequential::new("cnn")
                    .push_boxed(wrap(Box::new(Conv2d::new(c, c1, 3, 1, 1, &mut rng))))
                    .push_boxed(wrap(Box::new(Relu::new())))
                    .push_boxed(wrap(Box::new(MaxPool2d::new(2))))
                    .push_boxed(wrap(Box::new(Conv2d::new(c1, c2, 3, 1, 1, &mut rng))))
                    .push_boxed(wrap(Box::new(Relu::new())))
                    .push_boxed(wrap(Box::new(MaxPool2d::new(2))))
                    .push_boxed(wrap(Box::new(Flatten::new())))
                    .push_boxed(wrap(Box::new(Linear::new(flat, hidden, &mut rng))))
                    .push_boxed(wrap(Box::new(Relu::new())))
                    .push_boxed(wrap(Box::new(Linear::new(hidden, CLASSES, &mut rng))))
            }
            Net::Wide { hidden } => Sequential::new("wide_mlp")
                .push_boxed(wrap(Box::new(Flatten::new())))
                .push_boxed(wrap(Box::new(Linear::new(c * h * w, hidden, &mut rng))))
                .push_boxed(wrap(Box::new(Relu::new())))
                .push_boxed(wrap(Box::new(Linear::new(hidden, CLASSES, &mut rng)))),
        };
        match sink {
            None => model.boxed(),
            Some(sink) => Box::new(TracedModel::new(model.boxed(), Arc::clone(sink))),
        }
    }

    /// A fresh FedCross with the scale-mapped configuration.
    pub fn algorithm(&self, init: Vec<f32>) -> FedCross {
        FedCross::new(fedcross_config(), init, self.k)
    }

    /// The simulation configuration (one evaluation per round); `rounds` is
    /// the upper bound on absolute rounds any segment may reach.
    pub fn simulation_config(&self, seed: u64, rounds: usize) -> SimulationConfig {
        SimulationConfig {
            rounds,
            clients_per_round: self.k,
            eval_every: 1,
            eval_batch_size: 64,
            local: self.local,
            seed,
        }
    }
}

/// `fedcross_bench::scaled_fedcross()` as a FedCross configuration.
pub fn fedcross_config() -> FedCrossConfig {
    match scaled_fedcross() {
        AlgorithmSpec::FedCross {
            alpha,
            strategy,
            acceleration,
        } => FedCrossConfig {
            alpha,
            strategy,
            acceleration,
            ..FedCrossConfig::default()
        },
        other => unreachable!("scaled_fedcross() is a FedCross spec, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::models::{cnn, CnnConfig};

    #[test]
    fn cnn_templates_match_the_model_zoo() {
        for (workload, channels, hidden) in [(ALL[0], (16, 32), 64), (ALL[2], (2, 4), 8)] {
            let ours = workload.build_template(11, None);
            let zoo = cnn(
                IMAGE,
                CLASSES,
                CnnConfig {
                    conv_channels: channels,
                    fc_hidden: hidden,
                    kernel: 3,
                },
                &mut SeededRng::new(11),
            );
            assert_eq!(ours.params_flat(), zoo.params_flat());
            assert_eq!(ours.param_layout_hash(), zoo.param_layout_hash());
        }
    }

    #[test]
    fn model_sizes_match_the_workload_definitions() {
        let sizes: Vec<usize> = ALL
            .iter()
            .map(|w| w.build_template(0, None).param_count())
            .collect();
        assert_eq!(sizes, vec![38_570, 797_706, 742]);
    }

    #[test]
    fn tracing_keeps_the_parameters_and_layout() {
        let sink = Arc::new(Sink::new(16));
        for workload in ALL {
            let plain = workload.build_template(5, None);
            let traced = workload.build_template(5, Some(&sink));
            assert_eq!(plain.params_flat(), traced.params_flat());
            assert_eq!(plain.param_layout_hash(), traced.param_layout_hash());
            assert_eq!(plain.arch_name(), traced.arch_name());
        }
    }
}
