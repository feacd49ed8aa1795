//! # fedcross-flsim
//!
//! The federated-learning simulation engine the FedCross reproduction runs on:
//! the cloud–client substrate that is independent of any particular
//! aggregation rule.
//!
//! * [`client`] — local SGD training on one client's data, with optional
//!   per-parameter gradient corrections (used by FedProx and SCAFFOLD),
//! * [`eval`] — centralised evaluation of a model on the global test set,
//! * [`comm`] — per-round communication accounting, reproducing the paper's
//!   Table I / Section IV-C3 overhead comparison,
//! * [`history`] — learning-curve recording (the data behind Figures 5–9),
//! * [`landscape`] — loss-landscape surfaces and sharpness scores
//!   (Figure 4 / RQ1),
//! * [`availability`] — client dropout / straggler models for robustness
//!   experiments,
//! * [`adversary`] — Byzantine / poisoning client behaviour (label flipping,
//!   scaled and sign-flipped updates, collusion), orthogonal to availability
//!   and drawn from [`streams`] so adversarial runs stay bitwise resumable,
//! * [`device`] — device-speed heterogeneity: per-client speed tiers and
//!   per-round latency jitter, the straggler substrate of the deadline and
//!   buffered round policies,
//! * [`faults`] — transport/server fault injection (mid-round crashes,
//!   stalled and duplicated uploads, transient apply failures) plus the
//!   [`faults::RoundPolicy`] family that decides how rounds close,
//! * [`checkpoint`] — the resume plane: atomic JSON checkpoints of the
//!   complete training state ([`checkpoint::AlgorithmState`]), restored by
//!   [`engine::Simulation::resume`] for bitwise-identical continuation,
//! * [`fairness`] — per-client accuracy distribution of a deployed global
//!   model (the measurement behind the paper's Figure 1 motivation),
//! * [`worker`] — the persistent client-worker plane: warm model + scratch
//!   slots reused across rounds so steady-state rounds construct no models,
//! * [`streams`] — round-derived stochastic streams: per-round, per-consumer
//!   RNGs derived from `(domain, base seed, absolute round, slot)` so
//!   algorithm-side noise (DP, compression dithering, secure-agg masks) is
//!   resumable and independent of upload arrival order,
//! * [`engine`] — the round loop: an implementation of
//!   [`engine::FederatedAlgorithm`] (FedCross and the five baselines live in
//!   the `fedcross` crate) is driven round by round against any
//!   [`fedcross_data::ClientDataSource`] — resident shards, a lazy source
//!   or a cached [`fedcross_data::ShardPlane`] — with periodic evaluation.
//!
//! ## Quick example
//!
//! ```
//! use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
//! use fedcross_data::Heterogeneity;
//! use fedcross_flsim::engine::{RoundContext, RoundReport, FederatedAlgorithm, Simulation, SimulationConfig};
//! use fedcross_nn::models::{cnn, CnnConfig};
//! use fedcross_nn::Model;
//! use fedcross_nn::params::average;
//! use fedcross_tensor::SeededRng;
//!
//! // A minimal FedAvg implementation against the engine API.
//! struct TinyFedAvg { global: Vec<f32> }
//! impl FederatedAlgorithm for TinyFedAvg {
//!     fn name(&self) -> String { "tiny-fedavg".to_string() }
//!     fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
//!         let selected = ctx.select_clients();
//!         let jobs: Vec<(usize, Vec<f32>)> =
//!             selected.iter().map(|&c| (c, self.global.clone())).collect();
//!         let updates = ctx.local_train_batch(&jobs);
//!         self.global = average(&updates.iter().map(|u| u.params.clone()).collect::<Vec<_>>());
//!         RoundReport::from_updates(&updates)
//!     }
//!     fn global_params_into(&self, out: &mut Vec<f32>) { out.clone_from(&self.global) }
//! }
//!
//! let mut rng = SeededRng::new(0);
//! let data = FederatedDataset::synth_cifar10(
//!     &SynthCifar10Config { num_clients: 4, samples_per_client: 8, test_samples: 16, ..Default::default() },
//!     Heterogeneity::Iid,
//!     &mut rng,
//! );
//! let cnn_config = CnnConfig { conv_channels: (2, 4), fc_hidden: 8, kernel: 3 };
//! let template = cnn((3, 16, 16), 10, cnn_config, &mut rng);
//! let mut algo = TinyFedAvg { global: template.params_flat() };
//! let config = SimulationConfig { rounds: 2, clients_per_round: 2, eval_every: 1, ..Default::default() };
//! let result = Simulation::new(config, &data, template).run(&mut algo);
//! assert_eq!(result.history.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod availability;
pub mod checkpoint;
pub mod client;
pub mod comm;
pub mod device;
pub mod engine;
pub mod faults;
pub mod eval;
pub mod fairness;
pub mod history;
pub mod landscape;
pub mod streams;
pub mod worker;

pub use adversary::{AdversaryModel, Attack};
pub use availability::AvailabilityModel;
pub use checkpoint::{AlgorithmState, Checkpoint, StateError, CHECKPOINT_VERSION};
pub use client::{LocalTrainConfig, LocalUpdate};
pub use comm::{CommOverheadClass, CommTracker};
pub use device::DeviceModel;
pub use engine::{
    FederatedAlgorithm, ResumeError, RoundContext, RoundReport, Scenario, Simulation,
    SimulationConfig, UploadOutcome, SPARSE_SELECTION_THRESHOLD,
};
pub use faults::{FaultPlan, FaultTally, RoundPolicy, UploadFate};
pub use eval::EvalWorker;
pub use fairness::{per_client_fairness, FairnessReport};
pub use history::{RoundRecord, TrainingHistory};
pub use streams::{RoundStream, RoundStreams, StreamDomain};
pub use worker::{ClientWorker, ClientWorkerPool};
