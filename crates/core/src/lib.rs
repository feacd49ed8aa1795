//! # fedcross
//!
//! A from-scratch Rust implementation of **FedCross** — "FedCross: Towards
//! Accurate Federated Learning via Multi-Model Cross-Aggregation" (Hu et al.,
//! ICDE 2024) — together with the five baselines the paper compares against.
//!
//! ## What FedCross does
//!
//! Classic FL (FedAvg) dispatches *one* global model to `K` clients and
//! averages their updates, which repeatedly collapses conflicting client
//! knowledge into a single point and tends to get stuck in sharp loss-valley
//! regions. FedCross instead maintains `K` *middleware models*:
//!
//! 1. each round the `K` middleware models are randomly dispatched to `K`
//!    selected clients (one model per client, Algorithm 1 lines 4–10),
//! 2. after local training, every uploaded model is fused with a
//!    *collaborative model* chosen by a [`selection::SelectionStrategy`]
//!    (in-order / highest-similarity / lowest-similarity, cosine similarity),
//! 3. fusion is the [`aggregation::cross_aggregate`] rule
//!    `w_i = α·v_i + (1-α)·v_co` with α ∈ [0.5, 1) (the paper recommends
//!    α = 0.99 with the lowest-similarity strategy),
//! 4. the deployable global model is simply the average of the middleware
//!    models ([`aggregation::global_model`]) and never participates in
//!    training.
//!
//! Two optional training accelerators from Section III-D are provided in
//! [`acceleration`]: propeller models and dynamic α.
//!
//! Every algorithm runs on one of the two round skeletons in [`server`]:
//! [`server::Middleware`] (Algorithm 1's `K` models) or
//! [`server::GlobalModel`] (FedAvg's single model). An algorithm adds only
//! its candidate transform or server rule.
//!
//! Beyond the paper, [`robust`] adds Byzantine-robust variants
//! ([`robust::RobustFedAvg`], [`robust::RobustFedCross`]) built on the
//! [`aggregation::RobustRule`] family (coordinate-wise median, trimmed mean,
//! Krum / multi-Krum, norm bounding); see docs/ROBUSTNESS.md. [`buffered`]
//! adds FedBuff-style staleness-aware variants ([`buffered::BufferedFedAvg`],
//! [`buffered::BufferedFedCross`]) for asynchronous buffered rounds; see
//! docs/FAULTS.md.
//!
//! ## Baselines
//!
//! [`baselines`] implements FedAvg, FedProx, SCAFFOLD, FedGen (simplified
//! data-free distillation, see DESIGN.md) and CluSamp behind the same
//! [`fedcross_flsim::FederatedAlgorithm`] interface, so every experiment in
//! the paper's Section IV can be driven by the same simulation engine.
//!
//! ## Quick example
//!
//! ```
//! use fedcross::algorithm::{FedCross, FedCrossConfig};
//! use fedcross::selection::SelectionStrategy;
//! use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
//! use fedcross_data::Heterogeneity;
//! use fedcross_flsim::{Simulation, SimulationConfig, LocalTrainConfig};
//! use fedcross_nn::models::{cnn, CnnConfig};
//! use fedcross_nn::Model;
//! use fedcross_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let data = FederatedDataset::synth_cifar10(
//!     &SynthCifar10Config { num_clients: 6, samples_per_client: 10, test_samples: 20, ..Default::default() },
//!     Heterogeneity::Dirichlet(0.5),
//!     &mut rng,
//! );
//! let template = cnn((3, 16, 16), 10, CnnConfig { conv_channels: (2, 4), fc_hidden: 8, kernel: 3 }, &mut rng);
//! let config = FedCrossConfig {
//!     alpha: 0.99,
//!     strategy: SelectionStrategy::LowestSimilarity,
//!     ..Default::default()
//! };
//! let mut algo = FedCross::new(config, template.params_flat(), 3);
//! let sim_config = SimulationConfig {
//!     rounds: 2, clients_per_round: 3, eval_every: 1,
//!     local: LocalTrainConfig::fast(), ..Default::default()
//! };
//! let result = Simulation::new(sim_config, &data, template).run(&mut algo);
//! assert_eq!(result.history.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acceleration;
pub mod aggregation;
pub mod algorithm;
pub mod analysis;
pub mod baselines;
pub mod buffered;
pub mod registry;
pub mod robust;
pub mod selection;
pub mod server;

pub use acceleration::Acceleration;
pub use aggregation::RobustRule;
pub use algorithm::{FedCross, FedCrossConfig};
pub use buffered::{BufferedFedAvg, BufferedFedCross, BufferedFedCrossConfig, BufferedUpload};
pub use registry::{build_algorithm, AlgorithmSpec};
pub use robust::{RobustFedAvg, RobustFedCross, RobustFedCrossConfig};
pub use selection::{SelectionStrategy, SimilarityMeasure};
