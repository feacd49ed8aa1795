//! # fedcross-data
//!
//! Synthetic federated datasets and non-IID partitioners for the FedCross
//! reproduction.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100, FEMNIST, Shakespeare and
//! Sent140. None of those corpora are available in this offline environment,
//! so this crate generates *synthetic stand-ins* that preserve the properties
//! the FL algorithms are sensitive to:
//!
//! * class-conditional structure that a small CNN/LSTM can actually learn,
//! * label-distribution skew across clients controlled by a Dirichlet
//!   `Dir(β)` prior exactly as in the paper (Hsu et al. 2019) — see
//!   [`partition::dirichlet_partition`],
//! * "natural" non-IIDness for the LEAF datasets, where every client is one
//!   user with its own latent style (writer style for FEMNIST, character
//!   distribution for Shakespeare, topic/vocabulary bias for Sent140).
//!
//! The top-level entry point is [`federated::FederatedDataset`], which holds
//! one [`Dataset`] per client plus a held-out global test set. Every
//! consumer reads it through the [`ClientDataSource`] trait, which the lazy
//! [`SynthTaskSource`] and the cached [`ShardPlane`] implement too.
//!
//! ## Quick example
//!
//! ```
//! use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
//! use fedcross_data::partition::Heterogeneity;
//! use fedcross_data::ClientDataSource;
//! use fedcross_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let fed = FederatedDataset::synth_cifar10(
//!     &SynthCifar10Config { num_clients: 10, samples_per_client: 20, ..Default::default() },
//!     Heterogeneity::Dirichlet(0.5),
//!     &mut rng,
//! );
//! assert_eq!(fed.num_clients(), 10);
//! assert!(fed.test_set().len() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod federated;
pub mod partition;
pub mod shard;
pub mod source;
pub mod synth;

pub use dataset::{Batch, Dataset};
pub use federated::FederatedDataset;
pub use partition::Heterogeneity;
pub use shard::{ShardPlane, ShardPlaneConfig, ShardStats};
pub use source::{ClientDataSource, SynthTaskSource};
