//! # fedcross-privacy
//!
//! Privacy-preserving extensions for the FedCross workspace.
//!
//! Section IV-F1 of the FedCross paper argues that, because its dispatch /
//! local-training / upload pipeline is identical to FedAvg's, FedCross "can
//! easily integrate existing privacy-preserving techniques" (it cites
//! Bayesian DP, DP-FL and LDP-FL). This crate provides those integrations so
//! the claim can be exercised and measured rather than asserted:
//!
//! * [`clipping`] — L2-norm clipping of client model deltas, the sensitivity
//!   bound every differentially-private FL mechanism relies on,
//! * [`mechanism`] — the Gaussian mechanism applied to clipped parameter
//!   deltas, in both central-DP (noise added by the server to the aggregate)
//!   and local-DP (noise added by each client before upload) placements,
//! * [`accountant`] — a Rényi-DP accountant for the subsampled Gaussian
//!   mechanism, converting a training schedule (noise multiplier, sampling
//!   rate, rounds) into an (ε, δ) guarantee,
//! * [`secure_agg`] — a pairwise-masking secure-aggregation simulation in
//!   which the server only ever observes masked uploads whose masks cancel in
//!   the sum,
//! * [`algorithms`] — drop-in [`fedcross_flsim::FederatedAlgorithm`]
//!   implementations: [`algorithms::DpFedAvg`] (DP-FedAvg with central or
//!   local noise) and [`algorithms::DpFedCross`] (FedCross with per-middleware
//!   clipping and noise), so the privacy/utility trade-off can be swept by the
//!   benchmark harness (`ablation_privacy`).
//!
//! ## Quick example
//!
//! ```
//! use fedcross_privacy::accountant::RdpAccountant;
//! use fedcross_privacy::mechanism::{DpConfig, NoisePlacement};
//!
//! // A DP-FedAvg schedule: clip to 1.0, noise multiplier 1.1, 10% sampling.
//! let config = DpConfig { clip_norm: 1.0, noise_multiplier: 1.1, placement: NoisePlacement::Central };
//! let accountant = RdpAccountant::new(config.noise_multiplier, 0.1);
//! let epsilon = accountant.epsilon_after(100, 1e-5);
//! assert!(epsilon > 0.0 && epsilon.is_finite());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accountant;
pub mod algorithms;
pub mod clipping;
pub mod mechanism;
pub mod secure_agg;

pub use accountant::RdpAccountant;
pub use algorithms::{DpFedAvg, DpFedCross, SecureAggFedAvg};
pub use clipping::{clip_to_norm, clipped_delta};
pub use mechanism::{DpConfig, NoisePlacement};
pub use secure_agg::PairwiseMasker;
