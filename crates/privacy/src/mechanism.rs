//! Noise mechanisms applied to clipped parameter deltas.
//!
//! Two placements are supported, matching the two families the paper's
//! discussion cites:
//!
//! * **Central DP** (DP-FedAvg / "FL with DP", Wei et al.): clients upload
//!   clipped deltas in the clear (or under secure aggregation) and the *server*
//!   adds one Gaussian perturbation to the aggregate, calibrated to
//!   `C · z / K` per coordinate where `C` is the clip norm, `z` the noise
//!   multiplier and `K` the number of participants.
//! * **Local DP** (LDP-FL, Sun et al.): every *client* perturbs its own
//!   clipped delta with noise calibrated to `C · z` before uploading, so the
//!   server never observes an exact update.
//!
//! The mechanisms take the RNG they draw from as a parameter and consume
//! nothing else; callers on the resume plane must hand them a **round-derived**
//! stream (`fedcross_flsim::streams::RoundStreams` keyed by the absolute
//! round and the client/slot identity, as [`DpFedAvg`] and [`DpFedCross`]
//! do), never a long-lived RNG shared across rounds or across clients — a
//! shared stream makes the injected noise depend on upload arrival order and
//! is unrecoverable after a restart.
//!
//! [`DpFedAvg`]: crate::algorithms::DpFedAvg
//! [`DpFedCross`]: crate::algorithms::DpFedCross

use crate::clipping::clip_to_norm;
use fedcross_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Where the privacy noise is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoisePlacement {
    /// The server noises the aggregated delta (central / distributed DP).
    Central,
    /// Each client noises its own delta before upload (local DP).
    Local,
}

impl std::fmt::Display for NoisePlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoisePlacement::Central => write!(f, "central"),
            NoisePlacement::Local => write!(f, "local"),
        }
    }
}

/// Configuration of a differentially-private FL run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Maximum L2 norm of a client delta (the sensitivity bound `C`).
    pub clip_norm: f32,
    /// Noise multiplier `z`: the Gaussian standard deviation is `z · C`
    /// (local placement) or `z · C / K` (central placement).
    pub noise_multiplier: f32,
    /// Where the noise is injected.
    pub placement: NoisePlacement,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            placement: NoisePlacement::Central,
        }
    }
}

impl DpConfig {
    /// The per-coordinate Gaussian standard deviation applied at the point of
    /// injection, given `participants` clients in the round.
    pub fn noise_std(&self, participants: usize) -> f32 {
        match self.placement {
            NoisePlacement::Local => self.noise_multiplier * self.clip_norm,
            NoisePlacement::Central => {
                self.noise_multiplier * self.clip_norm / participants.max(1) as f32
            }
        }
    }
}

/// Adds i.i.d. Gaussian noise of standard deviation `std` to every coordinate.
pub fn add_gaussian_noise(values: &mut [f32], std: f32, rng: &mut SeededRng) {
    if std <= 0.0 {
        return;
    }
    for value in values.iter_mut() {
        *value += rng.normal_with(0.0, std);
    }
}

/// Clips `delta` to `config.clip_norm` and, for the local placement, perturbs
/// it with Gaussian noise of standard deviation `z · C`.
///
/// Central-placement noise is *not* added here — the server adds it once per
/// round to the aggregate via [`privatize_aggregate`].
pub fn privatize_client_delta(delta: &mut [f32], config: &DpConfig, rng: &mut SeededRng) {
    clip_to_norm(delta, config.clip_norm);
    if config.placement == NoisePlacement::Local {
        add_gaussian_noise(delta, config.noise_std(1), rng);
    }
}

/// Adds the server-side Gaussian perturbation of central DP to an already
/// averaged delta. No-op for the local placement (clients already noised).
pub fn privatize_aggregate(
    aggregate: &mut [f32],
    config: &DpConfig,
    participants: usize,
    rng: &mut SeededRng,
) {
    if config.placement == NoisePlacement::Central {
        add_gaussian_noise(aggregate, config.noise_std(participants), rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::params::l2_norm;
    use fedcross_tensor::stats::{mean_of, std_dev_of};

    #[test]
    fn noise_std_scales_with_placement_and_participants() {
        let config = DpConfig {
            clip_norm: 2.0,
            noise_multiplier: 1.5,
            placement: NoisePlacement::Central,
        };
        assert!((config.noise_std(10) - 0.3).abs() < 1e-6);
        let local = DpConfig {
            placement: NoisePlacement::Local,
            ..config
        };
        assert!((local.noise_std(10) - 3.0).abs() < 1e-6);
        // Central with zero participants degrades gracefully to one.
        assert!((config.noise_std(0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn gaussian_noise_matches_requested_moments() {
        let mut rng = SeededRng::new(7);
        let mut values = vec![0.0f32; 20_000];
        add_gaussian_noise(&mut values, 0.5, &mut rng);
        assert!(mean_of(&values).abs() < 0.02);
        assert!((std_dev_of(&values) - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_std_noise_is_a_no_op() {
        let mut values = vec![1.0, -2.0, 3.0];
        let mut rng = SeededRng::new(9);
        add_gaussian_noise(&mut values, 0.0, &mut rng);
        assert_eq!(values, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn local_placement_noises_the_client_delta() {
        let config = DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            placement: NoisePlacement::Local,
        };
        let mut delta = vec![0.0f32; 64];
        let mut rng = SeededRng::new(10);
        privatize_client_delta(&mut delta, &config, &mut rng);
        assert!(l2_norm(&delta) > 0.0, "local DP must perturb the delta");
    }

    #[test]
    fn central_placement_only_clips_the_client_delta() {
        let config = DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            placement: NoisePlacement::Central,
        };
        let mut delta = vec![3.0f32, 4.0];
        let mut rng = SeededRng::new(11);
        privatize_client_delta(&mut delta, &config, &mut rng);
        assert!((l2_norm(&delta) - 1.0).abs() < 1e-5);
        // Deterministic: no randomness consumed for the central placement.
        assert!((delta[0] - 0.6).abs() < 1e-5 && (delta[1] - 0.8).abs() < 1e-5);

        let mut aggregate = delta.clone();
        privatize_aggregate(&mut aggregate, &config, 4, &mut rng);
        assert_ne!(aggregate, delta, "server-side noise must be added");
    }

    #[test]
    fn clip_only_config_never_adds_noise() {
        let config = DpConfig {
            clip_norm: 0.5,
            noise_multiplier: 0.0,
            placement: NoisePlacement::Central,
        };
        let mut delta = vec![1.0f32, 0.0];
        let mut rng = SeededRng::new(12);
        privatize_client_delta(&mut delta, &config, &mut rng);
        let before = delta.clone();
        privatize_aggregate(&mut delta, &config, 4, &mut rng);
        assert_eq!(delta, before);
        assert!((l2_norm(&delta) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn placement_display_labels() {
        assert_eq!(NoisePlacement::Central.to_string(), "central");
        assert_eq!(NoisePlacement::Local.to_string(), "local");
    }
}
