//! Adversarial client behaviour (Byzantine / poisoning simulation).
//!
//! The availability plane ([`crate::availability`]) models clients that
//! *disappear*; this module models clients that *lie*. A fraction of the
//! federation is compromised and, depending on the configured [`Attack`],
//! either trains on poisoned data (label flipping) or tampers with the
//! uploaded parameters after honest training (sign flipping, update scaling,
//! collusion towards a shared target). The two axes are orthogonal: an
//! adversarial run can also drop clients, and a compromised client that drops
//! out simply never gets to attack that round.
//!
//! Everything stochastic about the adversary derives from
//! [`RoundStreams`], never from a consumed RNG:
//!
//! * **membership** — which clients are compromised — is a pure function of
//!   `(AdversaryMembership domain, adversary seed, federation size)`, fixed
//!   for the whole run (the realistic threat model: a device is either owned
//!   by the attacker or it is not),
//! * **per-round draws** — the colluding attack's shared target direction —
//!   come from the `AdversaryDraw` domain keyed by the absolute round.
//!
//! Both properties together make adversarial runs first-class citizens of the
//! resume plane: a run checkpointed mid-attack and restarted replays the
//! identical corruption (pinned by `tests/tests/resume_plane.rs`), and a
//! round's corrupted uploads do not depend on upload arrival order.

use crate::client::LocalUpdate;
use crate::streams::{RoundStreams, StreamDomain};
use fedcross_data::Dataset;
use serde::{Deserialize, Serialize};

/// What a compromised client does to its round contribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Attack {
    /// Data poisoning: train honestly but on flipped labels
    /// (`label ↦ num_classes - 1 - label`). The upload is a genuinely trained
    /// model — just for the wrong task.
    LabelFlip,
    /// Model poisoning: upload `dispatched - scale·Δ` instead of
    /// `dispatched + Δ` (gradient ascent from the server's perspective).
    SignFlip {
        /// Magnitude of the reversed update (1 = exact mirror image).
        scale: f32,
    },
    /// Model poisoning: upload `dispatched + factor·Δ`, the classic scaled
    /// Byzantine update that dominates any plain average.
    ScaledUpdate {
        /// Update amplification factor (the literature uses 10–100).
        factor: f32,
    },
    /// Collusion: every compromised client discards its training and uploads
    /// `dispatched + magnitude·t̂`, where `t̂` is a unit direction shared by
    /// all colluders and redrawn every round from the `AdversaryDraw` stream.
    Colluding {
        /// Step length along the shared target direction.
        magnitude: f32,
    },
}

impl Attack {
    /// Short label used in report tables.
    pub fn label(&self) -> String {
        match *self {
            // alloc: cold — reporting label, not on the round path
            Attack::LabelFlip => "label-flip".to_string(),
            // alloc: cold — reporting label, not on the round path
            Attack::SignFlip { scale } => format!("sign-flip(x{scale})"),
            // alloc: cold — reporting label, not on the round path
            Attack::ScaledUpdate { factor } => format!("scaled-update(x{factor})"),
            // alloc: cold — reporting label, not on the round path
            Attack::Colluding { magnitude } => format!("colluding(m={magnitude})"),
        }
    }
}

/// A compromised fraction of the federation plus the attack it mounts.
///
/// Attach to a run with `Simulation::with_adversaries`. The `seed` roots the
/// adversary's own stream family, independent of the simulation master seed,
/// so the same training trajectory can be re-run under a different compromise
/// pattern (and vice versa) without the two interfering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryModel {
    /// The behaviour of every compromised client.
    pub attack: Attack,
    /// Fraction of the federation that is compromised, in `[0, 1)`. The
    /// compromised count is `round(fraction · num_clients)`.
    pub fraction: f32,
    /// Base seed of the adversary's membership and draw streams.
    pub seed: u64,
}

impl AdversaryModel {
    /// Validates the configuration, panicking on nonsense values — a real
    /// `assert!` in every build profile, mirroring
    /// [`crate::availability::AvailabilityModel::validate`].
    ///
    /// # Panics
    /// Panics if the fraction lies outside `[0, 1)` or is not finite, or an
    /// attack parameter is not finite.
    pub fn validate(&self) {
        assert!(
            self.fraction.is_finite() && (0.0..1.0).contains(&self.fraction),
            "adversarial fraction must be in [0, 1), got {}",
            self.fraction
        );
        let parameter = match self.attack {
            Attack::LabelFlip => 1.0,
            Attack::SignFlip { scale } => scale,
            Attack::ScaledUpdate { factor } => factor,
            Attack::Colluding { magnitude } => magnitude,
        };
        assert!(
            parameter.is_finite(),
            "attack parameter must be finite, got {parameter}"
        );
    }

    /// Short label used in report tables ("scaled-update(x10)@30%").
    pub fn label(&self) -> String {
        // alloc: cold — reporting label, not on the round path
        format!("{}@{:.0}%", self.attack.label(), self.fraction * 100.0)
    }

    /// Number of compromised clients in a federation of `num_clients`
    /// (nearest integer to `fraction · num_clients`).
    pub fn num_compromised(&self, num_clients: usize) -> usize {
        (f64::from(self.fraction) * num_clients as f64).round() as usize
    }

    /// The compromised-client mask for a federation of `num_clients`: a pure
    /// function of `(membership domain, seed, num_clients)`, identical on
    /// every call, every round and every resume.
    pub fn compromised(&self, num_clients: usize) -> Vec<bool> {
        // alloc: cold — adversary roster built at configuration time
        let mut mask = vec![false; num_clients];
        let count = self.num_compromised(num_clients).min(num_clients);
        if count > 0 {
            let mut rng = RoundStreams::new(StreamDomain::AdversaryMembership, self.seed)
                .round(0)
                .server();
            for client in rng.sample_without_replacement(num_clients, count) {
                mask[client] = true;
            }
        }
        mask
    }

    /// The poisoned training shard of a label-flipping client: same features,
    /// every label mapped to `num_classes - 1 - label`. Other attacks train on
    /// the honest shard, so this is only called for [`Attack::LabelFlip`].
    pub fn flip_labels(&self, data: &Dataset) -> Dataset {
        let classes = data.num_classes();
        // alloc: cold — adversarial dataset rewrite at materialization time
        let labels = data.labels().iter().map(|&l| classes - 1 - l).collect();
        // alloc: cold — adversarial dataset rewrite at materialization time
        Dataset::new(data.features().clone(), labels, classes)
    }

    /// Applies the configured upload tampering to `update`, in place.
    /// `dispatched` is the parameter vector the server sent this client
    /// (the anchor the honest delta is measured against). [`Attack::LabelFlip`]
    /// leaves the upload alone — its poison is already inside the weights.
    ///
    /// The only randomness (the colluding target) is redrawn from
    /// `(AdversaryDraw domain, seed, round)`, so the corrupted upload is a
    /// pure function of `(round, client, dispatched, trained)`.
    pub fn corrupt_upload(&self, round: usize, dispatched: &[f32], update: &mut LocalUpdate) {
        debug_assert_eq!(dispatched.len(), update.params.len());
        match self.attack {
            Attack::LabelFlip => {}
            Attack::SignFlip { scale } => {
                let params = update.params.make_mut();
                for (p, &d) in params.iter_mut().zip(dispatched) {
                    *p = d - scale * (*p - d);
                }
            }
            Attack::ScaledUpdate { factor } => {
                let params = update.params.make_mut();
                for (p, &d) in params.iter_mut().zip(dispatched) {
                    *p = d + factor * (*p - d);
                }
            }
            Attack::Colluding { magnitude } => {
                let mut rng = RoundStreams::new(StreamDomain::AdversaryDraw, self.seed)
                    .round(round)
                    .server();
                let params = update.params.make_mut();
                // alloc: bounded — adversarial target vector, compromised uploads only
                let mut target: Vec<f32> = (0..params.len()).map(|_| rng.normal()).collect();
                let norm = target.iter().map(|t| t * t).sum::<f32>().sqrt().max(1e-12);
                for t in &mut target {
                    *t /= norm;
                }
                for ((p, &d), t) in params.iter_mut().zip(dispatched).zip(target) {
                    *p = d + magnitude * t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_nn::params::ParamBlock;
    use fedcross_tensor::Tensor;

    fn model(attack: Attack, fraction: f32) -> AdversaryModel {
        AdversaryModel {
            attack,
            fraction,
            seed: 7,
        }
    }

    fn update(client: usize, params: Vec<f32>) -> LocalUpdate {
        LocalUpdate {
            client,
            params: ParamBlock::from(params),
            num_samples: 10,
            train_loss: 1.0,
            steps: 2,
        }
    }

    #[test]
    fn membership_is_deterministic_and_counts_the_fraction() {
        let adv = model(Attack::LabelFlip, 0.3);
        let a = adv.compromised(10);
        let b = adv.compromised(10);
        assert_eq!(a, b, "membership must be a pure function of the seed");
        assert_eq!(a.iter().filter(|&&c| c).count(), 3, "30% of 10 clients");
        // A different adversary seed compromises a different set (with ten
        // clients and three picks a collision of all three is unlikely; this
        // seed pair differs).
        let other = AdversaryModel { seed: 8, ..adv }.compromised(10);
        assert_ne!(a, other);
        // Zero fraction compromises nobody.
        assert!(model(Attack::LabelFlip, 0.0).compromised(10).iter().all(|&c| !c));
    }

    #[test]
    fn label_flip_mirrors_the_label_space_and_keeps_features() {
        let data = Dataset::new(
            Tensor::from_vec(vec![0.5; 12], &[3, 4]),
            vec![0, 9, 4],
            10,
        );
        let adv = model(Attack::LabelFlip, 0.5);
        let flipped = adv.flip_labels(&data);
        assert_eq!(flipped.labels(), &[9, 0, 5]);
        assert_eq!(flipped.features().data(), data.features().data());
        // Upload tampering is a no-op for the data-poisoning attack.
        let mut u = update(1, vec![1.0, 2.0]);
        adv.corrupt_upload(0, &[0.0, 0.0], &mut u);
        assert_eq!(u.params.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn sign_flip_mirrors_the_delta_around_the_dispatched_model() {
        let adv = model(Attack::SignFlip { scale: 1.0 }, 0.5);
        let dispatched = vec![1.0f32, -1.0];
        let mut u = update(0, vec![3.0, 0.0]); // delta = (2, 1)
        adv.corrupt_upload(4, &dispatched, &mut u);
        assert_eq!(u.params.as_slice(), &[-1.0, -2.0]); // dispatched - delta
    }

    #[test]
    fn scaled_update_amplifies_the_delta() {
        let adv = model(Attack::ScaledUpdate { factor: 10.0 }, 0.5);
        let dispatched = vec![0.0f32, 1.0];
        let mut u = update(0, vec![1.0, 1.5]); // delta = (1, 0.5)
        adv.corrupt_upload(4, &dispatched, &mut u);
        assert_eq!(u.params.as_slice(), &[10.0, 6.0]);
    }

    #[test]
    fn colluders_share_one_round_target_that_changes_across_rounds() {
        let adv = model(Attack::Colluding { magnitude: 5.0 }, 0.5);
        let dispatched = vec![0.0f32; 16];
        let mut a = update(0, vec![1.0; 16]);
        let mut b = update(3, vec![-1.0; 16]);
        adv.corrupt_upload(2, &dispatched, &mut a);
        adv.corrupt_upload(2, &dispatched, &mut b);
        // Same round, same anchor: identical uploads regardless of client or
        // training outcome.
        assert_eq!(a.params.as_slice(), b.params.as_slice());
        let norm = a.params.iter().map(|p| p * p).sum::<f32>().sqrt();
        assert!((norm - 5.0).abs() < 1e-4, "target step norm {norm}");
        // A different round draws a different target.
        let mut c = update(0, vec![1.0; 16]);
        adv.corrupt_upload(3, &dispatched, &mut c);
        assert_ne!(a.params.as_slice(), c.params.as_slice());
    }

    #[test]
    #[should_panic(expected = "adversarial fraction must be in [0, 1)")]
    fn out_of_range_fraction_is_rejected() {
        model(Attack::LabelFlip, 1.5).validate();
    }

    #[test]
    #[should_panic(expected = "attack parameter must be finite")]
    fn non_finite_attack_parameter_is_rejected() {
        model(Attack::ScaledUpdate { factor: f32::NAN }, 0.2).validate();
    }

    #[test]
    fn labels_describe_the_model() {
        assert_eq!(
            model(Attack::ScaledUpdate { factor: 10.0 }, 0.3).label(),
            "scaled-update(x10)@30%"
        );
        assert_eq!(model(Attack::LabelFlip, 0.25).label(), "label-flip@25%");
    }
}
