//! A small registry mapping method names/specs to ready-to-run algorithms.
//!
//! The benchmark harness sweeps over the six methods of the paper; this
//! module gives it (and downstream users) a single constructor.
//!
//! The privacy and compression extensions (`fedcross-privacy`'s `DpFedAvg` /
//! `DpFedCross` / `SecureAggFedAvg`, `fedcross-compress`'s
//! `CompressedFedAvg`) live in crates layered *above* this one, so they
//! cannot appear in [`AlgorithmSpec`] without a dependency cycle — construct
//! them directly. The schedule-invariance sweeps still cover them:
//! `fedcross-bench`'s `determinism::SweptAlgorithm::shipped()` lists every
//! registered spec plus these four, and `determinism_check`, the
//! `lint_plane` sweep and the `training_plane` fingerprint table iterate it.
//! Like every spec here, all of them implement the full resume plane
//! (`snapshot_state`/`restore_state`): no shipped algorithm relies on the
//! refusing defaults (see docs/CHECKPOINTING.md).

use crate::acceleration::Acceleration;
use crate::aggregation::RobustRule;
use crate::algorithm::{FedCross, FedCrossConfig};
use crate::baselines::{CluSamp, FedAvg, FedGen, FedProx, Scaffold};
use crate::baselines::fedgen::FedGenConfig;
use crate::buffered::{BufferedFedAvg, BufferedFedCross, BufferedFedCrossConfig};
use crate::robust::{RobustFedAvg, RobustFedCross, RobustFedCrossConfig};
use crate::selection::SelectionStrategy;
use fedcross_flsim::FederatedAlgorithm;

/// A declarative description of which FL method to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSpec {
    /// Classic federated averaging.
    FedAvg,
    /// FedProx with proximal coefficient μ.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
    /// SCAFFOLD with server/client control variates.
    Scaffold,
    /// Simplified FedGen (see `baselines::fedgen`).
    FedGen,
    /// Clustered client sampling.
    CluSamp,
    /// FedCross multi-model cross-aggregation.
    FedCross {
        /// Cross-aggregation weight α.
        alpha: f32,
        /// Collaborative-model selection strategy.
        strategy: SelectionStrategy,
        /// Optional training acceleration.
        acceleration: Acceleration,
    },
    /// FedAvg with a Byzantine-robust aggregation rule
    /// ([`crate::robust::RobustFedAvg`]). Not part of the paper lineup —
    /// the robustness plane's baseline.
    RobustFedAvg {
        /// The robust aggregation rule replacing the weighted average.
        rule: RobustRule,
    },
    /// FedCross with robust per-middleware sanitization before
    /// cross-aggregation ([`crate::robust::RobustFedCross`]).
    RobustFedCross {
        /// Cross-aggregation weight α.
        alpha: f32,
        /// The robust rule applied to per-middleware deltas.
        rule: RobustRule,
    },
    /// FedBuff-style staleness-aware FedAvg for buffered rounds
    /// ([`crate::buffered::BufferedFedAvg`]). Not part of the paper lineup —
    /// the fault plane's single-model baseline.
    BufferedFedAvg {
        /// Staleness-weight exponent of `1/(1+s)^α`.
        staleness_alpha: f32,
    },
    /// FedCross over a staleness-weighted buffer
    /// ([`crate::buffered::BufferedFedCross`]).
    BufferedFedCross {
        /// Cross-aggregation weight α.
        alpha: f32,
        /// Staleness-weight exponent of `1/(1+s)^α`.
        staleness_alpha: f32,
    },
}

impl AlgorithmSpec {
    /// The paper's recommended FedCross configuration (α = 0.99, lowest
    /// similarity, no acceleration).
    pub fn fedcross_default() -> Self {
        AlgorithmSpec::FedCross {
            alpha: 0.99,
            strategy: SelectionStrategy::LowestSimilarity,
            acceleration: Acceleration::None,
        }
    }

    /// The six methods of Table II in paper order, using the paper's
    /// hyper-parameters (`mu` as tuned for CIFAR-10).
    pub fn paper_lineup() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::FedAvg,
            AlgorithmSpec::FedProx { mu: 0.01 },
            AlgorithmSpec::Scaffold,
            AlgorithmSpec::FedGen,
            AlgorithmSpec::CluSamp,
            AlgorithmSpec::fedcross_default(),
        ]
    }

    /// Every registered algorithm family with representative
    /// hyper-parameters: the paper's six methods plus one spec per
    /// extension plane (robust, buffered). This is the sweep surface for
    /// registry-driven invariant tests — snapshot/restore round-trips and
    /// the schedule-invariance sanitizer run over exactly this list, so a
    /// new algorithm added here is covered automatically.
    pub fn registered() -> Vec<AlgorithmSpec> {
        let mut specs = Self::paper_lineup();
        specs.push(AlgorithmSpec::RobustFedAvg {
            rule: RobustRule::Median,
        });
        specs.push(AlgorithmSpec::RobustFedCross {
            alpha: 0.9,
            rule: RobustRule::TrimmedMean { trim: 0.25 },
        });
        specs.push(AlgorithmSpec::BufferedFedAvg {
            staleness_alpha: 0.5,
        });
        specs.push(AlgorithmSpec::BufferedFedCross {
            alpha: 0.9,
            staleness_alpha: 0.5,
        });
        specs
    }

    /// A short display label ("FedAvg", "FedCross", ...), matching the paper's
    /// table headers.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::FedAvg => "FedAvg",
            AlgorithmSpec::FedProx { .. } => "FedProx",
            AlgorithmSpec::Scaffold => "SCAFFOLD",
            AlgorithmSpec::FedGen => "FedGen",
            AlgorithmSpec::CluSamp => "CluSamp",
            AlgorithmSpec::FedCross { .. } => "FedCross",
            AlgorithmSpec::RobustFedAvg { .. } => "Robust-FedAvg",
            AlgorithmSpec::RobustFedCross { .. } => "Robust-FedCross",
            AlgorithmSpec::BufferedFedAvg { .. } => "Buffered-FedAvg",
            AlgorithmSpec::BufferedFedCross { .. } => "Buffered-FedCross",
        }
    }
}

/// Builds a runnable algorithm from a spec.
///
/// * `init_params` — the shared initial model every method starts from,
/// * `total_clients` — federation size `N` (needed by SCAFFOLD and CluSamp),
/// * `clients_per_round` — the paper's `K` (the number of FedCross middleware
///   models).
pub fn build_algorithm(
    spec: AlgorithmSpec,
    init_params: Vec<f32>,
    total_clients: usize,
    clients_per_round: usize,
) -> Box<dyn FederatedAlgorithm> {
    match spec {
        AlgorithmSpec::FedAvg => Box::new(FedAvg::new(init_params)),
        AlgorithmSpec::FedProx { mu } => Box::new(FedProx::new(init_params, mu)),
        AlgorithmSpec::Scaffold => Box::new(Scaffold::new(init_params, total_clients)),
        AlgorithmSpec::FedGen => Box::new(FedGen::new(init_params, FedGenConfig::default())),
        AlgorithmSpec::CluSamp => Box::new(CluSamp::new(init_params, total_clients)),
        AlgorithmSpec::FedCross {
            alpha,
            strategy,
            acceleration,
        } => Box::new(FedCross::new(
            FedCrossConfig {
                alpha,
                strategy,
                acceleration,
                ..Default::default()
            },
            init_params,
            clients_per_round,
        )),
        AlgorithmSpec::RobustFedAvg { rule } => Box::new(RobustFedAvg::new(rule, init_params)),
        AlgorithmSpec::RobustFedCross { alpha, rule } => Box::new(RobustFedCross::new(
            RobustFedCrossConfig {
                alpha,
                rule,
                ..Default::default()
            },
            init_params,
            clients_per_round,
        )),
        AlgorithmSpec::BufferedFedAvg { staleness_alpha } => Box::new(BufferedFedAvg::new(
            staleness_alpha,
            init_params,
            total_clients,
        )),
        AlgorithmSpec::BufferedFedCross {
            alpha,
            staleness_alpha,
        } => Box::new(BufferedFedCross::new(
            BufferedFedCrossConfig {
                alpha,
                staleness_alpha,
                ..Default::default()
            },
            init_params,
            clients_per_round,
            total_clients,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lineup_has_six_methods_in_order() {
        let lineup = AlgorithmSpec::paper_lineup();
        assert_eq!(lineup.len(), 6);
        let labels: Vec<&str> = lineup.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["FedAvg", "FedProx", "SCAFFOLD", "FedGen", "CluSamp", "FedCross"]
        );
    }

    #[test]
    fn build_algorithm_produces_named_methods() {
        let init = vec![0.0f32; 8];
        for spec in AlgorithmSpec::paper_lineup() {
            let algo = build_algorithm(spec, init.clone(), 10, 4);
            assert!(!algo.name().is_empty());
            assert_eq!(algo.global_params(), init);
        }
    }

    #[test]
    fn robust_specs_build_named_algorithms_outside_the_paper_lineup() {
        let init = vec![0.0f32; 8];
        let specs = [
            AlgorithmSpec::RobustFedAvg {
                rule: RobustRule::Median,
            },
            AlgorithmSpec::RobustFedCross {
                alpha: 0.9,
                rule: RobustRule::TrimmedMean { trim: 0.25 },
            },
        ];
        for spec in specs {
            let algo = build_algorithm(spec, init.clone(), 10, 4);
            assert!(algo.name().starts_with("robust-"), "{}", algo.name());
            assert_eq!(algo.global_params(), init);
            // Every robust spec implements the resume plane.
            assert!(algo.snapshot_state().is_ok());
            // But none joins the paper's six-method table.
            assert!(!AlgorithmSpec::paper_lineup().contains(&spec));
        }
        assert_eq!(
            AlgorithmSpec::RobustFedAvg { rule: RobustRule::Median }.label(),
            "Robust-FedAvg"
        );
        assert_eq!(
            AlgorithmSpec::RobustFedCross {
                alpha: 0.9,
                rule: RobustRule::Median
            }
            .label(),
            "Robust-FedCross"
        );
    }

    #[test]
    fn buffered_specs_build_named_algorithms_outside_the_paper_lineup() {
        let init = vec![0.0f32; 8];
        let specs = [
            AlgorithmSpec::BufferedFedAvg {
                staleness_alpha: 0.5,
            },
            AlgorithmSpec::BufferedFedCross {
                alpha: 0.9,
                staleness_alpha: 0.5,
            },
        ];
        for spec in specs {
            let algo = build_algorithm(spec, init.clone(), 10, 4);
            assert!(algo.name().starts_with("buffered-"), "{}", algo.name());
            assert_eq!(algo.global_params(), init);
            assert!(algo.snapshot_state().is_ok());
            assert!(!AlgorithmSpec::paper_lineup().contains(&spec));
        }
        assert_eq!(
            AlgorithmSpec::BufferedFedAvg {
                staleness_alpha: 0.5
            }
            .label(),
            "Buffered-FedAvg"
        );
    }

    #[test]
    fn fedcross_default_matches_paper_recommendation() {
        match AlgorithmSpec::fedcross_default() {
            AlgorithmSpec::FedCross {
                alpha,
                strategy,
                acceleration,
            } => {
                assert!((alpha - 0.99).abs() < 1e-6);
                assert_eq!(strategy, SelectionStrategy::LowestSimilarity);
                assert_eq!(acceleration, Acceleration::None);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
