//! Fixtures shared by the integration test binaries.

use fedcross::{RobustFedAvg, RobustFedCross, RobustFedCrossConfig, RobustRule};
use fedcross_bench::determinism::{Builder, SweptAlgorithm, SANITIZER_K};
use fedcross_flsim::FederatedAlgorithm;
use fedcross_privacy::algorithms::DpFedCrossConfig;
use fedcross_privacy::{DpConfig, DpFedAvg, DpFedCross, NoisePlacement};

/// The DP mechanism of the local-noise variants.
const LOCAL_DP: DpConfig = DpConfig {
    clip_norm: 2.0,
    noise_multiplier: 0.3,
    placement: NoisePlacement::Local,
};

fn robust_fedcross(rule: RobustRule, init: Vec<f32>) -> Box<dyn FederatedAlgorithm> {
    let config = RobustFedCrossConfig {
        alpha: 0.9,
        rule,
        ..Default::default()
    };
    Box::new(RobustFedCross::new(config, init, SANITIZER_K))
}

fn robust_fedavg(rule: RobustRule, init: Vec<f32>) -> Box<dyn FederatedAlgorithm> {
    Box::new(RobustFedAvg::new(rule, init))
}

const VARIANTS: [(&str, Builder); 8] = [
    ("Robust-FedCross(median)", |init| {
        robust_fedcross(RobustRule::Median, init)
    }),
    ("Robust-FedCross(krum)", |init| {
        robust_fedcross(RobustRule::Krum { f: 0, m: 2 }, init)
    }),
    ("Robust-FedCross(norm-bound)", |init| {
        robust_fedcross(RobustRule::NormBound { max_norm: 0.5 }, init)
    }),
    ("Robust-FedAvg(trimmed-mean)", |init| {
        robust_fedavg(RobustRule::TrimmedMean { trim: 0.25 }, init)
    }),
    ("Robust-FedAvg(krum)", |init| {
        robust_fedavg(RobustRule::Krum { f: 0, m: 2 }, init)
    }),
    ("Robust-FedAvg(norm-bound)", |init| {
        robust_fedavg(RobustRule::NormBound { max_norm: 0.5 }, init)
    }),
    ("DP-FedCross(local)", |init| {
        let config = DpFedCrossConfig {
            dp: LOCAL_DP,
            ..Default::default()
        };
        Box::new(DpFedCross::new(config, init, SANITIZER_K, 7))
    }),
    ("DP-FedAvg(local)", |init| {
        Box::new(DpFedAvg::new(init, LOCAL_DP, 7))
    }),
];

/// The robust rules and the DP noise placement that
/// [`SweptAlgorithm::shipped`] does not run, as sweepable algorithms: it
/// runs RobustFedCross with the trimmed mean only, RobustFedAvg with the
/// median only and both DP algorithms with central noise only.
pub fn rule_and_noise_variants() -> Vec<SweptAlgorithm> {
    VARIANTS
        .map(|(label, build)| SweptAlgorithm::Unregistered(label, build))
        .to_vec()
}
