//! Schedule-invariance sanitizer harness.
//!
//! The bitwise-trajectory pins in `tests/tests/training_plane.rs` prove the
//! system reproduces one canonical trajectory — but they run under a single
//! schedule, so a parallel kernel that races (accumulating in thread
//! completion order, say) or an algorithm that aggregates in upload *arrival*
//! order would still pass them. This module is the complementary race
//! detector: it runs every shipped algorithm ([`SweptAlgorithm::shipped`]) on a
//! tiny synthetic federation and fingerprints the full trajectory (per-round
//! metrics, communication counters, final global model bits), so callers can
//! diff the fingerprint across rayon thread counts and permuted upload
//! arrival orders. Identical fingerprints everywhere = the trajectory depends
//! only on the construction seeds, never on the schedule.
//!
//! Used by the `determinism_check` binary and the `tests/tests/lint_plane.rs`
//! suite; `tests/tests/training_plane.rs` pins every canonical fingerprint.

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_compress::{CompressedFedAvg, UniformQuantizer};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::{
    DeviceModel, FaultPlan, FederatedAlgorithm, LocalTrainConfig, RoundPolicy, Simulation,
    SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::Model;
use fedcross_privacy::algorithms::DpFedCrossConfig;
use fedcross_privacy::{DpConfig, DpFedAvg, DpFedCross, NoisePlacement, SecureAggFedAvg};
use fedcross_tensor::SeededRng;

/// Federation size of the sanitizer task.
pub const SANITIZER_CLIENTS: usize = 6;
/// Clients per round (= FedCross middleware count) of the sanitizer task.
pub const SANITIZER_K: usize = 3;
/// Rounds the sanitizer trains.
pub const SANITIZER_ROUNDS: usize = 3;

/// FNV-1a over a byte stream — the same fingerprint primitive the
/// trajectory pins use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Creates the hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Absorbs an `f32`'s exact bit pattern.
    pub fn write_f32(&mut self, value: f32) {
        self.write(&value.to_bits().to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The tiny synthetic federation + model the sanitizer runs on (mirrors the
/// baseline unit tests' fixture: Dirichlet-skewed synth CIFAR-10 shards and
/// a small CNN).
fn sanitizer_setup() -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(7);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: SANITIZER_CLIENTS,
            samples_per_client: 25,
            test_samples: 60,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (4, 8),
            fc_hidden: 16,
            kernel: 3,
        },
        &mut rng,
    );
    (data, template)
}

fn sanitizer_config() -> SimulationConfig {
    SimulationConfig {
        rounds: SANITIZER_ROUNDS,
        clients_per_round: SANITIZER_K,
        eval_every: 1,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 11,
    }
}

/// The DP mechanism of the swept DP algorithms.
const DP: DpConfig = DpConfig {
    clip_norm: 2.0,
    noise_multiplier: 0.3,
    placement: NoisePlacement::Central,
};

/// Builds an algorithm outside the registry from the initial parameters.
pub type Builder = fn(Vec<f32>) -> Box<dyn FederatedAlgorithm>;

/// The privacy and compression algorithms, with representative settings.
/// They live in crates layered above `fedcross`, so
/// `AlgorithmSpec::registered()` cannot name them; this crate depends on
/// both planes, so the sweeps list them here.
const UNREGISTERED: [(&str, Builder); 4] = [
    ("DP-FedAvg", |init| Box::new(DpFedAvg::new(init, DP, 101))),
    ("DP-FedCross", |init| {
        let config = DpFedCrossConfig {
            dp: DP,
            ..Default::default()
        };
        Box::new(DpFedCross::new(config, init, SANITIZER_K, 105))
    }),
    ("Compressed-FedAvg", |init| {
        let quantizer = Box::new(UniformQuantizer::new(4, true));
        Box::new(CompressedFedAvg::new(init, quantizer, true, 109))
    }),
    ("SecureAgg-FedAvg", |init| {
        Box::new(SecureAggFedAvg::new(init, 25.0, 113))
    }),
];

/// One algorithm the sweeps cover.
#[derive(Debug, Clone, Copy)]
pub enum SweptAlgorithm {
    /// A spec from the core registry.
    Registered(AlgorithmSpec),
    /// A privacy or compression algorithm: its label and constructor.
    Unregistered(&'static str, Builder),
}

impl From<AlgorithmSpec> for SweptAlgorithm {
    fn from(spec: AlgorithmSpec) -> Self {
        SweptAlgorithm::Registered(spec)
    }
}

impl SweptAlgorithm {
    /// Every shipped algorithm: the registered specs, then the privacy and
    /// compression algorithms.
    pub fn shipped() -> Vec<SweptAlgorithm> {
        let registered = AlgorithmSpec::registered().into_iter();
        let others = UNREGISTERED.map(|(label, build)| Self::Unregistered(label, build));
        registered.map(Self::Registered).chain(others).collect()
    }

    /// A short display label.
    pub fn label(&self) -> &'static str {
        match self {
            SweptAlgorithm::Registered(spec) => spec.label(),
            SweptAlgorithm::Unregistered(label, _) => label,
        }
    }

    /// Builds the algorithm for the sanitizer federation.
    pub fn build(&self, init: Vec<f32>) -> Box<dyn FederatedAlgorithm> {
        match self {
            SweptAlgorithm::Registered(spec) => {
                build_algorithm(*spec, init, SANITIZER_CLIENTS, SANITIZER_K)
            }
            SweptAlgorithm::Unregistered(_, build) => build(init),
        }
    }

    fn is_buffered(&self) -> bool {
        matches!(
            self,
            SweptAlgorithm::Registered(
                AlgorithmSpec::BufferedFedAvg { .. } | AlgorithmSpec::BufferedFedCross { .. }
            )
        )
    }
}

/// Runs `algorithm` (a registered spec or any [`SweptAlgorithm`]) for
/// [`SANITIZER_ROUNDS`] rounds and returns the trajectory fingerprint:
/// per-round metrics bits, communication counters and the final global model
/// bits.
///
/// With `upload_shuffle: None` the uploads arrive in dispatch order (the
/// canonical trajectory); with `Some(seed)` every round's arrival order is
/// permuted by a deterministic shuffle. A correct algorithm returns the same
/// fingerprint either way.
///
/// Buffered specs run under a `RoundPolicy::Buffered` service plane with a
/// straggling device fleet and stall faults, so their cross-round buffer —
/// the stateful path most exposed to arrival order — actually carries
/// entries.
pub fn spec_fingerprint(algorithm: impl Into<SweptAlgorithm>, upload_shuffle: Option<u64>) -> u64 {
    let algorithm = algorithm.into();
    let (data, template) = sanitizer_setup();
    let init = template.params_flat();
    let buffered = algorithm.is_buffered();
    let mut algorithm = algorithm.build(init);
    let mut sim = Simulation::new(sanitizer_config(), &data, template);
    if buffered {
        sim = sim
            .with_round_policy(RoundPolicy::Buffered {
                goal_k: 2,
                max_staleness: 4,
            })
            .with_devices(DeviceModel::two_tier(0.34, 3.0, 5))
            .with_faults(FaultPlan {
                stall_prob: 0.2,
                ..Default::default()
            });
    }
    if let Some(seed) = upload_shuffle {
        sim = sim.with_upload_shuffle(seed);
    }
    let result = sim.run(algorithm.as_mut());

    let mut hash = Fnv1a::new();
    for record in result.history.records() {
        hash.write_u64(record.round as u64);
        hash.write_f32(record.accuracy);
        hash.write_f32(record.test_loss);
        hash.write_f32(record.train_loss);
    }
    hash.write_u64(result.comm.model_download);
    hash.write_u64(result.comm.model_upload);
    hash.write_u64(result.comm.extra_download);
    hash.write_u64(result.comm.extra_upload);
    hash.write_u64(result.comm.client_contacts);
    for &w in &algorithm.global_params() {
        hash.write_f32(w);
    }
    hash.finish()
}

/// One spec's sweep outcome: the canonical fingerprint plus every variant.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec's display label.
    pub label: &'static str,
    /// Fingerprint of the canonical schedule (baseline thread count, no
    /// shuffle).
    pub canonical: u64,
    /// `(variant description, fingerprint)` for every schedule variant.
    pub variants: Vec<(String, u64)>,
}

impl SweepOutcome {
    /// Whether every variant reproduced the canonical fingerprint.
    pub fn invariant(&self) -> bool {
        self.variants.iter().all(|(_, fp)| *fp == self.canonical)
    }
}

/// Sweeps one algorithm (a registered spec or any [`SweptAlgorithm`]) across
/// rayon thread counts and upload-shuffle seeds, returning all fingerprints.
/// The global rayon override is restored to "unset" afterwards.
pub fn sweep_spec(
    algorithm: impl Into<SweptAlgorithm>,
    threads: &[usize],
    shuffle_seeds: &[u64],
) -> SweepOutcome {
    let algorithm = algorithm.into();
    rayon::set_num_threads(0);
    let canonical = spec_fingerprint(algorithm, None);
    let mut variants = Vec::new();
    for &t in threads {
        rayon::set_num_threads(t);
        variants.push((format!("threads={t}"), spec_fingerprint(algorithm, None)));
    }
    rayon::set_num_threads(0);
    for &seed in shuffle_seeds {
        variants.push((
            format!("upload-shuffle={seed}"),
            spec_fingerprint(algorithm, Some(seed)),
        ));
    }
    SweepOutcome {
        label: algorithm.label(),
        canonical,
        variants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_reproducible_for_one_spec() {
        let a = spec_fingerprint(AlgorithmSpec::FedAvg, None);
        let b = spec_fingerprint(AlgorithmSpec::FedAvg, None);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let fedavg = spec_fingerprint(AlgorithmSpec::FedAvg, None);
        let fedprox = spec_fingerprint(AlgorithmSpec::FedProx { mu: 0.01 }, None);
        assert_ne!(fedavg, fedprox);
    }
}
