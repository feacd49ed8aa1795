//! Determinism lint plane integration tests.
//!
//! Two halves, mirroring the plane itself:
//!
//! * **Static** — the live tree passes `fedcross-lint --deny-all`: no
//!   unordered-map iteration on trajectory paths, no wall-clock/OS-entropy
//!   calls outside `bench`, every `SeededRng::fork` audited, no FMA or
//!   unordered parallel float reductions in kernel files, every `unsafe`
//!   justified, every `*_into` kernel paired (see docs/LINTS.md).
//! * **Runtime** — every shipped algorithm (the registered [`AlgorithmSpec`]s
//!   plus the DP, compression and secure-aggregation algorithms) produces a
//!   bitwise identical trajectory at rayon threads ∈ {1, 2, 4} and under
//!   permuted upload arrival order, and every registered algorithm's training
//!   state round-trips through snapshot/restore bitwise while shape-mismatched
//!   state is rejected.
//!
//! The runtime half is deliberately non-vacuous: one test proves the upload
//! shuffle really permutes arrival order, so the invariance tests cannot
//! pass by the shuffle silently doing nothing.

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_bench::determinism::{spec_fingerprint, sweep_spec, SweptAlgorithm};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{RoundContext, RoundReport};
use fedcross_flsim::{
    DeviceModel, FaultPlan, FederatedAlgorithm, LocalTrainConfig, RoundPolicy, Simulation,
    SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::params::ParamBlock;
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;
use std::path::Path;

// ---------------------------------------------------------------------------
// Static half: the tree itself is lint-clean.
// ---------------------------------------------------------------------------

#[test]
fn live_tree_passes_the_determinism_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate lives directly under the workspace root");
    let report = fedcross_lint::lint_tree(root).expect("lint walk failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "determinism lint violations in the tree:\n{}",
        violations
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// Runtime half: schedule invariance.
// ---------------------------------------------------------------------------

/// The tentpole assertion: for every shipped algorithm — the registered
/// specs and the four privacy/compression algorithms outside the registry —
/// the trajectory fingerprint (metric bits, comm counters, final model bits)
/// is identical at 1/2/4 rayon threads and under two different
/// upload-arrival permutations. One test fn (not one per spec) so the global
/// rayon thread override is never raced by a sibling test.
#[test]
fn registered_algorithms_are_schedule_invariant() {
    for algorithm in SweptAlgorithm::shipped() {
        let outcome = sweep_spec(algorithm, &[1, 2, 4], &[3, 17]);
        let bad: Vec<String> = outcome
            .variants
            .iter()
            .filter(|(_, fp)| *fp != outcome.canonical)
            .map(|(variant, fp)| {
                format!(
                    "{}: {variant} -> {fp:016x} != canonical {:016x}",
                    outcome.label, outcome.canonical
                )
            })
            .collect();
        assert!(
            bad.is_empty(),
            "schedule-dependent trajectories:\n{}",
            bad.join("\n")
        );
    }
}

/// An algorithm that records the client order in which uploads reach it.
struct OrderProbe {
    global: ParamBlock,
    orders: Vec<Vec<usize>>,
}

impl FederatedAlgorithm for OrderProbe {
    fn name(&self) -> String {
        "order-probe".to_string()
    }

    fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let jobs: Vec<(usize, ParamBlock)> = selected
            .iter()
            .map(|&client| (client, self.global.clone()))
            .collect();
        let updates = ctx.local_train_batch(&jobs);
        self.orders.push(updates.iter().map(|u| u.client).collect());
        RoundReport::from_updates(&updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.global);
    }
}

/// Non-vacuity: `with_upload_shuffle` really permutes the arrival order (the
/// invariance test above would pass trivially if the shuffle were a no-op).
#[test]
fn upload_shuffle_actually_permutes_arrival_order() {
    let run = |shuffle: Option<u64>| -> Vec<Vec<usize>> {
        let (data, template) = tiny_setup(9);
        let mut probe = OrderProbe {
            global: ParamBlock::from(template.params_flat()),
            orders: Vec::new(),
        };
        let mut sim = Simulation::new(tiny_config(4, 3), &data, template);
        if let Some(seed) = shuffle {
            sim = sim.with_upload_shuffle(seed);
        }
        let _ = sim.run(&mut probe);
        probe.orders
    };

    let dispatch_order = run(None);
    let shuffled_order = run(Some(7));
    assert_eq!(dispatch_order.len(), 4);
    assert_eq!(shuffled_order.len(), 4);
    // Same participants every round (selection is untouched by the shuffle)...
    for (plain, shuffled) in dispatch_order.iter().zip(&shuffled_order) {
        let mut a = plain.clone();
        let mut b = shuffled.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "shuffle changed the participant set");
    }
    // ...but the arrival sequence differs in at least one round.
    assert_ne!(
        dispatch_order, shuffled_order,
        "upload shuffle left every round's arrival order unchanged — \
         the schedule-invariance tests would be vacuous"
    );
}

// ---------------------------------------------------------------------------
// Runtime half: registry-driven snapshot/restore invariants.
// ---------------------------------------------------------------------------

fn tiny_setup(seed: u64) -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(seed);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 12,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 4),
            fc_hidden: 8,
            kernel: 3,
        },
        &mut rng,
    );
    (data, template)
}

fn tiny_config(rounds: usize, clients_per_round: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round,
        // Only the forced final evaluation — these tests inspect state, not
        // learning curves.
        eval_every: 100,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 6,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 11,
    }
}

const TINY_K: usize = 3;

fn is_buffered(spec: AlgorithmSpec) -> bool {
    matches!(
        spec,
        AlgorithmSpec::BufferedFedAvg { .. } | AlgorithmSpec::BufferedFedCross { .. }
    )
}

/// Runs `spec` for two rounds so its state is populated (control variates,
/// update directions, staleness buffers, ...) and returns the trained
/// algorithm plus the initial parameter vector.
fn trained_algorithm(spec: AlgorithmSpec) -> (Box<dyn FederatedAlgorithm>, Vec<f32>) {
    let (data, template) = tiny_setup(4);
    let init = template.params_flat();
    let mut algo = build_algorithm(spec, init.clone(), data.num_clients(), TINY_K);
    let mut sim = Simulation::new(tiny_config(2, TINY_K), &data, template);
    if is_buffered(spec) {
        // Run buffered specs under a buffered service plane with stragglers,
        // so the cross-round buffer (the interesting part of their state)
        // actually carries entries into the snapshot.
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
    let _ = sim.run(algo.as_mut());
    (algo, init)
}

/// Every registered algorithm's state round-trips bitwise: snapshot a
/// trained instance, restore into a freshly constructed twin, and both the
/// re-snapshot and the deployed parameters must be *equal in every bit*
/// (AlgorithmState derives PartialEq over the raw f32 vectors).
#[test]
fn registered_state_round_trips_bitwise() {
    for spec in AlgorithmSpec::registered() {
        let (trained, init) = trained_algorithm(spec);
        let state = trained
            .snapshot_state()
            .unwrap_or_else(|e| panic!("{}: snapshot failed: {e}", spec.label()));

        let mut twin = build_algorithm(spec, init, 6, TINY_K);
        twin.restore_state(&state)
            .unwrap_or_else(|e| panic!("{}: restore failed: {e}", spec.label()));

        let resnap = twin
            .snapshot_state()
            .unwrap_or_else(|e| panic!("{}: re-snapshot failed: {e}", spec.label()));
        assert_eq!(
            state,
            resnap,
            "{}: state changed across a snapshot/restore round-trip",
            spec.label()
        );
        let a = trained.global_params();
        let b = twin.global_params();
        assert_eq!(a.len(), b.len(), "{}: param count changed", spec.label());
        let bitwise = a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            bitwise,
            "{}: deployed parameters differ after restore",
            spec.label()
        );
    }
}

/// Every registered algorithm rejects shape-mismatched state instead of
/// limping on: a model vector one element too long (dim mismatch) and a
/// model list one entry too long (K mismatch) must both fail restore.
#[test]
fn registered_restore_rejects_mismatched_state() {
    for spec in AlgorithmSpec::registered() {
        let init = vec![0.25f32; 16];
        let dim = init.len();

        let mut algo = build_algorithm(spec, init.clone(), 6, TINY_K);
        let wrong_dim = AlgorithmState::single_model(ParamBlock::zeros(dim + 1));
        let err: Result<(), StateError> = algo.restore_state(&wrong_dim);
        assert!(
            err.is_err(),
            "{}: accepted a state with dim {} instead of {dim}",
            spec.label(),
            dim + 1
        );

        let mut algo = build_algorithm(spec, init, 6, TINY_K);
        let wrong_k =
            AlgorithmState::multi_model(vec![ParamBlock::zeros(dim); TINY_K + 1]);
        assert!(
            algo.restore_state(&wrong_k).is_err(),
            "{}: accepted a state with {} models instead of its own count",
            spec.label(),
            TINY_K + 1
        );
    }
}

/// The fingerprint itself is stable: two identical runs agree, and the
/// canonical fingerprint is sensitive to the spec (so a broken harness that
/// fingerprints nothing cannot hide behind 0 == 0).
#[test]
fn fingerprints_are_stable_and_spec_sensitive() {
    let a = spec_fingerprint(AlgorithmSpec::fedcross_default(), None);
    let b = spec_fingerprint(AlgorithmSpec::fedcross_default(), None);
    assert_eq!(a, b, "same spec, same schedule, different fingerprint");
    let avg = spec_fingerprint(AlgorithmSpec::FedAvg, None);
    assert_ne!(a, avg, "FedCross and FedAvg fingerprints collide");
}
