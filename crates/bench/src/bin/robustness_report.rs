//! Robustness report (extension): robust server rules under Byzantine clients.
//!
//! Sweeps aggregation rule × attack × adversarial fraction and reports final
//! accuracy next to each rule's breakdown point, with plain FedAvg as the
//! non-robust baseline and a clean (attack-free) run per method as the
//! reference. The adversary model is the engine's round-derived one
//! (docs/ROBUSTNESS.md): a fixed `round(fraction · N)` clients are
//! compromised for the whole run, so per-round contamination of the K
//! uploads fluctuates around `fraction · K` and can exceed a rule's
//! tolerance — the "Tol/K" column says how many Byzantine uploads per round
//! the rule provably excludes.
//!
//! With `--faults` the report switches to the fault plane (docs/FAULTS.md):
//! round policies × straggler fractions under a fixed transport fault plan,
//! with the engine's `FaultTally` broken out per run.
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin robustness_report \
//!     [--rounds N] [--clients N] [--k N] [--smoke] [--faults]
//! ```

use fedcross::{build_algorithm, AlgorithmSpec, RobustRule};
use fedcross_bench::report::{print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{
    AdversaryModel, Attack, DeviceModel, FaultPlan, FaultTally, RoundPolicy, Simulation,
    SimulationConfig,
};

/// One run; returns (final accuracy %, best accuracy %).
fn run(
    spec: AlgorithmSpec,
    data: &fedcross_data::federated::FederatedDataset,
    config: &ExperimentConfig,
    adversary: Option<AdversaryModel>,
) -> (f32, f32) {
    let k = config.clients_per_round.min(data.num_clients());
    let template = build_model(ModelSpec::Cnn, data, config.seed.wrapping_add(1));
    let mut algo = build_algorithm(spec, template.params_flat(), data.num_clients(), k);
    let sim_config = SimulationConfig {
        rounds: config.rounds,
        clients_per_round: k,
        eval_every: config.eval_every,
        eval_batch_size: 64,
        local: config.local,
        seed: config.seed,
    };
    let mut sim = Simulation::new(sim_config, data, template);
    if let Some(adversary) = adversary {
        sim = sim.with_adversaries(adversary);
    }
    let result = sim.run(algo.as_mut());
    (
        result.history.final_accuracy() * 100.0,
        result.best_accuracy_pct(),
    )
}

/// One fault-plane run; returns (final accuracy %, best accuracy %, tally).
fn run_with_plane(
    spec: AlgorithmSpec,
    data: &fedcross_data::federated::FederatedDataset,
    config: &ExperimentConfig,
    policy: RoundPolicy,
    faults: Option<FaultPlan>,
    devices: Option<DeviceModel>,
) -> (f32, f32, FaultTally) {
    let k = config.clients_per_round.min(data.num_clients());
    let template = build_model(ModelSpec::Cnn, data, config.seed.wrapping_add(1));
    let mut algo = build_algorithm(spec, template.params_flat(), data.num_clients(), k);
    let sim_config = SimulationConfig {
        rounds: config.rounds,
        clients_per_round: k,
        eval_every: config.eval_every,
        eval_batch_size: 64,
        local: config.local,
        seed: config.seed,
    };
    let mut sim = Simulation::new(sim_config, data, template).with_round_policy(policy);
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if let Some(devices) = devices {
        sim = sim.with_devices(devices);
    }
    let result = sim.run(algo.as_mut());
    (
        result.history.final_accuracy() * 100.0,
        result.best_accuracy_pct(),
        result.faults,
    )
}

/// The `--faults` report: round policies × straggler fractions under a fixed
/// transport fault plan.
fn fault_report(config: &ExperimentConfig) {
    let k = config.clients_per_round.min(config.num_clients);
    let faults = FaultPlan {
        crash_prob: 0.05,
        stall_prob: 0.1,
        max_stall: 2,
        duplicate_prob: 0.1,
        server_fail_prob: 0.02,
        max_retries: 2,
        seed: 11,
    };
    let straggler_fractions = [0.0f32, 0.2, 0.4];
    let quorum = (k / 2).max(1);
    let goal_k = (k / 2).max(1);
    let methods: Vec<(&str, AlgorithmSpec, RoundPolicy)> = vec![
        (
            "FedCross/sync",
            AlgorithmSpec::fedcross_default(),
            RoundPolicy::Synchronous,
        ),
        (
            "FedCross/deadline",
            AlgorithmSpec::fedcross_default(),
            RoundPolicy::Deadline {
                budget: 2.0,
                min_quorum: quorum,
            },
        ),
        (
            "BufFedCross/buffered",
            AlgorithmSpec::BufferedFedCross {
                alpha: 0.99,
                staleness_alpha: 0.5,
            },
            RoundPolicy::Buffered {
                goal_k,
                max_staleness: 4,
            },
        ),
        (
            "BufFedAvg/buffered",
            AlgorithmSpec::BufferedFedAvg {
                staleness_alpha: 0.5,
            },
            RoundPolicy::Buffered {
                goal_k,
                max_staleness: 4,
            },
        ),
    ];

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5));
    let data = build_task(task, config, config.seed);

    println!("Fault report — round policies x straggler fractions under transport faults");
    println!(
        "(CIFAR-10 beta=0.5, CNN, {} clients, K={}, {} rounds; faults: {})\n",
        config.num_clients,
        k,
        config.rounds,
        faults.label()
    );

    // Clean reference per method: same policy, no faults, no stragglers.
    let clean: Vec<f32> = methods
        .iter()
        .map(|&(_, spec, policy)| run_with_plane(spec, &data, config, policy, None, None).0)
        .collect();

    print_header(&[
        ("Method", 22),
        ("Strag", 7),
        ("Crash", 6),
        ("Stall", 6),
        ("Dup", 5),
        ("Miss", 5),
        ("Resc", 5),
        ("Lost", 5),
        ("Acc (%)", 9),
        ("Clean (%)", 10),
        ("Recovery", 9),
    ]);

    let mut json = Vec::new();
    for &fraction in &straggler_fractions {
        let devices = DeviceModel::two_tier(fraction, 8.0, 13);
        for ((label, spec, policy), &clean_acc) in methods.iter().zip(&clean) {
            let (acc, best, tally) =
                run_with_plane(*spec, &data, config, *policy, Some(faults), Some(devices));
            let recovery = if clean_acc > 0.0 { acc / clean_acc } else { 0.0 };
            print_row(&[
                (label.to_string(), 22),
                (format!("{:.0}%", fraction * 100.0), 7),
                (format!("{}", tally.crashed), 6),
                (format!("{}", tally.stalled), 6),
                (format!("{}", tally.duplicated), 5),
                (format!("{}", tally.missed_deadline), 5),
                (format!("{}", tally.quorum_rescued), 5),
                (format!("{}", tally.rounds_lost), 5),
                (format!("{acc:.2}"), 9),
                (format!("{clean_acc:.2}"), 10),
                (format!("{recovery:.2}"), 9),
            ]);
            json.push(serde_json::json!({
                "method": label,
                "straggler_fraction": fraction,
                "crashed": tally.crashed,
                "stalled": tally.stalled,
                "duplicated": tally.duplicated,
                "missed_deadline": tally.missed_deadline,
                "quorum_rescued": tally.quorum_rescued,
                "apply_retries": tally.apply_retries,
                "rounds_lost": tally.rounds_lost,
                "final_accuracy_pct": acc,
                "best_accuracy_pct": best,
                "clean_accuracy_pct": clean_acc,
                "recovery": recovery,
            }));
        }
    }

    write_json("robustness_report_faults.json", &json);
    println!("\nExpected shape: synchronous rounds are immune to stragglers (the server");
    println!("waits) but pay the full wall-clock cost; deadline rounds trade accuracy for");
    println!("latency as the straggler fraction grows (missed uploads become carry-over);");
    println!("buffered rounds keep absorbing late uploads at a staleness discount, so their");
    println!("recovery degrades most gracefully. Crashes and lost rounds dent every policy");
    println!("equally — they remove updates before the policy even sees them.");
}

fn main() {
    let args = Args::from_env();
    // Robust rules only have room to exclude outliers when K is a sizeable
    // quorum, so default to half the federation per round (override: --k).
    let mut base = ExperimentConfig::default();
    base.clients_per_round = base.num_clients / 2;
    base.rounds = 12;
    let config = args.apply(base);
    if args.flag("--faults") {
        fault_report(&config);
        return;
    }
    let k = config.clients_per_round.min(config.num_clients);

    let rules = [
        RobustRule::Median,
        RobustRule::TrimmedMean { trim: 0.34 },
        RobustRule::Krum { f: 3, m: 1 },
        RobustRule::NormBound { max_norm: 1.0 },
    ];
    let attacks = [
        Attack::ScaledUpdate { factor: 25.0 },
        Attack::SignFlip { scale: 4.0 },
        Attack::LabelFlip,
        Attack::Colluding { magnitude: 8.0 },
    ];
    let fractions = [0.1f32, 0.3];

    let task = TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5));
    let data = build_task(task, &config, config.seed);

    println!("Robustness report — robust rules x attacks x adversarial fractions");
    println!(
        "(CIFAR-10 beta=0.5, CNN, {} clients, K={}, {} rounds; compromised set fixed per run)\n",
        config.num_clients, k, config.rounds
    );

    let methods: Vec<(String, AlgorithmSpec)> = std::iter::once(("FedAvg".to_string(), AlgorithmSpec::FedAvg))
        .chain(rules.iter().map(|&rule| {
            (
                format!("RFC/{}", rule.label()),
                AlgorithmSpec::RobustFedCross { alpha: 0.9, rule },
            )
        }))
        .chain(std::iter::once((
            "RFA/trimmed".to_string(),
            AlgorithmSpec::RobustFedAvg {
                rule: RobustRule::TrimmedMean { trim: 0.34 },
            },
        )))
        .collect();

    // Clean references: every method once, attack-free.
    let clean: Vec<f32> = methods
        .iter()
        .map(|(_, spec)| run(*spec, &data, &config, None).0)
        .collect();

    print_header(&[
        ("Method", 24),
        ("Attack", 20),
        ("Frac", 6),
        ("Byz/N", 7),
        ("Tol/K", 7),
        ("Acc (%)", 9),
        ("Best (%)", 9),
        ("Clean (%)", 10),
        ("Recovery", 9),
    ]);

    let mut json = Vec::new();
    for &fraction in &fractions {
        for &attack in &attacks {
            let adversary = AdversaryModel {
                attack,
                fraction,
                seed: 11,
            };
            let byz = adversary.num_compromised(config.num_clients);
            for ((label, spec), &clean_acc) in methods.iter().zip(&clean) {
                let tolerated = match spec {
                    AlgorithmSpec::RobustFedCross { rule, .. }
                    | AlgorithmSpec::RobustFedAvg { rule } => rule.max_byzantine(k),
                    _ => 0,
                };
                let (acc, best) = run(*spec, &data, &config, Some(adversary));
                let recovery = if clean_acc > 0.0 { acc / clean_acc } else { 0.0 };
                print_row(&[
                    (label.clone(), 24),
                    (attack.label(), 20),
                    (format!("{:.0}%", fraction * 100.0), 6),
                    (format!("{byz}/{}", config.num_clients), 7),
                    (format!("{tolerated}/{k}"), 7),
                    (format!("{acc:.2}"), 9),
                    (format!("{best:.2}"), 9),
                    (format!("{clean_acc:.2}"), 10),
                    (format!("{recovery:.2}"), 9),
                ]);
                json.push(serde_json::json!({
                    "method": label,
                    "attack": attack.label(),
                    "fraction": fraction,
                    "compromised": byz,
                    "total_clients": config.num_clients,
                    "tolerated_per_round": tolerated,
                    "clients_per_round": k,
                    "final_accuracy_pct": acc,
                    "best_accuracy_pct": best,
                    "clean_accuracy_pct": clean_acc,
                    "recovery": recovery,
                }));
            }
        }
    }

    write_json("robustness_report.json", &json);
    println!("\nExpected shape: FedAvg's recovery collapses under scaled-update / sign-flip /");
    println!("colluding uploads (a single unbounded upload steers the weighted mean), while");
    println!("the exclusion rules (median, trimmed mean, Krum) stay near recovery 1.0 as long");
    println!("as the per-round Byzantine count stays within Tol/K. Norm bounding never");
    println!("excludes anyone (Tol 0) but caps per-round damage, so it degrades gracefully");
    println!("instead of collapsing. Label flipping is the mildest attack: poisoned gradients");
    println!("are still bounded, so even FedAvg only drifts rather than diverges.");
}
