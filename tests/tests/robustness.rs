//! Cross-crate robustness tests: client dropout, checkpoint/resume and
//! per-client fairness analysis, exercised through the same engine the paper
//! experiments use.

use fedcross::{build_algorithm, AlgorithmSpec, FedCross, FedCrossConfig, RobustRule};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::{
    per_client_fairness, AdversaryModel, Attack, AvailabilityModel, Checkpoint, LocalTrainConfig,
    Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;

fn setup(seed: u64, clients: usize, samples: usize) -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(seed);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: samples,
            test_samples: 80,
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

fn sim_config(rounds: usize, k: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round: k,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.08,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 3,
    }
}

#[test]
fn every_method_survives_heavy_client_dropout() {
    // At 85% dropout with K = 3 most rounds lose every selected client, so
    // this also covers the "no uploads at all this round" path of every
    // method (the global model must simply carry over).
    let (data, template) = setup(0, 8, 15);
    for spec in AlgorithmSpec::paper_lineup() {
        let mut algorithm = build_algorithm(spec, template.params_flat(), data.num_clients(), 3);
        let result = Simulation::new(sim_config(6, 3), &data, template.clone_model())
            .with_availability(AvailabilityModel::RandomDropout { prob: 0.85 })
            .run(algorithm.as_mut());
        assert_eq!(result.history.len(), 4, "{} lost evaluations", spec.label());
        assert!(
            algorithm.global_params().iter().all(|p| p.is_finite()),
            "{} produced non-finite parameters under dropout",
            spec.label()
        );
    }
}

#[test]
fn dropout_reduces_realised_client_contacts() {
    let (data, template) = setup(1, 10, 15);
    let run = |availability: AvailabilityModel| {
        let mut algorithm = build_algorithm(
            AlgorithmSpec::FedAvg,
            template.params_flat(),
            data.num_clients(),
            4,
        );
        Simulation::new(sim_config(6, 4), &data, template.clone_model())
            .with_availability(availability)
            .run(algorithm.as_mut())
            .comm
            .client_contacts
    };
    let full = run(AvailabilityModel::AlwaysOn);
    let dropped = run(AvailabilityModel::RandomDropout { prob: 0.4 });
    let straggler = run(AvailabilityModel::PeriodicStraggler { period: 2 });
    assert_eq!(full, 24);
    assert!(dropped < full, "dropout must lose contacts ({dropped} vs {full})");
    // Period-2 stragglers lose roughly half the contacts.
    assert!(straggler < full && straggler >= full / 4);
}

#[test]
fn fedcross_with_moderate_dropout_still_learns() {
    let (data, template) = setup(2, 10, 30);
    let init_acc = fedcross_flsim::EvalWorker::new(template.as_ref())
        .evaluate_params(&template.params_flat(), data.test_set(), 64)
        .accuracy;
    let mut algo = FedCross::new(
        FedCrossConfig {
            alpha: 0.9,
            ..Default::default()
        },
        template.params_flat(),
        4,
    );
    let result = Simulation::new(sim_config(12, 4), &data, template)
        .with_availability(AvailabilityModel::RandomDropout { prob: 0.25 })
        .run(&mut algo);
    assert!(
        result.history.best_accuracy() > init_acc + 0.1 && result.history.best_accuracy() > 0.2,
        "FedCross under dropout should still learn ({} vs init {})",
        result.history.best_accuracy(),
        init_acc
    );
}

#[test]
fn fedcross_checkpoint_resume_preserves_training_progress() {
    let (data, template) = setup(3, 10, 30);
    let fed_config = FedCrossConfig {
        alpha: 0.9,
        ..Default::default()
    };

    // Phase 1: train the first half of a 14-round run, checkpoint to a temp
    // file through the simulation (which stamps seed + config fingerprint).
    let sim = Simulation::new(sim_config(14, 4), &data, template.clone_model());
    let mut algo = FedCross::new(fed_config, template.params_flat(), 4);
    let first = sim.run_segment(&mut algo, 0, 8);
    assert_eq!(first.rounds_completed, 8);
    let path = std::env::temp_dir().join("fedcross-integration-checkpoint.json");
    sim.checkpoint(&algo, &first)
        .expect("snapshot supported")
        .save(&path)
        .expect("checkpoint saves");

    // Phase 2: reload into a fresh algorithm instance and continue. Resume
    // derives every remaining round from its absolute index, so the restart
    // preserves (and keeps improving on) the checkpointed progress.
    let restored = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(restored.rounds_completed, 8);
    assert_eq!(restored.state.models.len(), 4);
    let mut resumed = FedCross::new(fed_config, template.params_flat(), 4);
    let second = sim.resume(&restored, &mut resumed).expect("checkpoint matches");
    // The resumed history extends the checkpointed one past round 8.
    assert!(second.history.len() > first.history.len());
    assert_eq!(
        second.history.records()[..first.history.len()],
        *first.history.records()
    );
    assert!(
        second.best_accuracy_pct() + 5.0 >= first.final_accuracy_pct(),
        "resumed run regressed: {} vs {}",
        second.best_accuracy_pct(),
        first.final_accuracy_pct()
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn fairness_report_is_consistent_with_global_accuracy() {
    let (data, template) = setup(4, 8, 30);
    let mut algo = build_algorithm(
        AlgorithmSpec::FedAvg,
        template.params_flat(),
        data.num_clients(),
        3,
    );
    let sim = Simulation::new(sim_config(10, 3), &data, template);
    let result = sim.run(algo.as_mut());
    let report = per_client_fairness(sim.template(), &algo.global_params(), &data, 64);
    assert_eq!(report.num_clients(), data.num_clients());
    assert!(report.min <= report.mean && report.mean <= report.max);
    assert!(report.jain_index > 0.0 && report.jain_index <= 1.0 + 1e-6);
    // The per-client mean is in the same ballpark as the global test accuracy
    // (both measure the same model on the same distribution family).
    let global_acc = result.history.final_accuracy();
    assert!(
        (report.mean - global_acc).abs() < 0.35,
        "per-client mean {} vs global accuracy {}",
        report.mean,
        global_acc
    );
}

#[test]
fn fedcross_training_lifts_every_quantile_of_the_per_client_distribution() {
    // A deliberately skewed federation: training must lift not only the mean
    // per-client accuracy but also the worst-decile clients (the Figure 1
    // motivation), relative to the untrained initialisation.
    let mut rng = SeededRng::new(9);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 8,
            samples_per_client: 30,
            test_samples: 80,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.2),
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

    let init_report =
        per_client_fairness(template.as_ref(), &template.params_flat(), &data, 64);

    let mut fedcross = build_algorithm(
        AlgorithmSpec::FedCross {
            alpha: 0.9,
            strategy: fedcross::SelectionStrategy::LowestSimilarity,
            acceleration: fedcross::Acceleration::None,
        },
        template.params_flat(),
        data.num_clients(),
        4,
    );
    let config = sim_config(16, 4);
    let _ = Simulation::new(config, &data, template.clone_model()).run(fedcross.as_mut());
    let trained_report =
        per_client_fairness(template.as_ref(), &fedcross.global_params(), &data, 64);
    assert!(
        trained_report.mean > init_report.mean + 0.1,
        "training must lift the mean per-client accuracy ({} vs init {})",
        trained_report.mean,
        init_report.mean
    );
    assert!(
        trained_report.worst_decile_mean >= init_report.worst_decile_mean,
        "training must not push the worst clients below the untrained model ({} vs {})",
        trained_report.worst_decile_mean,
        init_report.worst_decile_mean
    );
    assert!(trained_report.jain_index > 0.0 && trained_report.jain_index <= 1.0 + 1e-6);
}

#[test]
fn trimmed_mean_robust_fedcross_survives_thirty_percent_byzantine_clients() {
    // The robustness plane's end-to-end pin (docs/ROBUSTNESS.md): with 30%
    // of the federation sending scaled-update Byzantine uploads, plain
    // FedAvg's weighted average is dragged far off the honest consensus and
    // collapses, while trimmed-mean RobustFedCross stays within 90% of the
    // clean run's final accuracy. Trim 0.34 on K = 9 uploads drops the 3
    // most extreme values per end per coordinate — at least as many as the
    // worst-case per-round Byzantine count — while still *averaging* the 3
    // middle values (a single surviving order statistic, e.g. trim 0.45,
    // tracks the most extreme honest value whenever the attackers crowd one
    // side and overshoots late in training).
    let (data, template) = setup(4, 10, 20);
    let adversary = AdversaryModel {
        attack: Attack::ScaledUpdate { factor: 25.0 },
        fraction: 0.3,
        seed: 11,
    };
    let k = 9;
    let config = sim_config(8, k);

    let run = |spec: AlgorithmSpec, attacked: bool| {
        let mut algorithm =
            build_algorithm(spec, template.params_flat(), data.num_clients(), k);
        let mut sim = Simulation::new(config, &data, template.clone_model());
        if attacked {
            sim = sim.with_adversaries(adversary);
        }
        sim.run(algorithm.as_mut()).history.final_accuracy()
    };

    let robust_spec = AlgorithmSpec::RobustFedCross {
        alpha: 0.9,
        rule: RobustRule::TrimmedMean { trim: 0.34 },
    };
    let clean = run(AlgorithmSpec::FedAvg, false);
    let fedavg_attacked = run(AlgorithmSpec::FedAvg, true);
    let robust_attacked = run(robust_spec, true);

    assert!(
        clean > 0.2,
        "clean FedAvg run must actually learn (final accuracy {clean})"
    );
    assert!(
        fedavg_attacked < 0.9 * clean,
        "FedAvg should collapse under 30% scaled-update Byzantine clients \
         (attacked {fedavg_attacked} vs clean {clean})"
    );
    assert!(
        robust_attacked >= 0.9 * clean,
        "trimmed-mean RobustFedCross should recover >=90% of the clean final \
         accuracy under attack (attacked {robust_attacked} vs clean {clean})"
    );
}
