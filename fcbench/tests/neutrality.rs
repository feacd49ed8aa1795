//! Tracing must not change what it measures.
//!
//! For every workload, at a reduced round count, a traced pass must follow
//! the untraced trajectory bitwise (history plus final global parameters),
//! build exactly K worker models plus the eval model, and never reach an
//! allocating fallback through a decorator — so the traced run times the
//! library's pooled paths, not substitutes.
//!
//! Run with `cargo test --release --manifest-path fcbench/Cargo.toml`; the
//! debug build is slow on the wide workload.

use fcbench::run::{run_pass, Stop};
use fcbench::trace::Sink;
use fcbench::workloads::{Workload, ALL};
use std::sync::Arc;

const ROUNDS: usize = 4;
const SEED: u64 = 7;

fn check_workload(workload: &Workload) {
    let plain = run_pass(workload, SEED, Stop::Rounds(ROUNDS), None, 0);
    let sink = Arc::new(Sink::new(1 << 12));
    let traced = run_pass(
        workload,
        SEED,
        Stop::Rounds(ROUNDS),
        Some(Arc::clone(&sink)),
        0,
    );

    assert_eq!(plain.rounds(), ROUNDS);
    assert_eq!(
        plain.fingerprint, traced.fingerprint,
        "{}: tracing changed the trajectory",
        workload.name
    );
    assert_eq!(
        traced.model_clones,
        workload.k + 1,
        "{}: models built must stay at K workers plus one eval model",
        workload.name
    );
    assert_eq!(
        traced.fallback_calls, 0,
        "{}: a decorator reached an allocating fallback",
        workload.name
    );

    // Every round has a round span, K client jobs and an eval span.
    for round in 0..ROUNDS as u32 {
        let count = |name: &str| {
            traced
                .spans
                .iter()
                .filter(|s| s.round == round && s.name == name)
                .count()
        };
        assert_eq!(count("engine.round"), 1, "{}: round {round}", workload.name);
        assert_eq!(
            count("client.job"),
            workload.k,
            "{}: round {round}",
            workload.name
        );
        assert_eq!(
            count("client.load"),
            workload.k,
            "{}: round {round}",
            workload.name
        );
        assert_eq!(
            count("client.upload"),
            workload.k,
            "{}: round {round}",
            workload.name
        );
        assert_eq!(count("eval"), 1, "{}: round {round}", workload.name);
    }
    // Layer spans of training hang under their client job.
    let jobs: std::collections::BTreeSet<u32> = traced
        .spans
        .iter()
        .filter(|s| s.name == "client.job")
        .map(|s| s.id)
        .collect();
    for span in traced.spans.iter().filter(|s| s.name.ends_with(".bwd")) {
        assert!(
            jobs.contains(&span.parent),
            "{}: orphan {}",
            workload.name,
            span.name
        );
        assert_ne!(span.job, 0);
    }
}

#[test]
fn cnn_train_tracing_is_trajectory_neutral() {
    check_workload(&ALL[0]);
}

#[test]
fn wide_server_tracing_is_trajectory_neutral() {
    check_workload(&ALL[1]);
}

#[test]
fn million_shards_tracing_is_trajectory_neutral() {
    check_workload(&ALL[2]);
}

#[test]
fn checkpoint_cycles_restore_bitwise() {
    let pass = run_pass(&ALL[2], SEED, Stop::Rounds(3), None, 2);
    assert_eq!(pass.checkpoint.attempted, 2);
    assert_eq!(pass.checkpoint.failed, 0);
    assert_eq!(pass.checkpoint.total_ms.len(), 2);
    assert!(pass.checkpoint.bytes > 0);
}

#[test]
fn result_line_is_one_json_object() {
    let mut report = fcbench::Report {
        correct: true,
        attempted: 3,
        ..Default::default()
    };
    report.metrics.push(fcbench::Metric {
        name: "round_ms_p50".into(),
        value: 1.25,
        unit: "ms",
    });
    assert_eq!(
        report.json(),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"round_ms_p50": {"value": 1.25, "unit": "ms"}}}"#
    );
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let values = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(fcbench::median(&values), 2.5);
    assert_eq!(fcbench::quantile(&values, 0.0), 1.0);
    assert_eq!(fcbench::quantile(&values, 1.0), 4.0);
    assert!((fcbench::quantile(&values, 0.9) - 3.7).abs() < 1e-12);
}
