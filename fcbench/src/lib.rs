//! # fcbench — the FedCross round benchmark
//!
//! One command runs one workload for a fixed time and prints its end-to-end
//! metrics (`--trace 0`) or, from a separate traced pass, its per-layer
//! metrics (`--trace 1`). Every layer is measured from outside, by timing
//! calls into the library's public API through decorators (see
//! [`decorators`]); no library code is instrumented. See `README.md` for the
//! metric definitions and the per-layer → end-to-end map.

#![forbid(unsafe_code)]

pub mod decorators;
pub mod layers;
pub mod run;
pub mod trace;
pub mod workloads;

use run::{peak_rss_mb, run_pass, Pass, SetupTimes, Stop, FINAL_WINDOW};
use std::sync::Arc;
use trace::Sink;
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Steady rounds an untraced run needs (so p90 has at least ten samples
/// beyond it).
pub const MIN_STEADY: usize = 100;
/// Steady rounds the untraced half of a traced run needs.
pub const MIN_STEADY_TRACED: usize = 30;
/// Span capacity reserved per buffer of a traced pass.
const SPAN_CAPACITY: usize = 1 << 16;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (rounds, checkpoint cycles, the target check).
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.lines.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Threads a round's client jobs can run on.
fn client_threads(workload: &Workload) -> usize {
    rayon::current_num_threads().min(workload.k)
}

fn host_line(workload: &Workload, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "fcbench workload={} seed={seed} cores={cores} rayon_threads={} K={} clients={}",
        workload.name,
        rayon::current_num_threads(),
        workload.k,
        workload.clients
    )
}

/// Runs `workload`'s extra set-ups (all but the last of [`SETUP_REPS`]).
fn extra_setups(workload: &Workload, seed: u64) -> Vec<SetupTimes> {
    (1..SETUP_REPS)
        .map(|_| run_pass(workload, seed, Stop::Rounds(1), None, 0).setup)
        .collect()
}

/// Output checks shared by both run kinds; returns `(attempted, failed)`.
fn pass_checks(report: &mut Report, pass: &Pass) -> (usize, usize) {
    let ckpt = &pass.checkpoint;
    report.check(pass.nonfinite == 0, "non-finite losses or parameters");
    report.check(ckpt.failed == 0, "checkpoint restore not bitwise equal");
    (pass.rounds() + ckpt.attempted, pass.nonfinite + ckpt.failed)
}

/// Informational lines for the quality and checkpoint numbers that vary
/// too much across seeds, or exist on too few workloads, to be end-to-end
/// metrics (the traced run reports them as per-layer metrics).
fn quality_lines(workload: &Workload, pass: &Pass) -> Vec<String> {
    let target = workload.target_accuracy;
    let ckpt = &pass.checkpoint;
    vec![
        format!(
            "{:<20} {:>14.4} s    (target {:.0}% first reached at round {})",
            "time_to_target_s",
            pass.time_to_target_s(target).unwrap_or(f64::NAN),
            target * 100.0,
            pass.target_round(target)
                .map_or("-".to_string(), |r| r.to_string())
        ),
        format!(
            "{:<20} {:>14.4} ms   (median of {} cycles, {} bytes)",
            "checkpoint_ms",
            median(&ckpt.total_ms),
            ckpt.total_ms.len(),
            ckpt.bytes
        ),
    ]
}

/// The untraced run: end-to-end metrics.
pub fn untraced_run(workload: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.lines.push(host_line(workload, seed));
    let mut setups = extra_setups(workload, seed);
    let pass = run_pass(
        workload,
        seed,
        Stop::Timed {
            seconds,
            min_steady: MIN_STEADY,
            min_rounds: workload.accuracy_round + 1,
            need_target: true,
            cap_seconds: seconds.max((3.0 * seconds).min(100.0)),
        },
        None,
        workload.checkpoint_cycles,
    );
    setups.push(pass.setup);
    let (mut attempted, mut failed) = pass_checks(&mut report, &pass);

    let cycles = pass.cycles_ms();
    report.check(
        cycles.len() >= MIN_STEADY,
        &format!("only {} steady rounds, {MIN_STEADY} needed", cycles.len()),
    );
    attempted += 1;
    if pass.target_round(workload.target_accuracy).is_none() {
        failed += 1;
        report.check(false, "target accuracy never reached");
    }
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    let n = cycles.len();
    let rows: Vec<(&str, f64, &'static str, String)> = vec![
        (
            "round_ms_p50",
            quantile(&cycles, 0.5),
            "ms",
            format!("{n} steady rounds"),
        ),
        (
            "round_ms_p90",
            quantile(&cycles, 0.9),
            "ms",
            format!("{n} steady rounds"),
        ),
        (
            "train_samples_per_s",
            pass.train_samples_per_s(),
            "1/s",
            format!("{n} steady rounds"),
        ),
        (
            "final_accuracy_pct",
            pass.final_accuracy_pct(workload.accuracy_round),
            "%",
            format!(
                "mean of rounds {}..={}",
                workload.accuracy_round + 1 - FINAL_WINDOW,
                workload.accuracy_round
            ),
        ),
        (
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        (
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(0.0),
            "MiB",
            "1 process".to_string(),
        ),
    ];
    for (name, value, unit, samples) in rows {
        report
            .lines
            .push(format!("{name:<20} {value:>14.4} {unit:<4} ({samples})"));
        report.metric(name, value, unit);
    }
    report.lines.extend(quality_lines(workload, &pass));
    report.attempted = attempted;
    report.failed = failed;
    report.lines.push(format!(
        "{:<20} {:>14.4} %    ({failed} failed of {attempted} attempted: rounds, checkpoint cycles, target)",
        "failed_ops_pct",
        100.0 * failed as f64 / attempted as f64
    ));
    report.lines.push(format!(
        "rounds run {}, fingerprint {:016x}",
        pass.rounds(),
        pass.fingerprint
    ));
    report
}

/// The traced run: an untraced half for reference, then a traced pass over
/// exactly as many rounds; per-layer metrics and the attribution table.
pub fn traced_run(workload: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.lines.push(host_line(workload, seed));
    let threads = client_threads(workload);
    let mut setups = extra_setups(workload, seed);
    let half = seconds / 2.0;
    let base = run_pass(
        workload,
        seed,
        Stop::Timed {
            seconds: half,
            min_steady: MIN_STEADY_TRACED,
            min_rounds: 0,
            need_target: false,
            cap_seconds: half.max((2.0 * half).min(50.0)),
        },
        None,
        workload.checkpoint_cycles,
    );
    setups.push(base.setup);
    let sink = Arc::new(Sink::new(SPAN_CAPACITY));
    let traced = run_pass(
        workload,
        seed,
        Stop::Rounds(base.rounds()),
        Some(Arc::clone(&sink)),
        0,
    );
    let (a1, f1) = pass_checks(&mut report, &base);
    let (a2, f2) = pass_checks(&mut report, &traced);
    report.attempted = a1 + a2;
    report.failed = f1 + f2;
    report.check(
        base.fingerprint == traced.fingerprint,
        &format!(
            "traced fingerprint {:016x} differs from untraced {:016x}",
            traced.fingerprint, base.fingerprint
        ),
    );
    report.check(
        traced.model_clones == workload.k + 1,
        &format!(
            "traced pass cloned {} models, expected K workers + 1 eval = {}",
            traced.model_clones,
            workload.k + 1
        ),
    );
    report.check(
        traced.fallback_calls == 0,
        &format!(
            "{} allocating-fallback calls on decorators",
            traced.fallback_calls
        ),
    );

    let breakdown = layers::breakdown(&traced);
    report.lines.push(breakdown.table(workload.name, threads));
    report.lines.push(format!(
        "fingerprints: untraced {:016x} traced {:016x} over {} rounds; {} spans",
        base.fingerprint,
        traced.fingerprint,
        traced.rounds(),
        traced.spans.len()
    ));
    report.metrics.extend(breakdown.metrics(threads));
    let stats = traced.shard_stats.unwrap_or_default();
    let lookups = stats.hits + stats.misses;
    report.metric(
        "data.materialize_count",
        breakdown.materialize_count as f64,
        "count",
    );
    report.metric("data.hits", stats.hits as f64, "count");
    report.metric("data.misses", stats.misses as f64, "count");
    report.metric("data.prefetched", stats.prefetched as f64, "count");
    report.metric("data.evictions", stats.evictions as f64, "count");
    report.metric(
        "data.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.hits as f64 / lookups as f64
        },
        "ratio",
    );
    report.metric("data.peak_resident", stats.peak_resident as f64, "count");
    let ckpt = &base.checkpoint;
    report.metric("checkpoint.snapshot_ms", median(&ckpt.snapshot_ms), "ms");
    report.metric("checkpoint.save_ms", median(&ckpt.save_ms), "ms");
    report.metric("checkpoint.load_ms", median(&ckpt.load_ms), "ms");
    report.metric("checkpoint.restore_ms", median(&ckpt.restore_ms), "ms");
    report.metric("checkpoint.cycle_ms", median(&ckpt.total_ms), "ms");
    report.metric("checkpoint.bytes", ckpt.bytes as f64, "bytes");
    let target = workload.target_accuracy;
    report.metric(
        "quality.time_to_target_s",
        base.time_to_target_s(target).unwrap_or(0.0),
        "s",
    );
    report.metric(
        "quality.rounds_to_target",
        base.target_round(target).map_or(0.0, |r| r as f64),
        "count",
    );
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.metric("setup.data_ms", pick(|s| s.data_ms), "ms");
    report.metric("setup.model_ms", pick(|s| s.model_ms), "ms");
    report.metric("setup.warmup_ms", pick(|s| s.warmup_ms), "ms");
    report.metric("comm.scalars_per_round", traced.scalars_per_round, "count");
    let untraced_p50 = median(&base.cycles_ms());
    let traced_p50 = median(&traced.cycles_ms());
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
        "%",
    );
    report.metric(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    report.lines.push(format!(
        "trace overhead: round_ms_p50 untraced {untraced_p50:.3} ms, traced {traced_p50:.3} ms"
    ));
    report
}
