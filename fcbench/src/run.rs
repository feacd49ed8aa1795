//! Runs one pass over a workload: set-up, the round loop, checkpoint cycles
//! and the output checks.
//!
//! The round loop drives the library's own `Simulation` through
//! `run_segment_with_observer`, so every round takes the engine's real path
//! (persistent worker pool, cached eval worker, shard prefetch). A pass that
//! must last a given time runs a few segments: a short calibration segment,
//! then segments sized from the measured round time. Each segment starts
//! with a cold worker pool, so its first round is excluded from the steady
//! rounds, like round 0.

use crate::decorators::RoundProbe;
use crate::trace::{Sink, Span};
use crate::workloads::{ClientData, Workload};
use fedcross_bench::determinism::Fnv1a;
use fedcross_data::ShardStats;
use fedcross_flsim::{
    Checkpoint, CommTracker, FederatedAlgorithm, RoundRecord, Simulation, TrainingHistory,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rounds after round 0 in the calibration segment that measures the round
/// time; also the shortest later segment.
const CALIBRATION_ROUNDS: usize = 8;
/// Upper bound on absolute rounds (the simulation needs one).
const MAX_ROUNDS: usize = 1_000_000;
/// Evaluations averaged into `final_accuracy_pct`, ending at the
/// workload's fixed `accuracy_round` (fixed, so the metric does not depend
/// on how many rounds fit into the run).
pub const FINAL_WINDOW: usize = 10;

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Run at least `seconds` of round loop (from the start of round 1),
    /// at least `min_steady` steady rounds and at least `min_rounds` rounds,
    /// and, if `need_target`, until the target accuracy is reached — but
    /// never longer than `cap_seconds`.
    Timed {
        /// Round-loop time to fill.
        seconds: f64,
        /// Steady rounds required.
        min_steady: usize,
        /// Absolute rounds required.
        min_rounds: usize,
        /// Whether to keep going until the target accuracy is reached.
        need_target: bool,
        /// Hard limit on round-loop time.
        cap_seconds: f64,
    },
    /// Run exactly this many rounds in one segment.
    Rounds(usize),
}

/// Set-up time of one pass, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Client data or source build.
    pub data_ms: f64,
    /// Template build.
    pub model_ms: f64,
    /// Warm-up round 0: worker clones, arena fill and the first eval.
    pub warmup_ms: f64,
}

impl SetupTimes {
    /// Total set-up time in seconds.
    pub fn total_s(&self) -> f64 {
        (self.data_ms + self.model_ms + self.warmup_ms) / 1e3
    }
}

/// Timings of the checkpoint cycles, one entry per cycle (milliseconds).
#[derive(Debug, Clone, Default)]
pub struct CheckpointTimes {
    /// Snapshot → save → load → restore, per cycle.
    pub total_ms: Vec<f64>,
    /// `Simulation::checkpoint` (algorithm snapshot plus metadata).
    pub snapshot_ms: Vec<f64>,
    /// `Checkpoint::save`.
    pub save_ms: Vec<f64>,
    /// `Checkpoint::load`.
    pub load_ms: Vec<f64>,
    /// `restore_state` into a fresh FedCross.
    pub restore_ms: Vec<f64>,
    /// Size of the saved file.
    pub bytes: u64,
    /// Cycles attempted.
    pub attempted: usize,
    /// Cycles that errored or restored a different global model.
    pub failed: usize,
}

/// Everything one pass measured.
pub struct Pass {
    /// Set-up times.
    pub setup: SetupTimes,
    /// Per-round `run_round` start instants, indexed by round.
    pub starts: Vec<Instant>,
    /// Per-round end of evaluation, indexed by round.
    pub eval_done: Vec<Instant>,
    /// Per-round samples trained (summed over clients and epochs).
    pub samples: Vec<usize>,
    /// Learning curve, one record per round.
    pub records: Vec<RoundRecord>,
    /// Steady rounds: not the first round of a segment, and followed by a
    /// round of the same segment.
    pub steady: Vec<usize>,
    /// Rounds with a non-finite loss, plus one if the final middleware
    /// holds a non-finite parameter.
    pub nonfinite: usize,
    /// Trajectory fingerprint: history plus final global parameters.
    pub fingerprint: u64,
    /// Scalars moved per round (downloads plus uploads).
    pub scalars_per_round: f64,
    /// Shard-plane counters (sharded workloads only).
    pub shard_stats: Option<ShardStats>,
    /// Checkpoint cycles.
    pub checkpoint: CheckpointTimes,
    /// Spans recorded by a traced pass.
    pub spans: Vec<Span>,
    /// Traced-model clones made during the pass.
    pub model_clones: usize,
    /// Allocating fallback calls made on decorators during the round loop.
    pub fallback_calls: usize,
}

impl Pass {
    /// Rounds run.
    pub fn rounds(&self) -> usize {
        self.records.len()
    }

    /// Steady round-cycle durations in milliseconds: one `run_round` start
    /// to the next, minus the traced server-kernel replay (which is
    /// benchmark work, not round work).
    pub fn cycles_ms(&self) -> Vec<f64> {
        let replay = replay_ms_by_round(&self.spans, self.rounds());
        self.steady
            .iter()
            .map(|&r| ms(self.starts[r + 1] - self.starts[r]) - replay[r])
            .collect()
    }

    /// First round whose evaluation reached `target` (a fraction).
    pub fn target_round(&self, target: f32) -> Option<usize> {
        self.records.iter().position(|r| r.accuracy >= target)
    }

    /// Round-loop time from the start of round 1 to the end of the first
    /// evaluation that reached `target`, in seconds.
    pub fn time_to_target_s(&self, target: f32) -> Option<f64> {
        let round = self.target_round(target)?;
        let from = self.starts[1.min(self.rounds() - 1)];
        Some(
            self.eval_done[round]
                .saturating_duration_since(from)
                .as_secs_f64(),
        )
    }

    /// Mean accuracy in percent over the [`FINAL_WINDOW`] evaluations ending
    /// at `round` (or at the last round if the pass stopped before).
    pub fn final_accuracy_pct(&self, round: usize) -> f64 {
        let end = (round + 1).min(self.rounds());
        let window = &self.records[end.saturating_sub(FINAL_WINDOW)..end];
        window.iter().map(|r| r.accuracy as f64).sum::<f64>() / window.len() as f64 * 100.0
    }

    /// Samples trained per second over the steady rounds.
    pub fn train_samples_per_s(&self) -> f64 {
        let cycles = self.cycles_ms();
        let samples: usize = self.steady.iter().map(|&r| self.samples[r]).sum();
        samples as f64 / (cycles.iter().sum::<f64>() / 1e3)
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-round milliseconds of the traced `server.select`/`server.fuse`
/// replay (zero for untraced passes).
fn replay_ms_by_round(spans: &[Span], rounds: usize) -> Vec<f64> {
    let mut replay = vec![0.0; rounds];
    for span in spans {
        if matches!(span.name, "server.select" | "server.fuse") && (span.round as usize) < rounds {
            replay[span.round as usize] += span.ms();
        }
    }
    replay
}

/// Where checkpoint files go: a scratch directory under the working
/// directory, removed again after the cycles.
fn checkpoint_dir() -> PathBuf {
    PathBuf::from(".fcbench_tmp")
}

/// Runs one pass over `workload` with inputs from `seed`. With `sink`, the
/// model, layers, source and algorithm are traced.
pub fn run_pass(
    workload: &Workload,
    seed: u64,
    stop: Stop,
    sink: Option<Arc<Sink>>,
    checkpoint_cycles: usize,
) -> Pass {
    let t0 = Instant::now();
    let data = workload.build_data(seed, sink.as_ref());
    let t1 = Instant::now();
    let template = workload.build_template(seed.wrapping_add(1), sink.as_ref());
    let t2 = Instant::now();
    let init = template.params_flat();

    let rounds_hint = match stop {
        Stop::Timed { .. } => 4096,
        Stop::Rounds(n) => n,
    };
    let mut probe = RoundProbe::new(workload.algorithm(init.clone()), sink.clone(), rounds_hint);
    let config = workload.simulation_config(seed, MAX_ROUNDS);
    let sim = match &data {
        ClientData::Eager(federation) => Simulation::new(config, federation, template),
        ClientData::Sharded(plane) => Simulation::new_sharded(config, plane, template),
    };
    let clones_before = sink.as_ref().map_or(0, |s| s.model_clones());
    let fallbacks_before = sink.as_ref().map_or(0, |s| s.fallback_calls());

    let mut eval_done: Vec<Instant> = Vec::with_capacity(rounds_hint);
    let mut records: Vec<RoundRecord> = Vec::with_capacity(rounds_hint);
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut history = TrainingHistory::new();
    let mut comm = CommTracker::new();
    let mut warmup_start = None;
    let mut next = 0usize;
    let mut pending = next_segment(stop, next, &probe, &segments, &records, workload);
    let result = loop {
        let end = next + pending.expect("a pass runs at least one segment");
        let segment_start = Instant::now();
        warmup_start.get_or_insert(segment_start);
        let result =
            sim.run_segment_with_observer(&mut probe, next, end, history, comm, |_, record| {
                eval_done.push(Instant::now());
                if let Some(sink) = &sink {
                    sink.mark_eval_done();
                }
                records.push(*record);
            });
        segments.push((next, end));
        next = end;
        pending = next_segment(stop, next, &probe, &segments, &records, workload);
        if pending.is_none() {
            break result;
        }
        history = result.history;
        comm = result.comm;
    };
    let fallback_calls = sink.as_ref().map_or(0, |s| s.fallback_calls()) - fallbacks_before;
    let model_clones = sink.as_ref().map_or(0, |s| s.model_clones()) - clones_before;

    let marks = probe.marks();
    for (index, mark) in marks.iter().enumerate() {
        assert_eq!(mark.round, index, "rounds run in order from 0");
    }
    let starts: Vec<Instant> = marks.iter().map(|m| m.start).collect();
    let samples: Vec<usize> = marks
        .iter()
        .map(|m| m.samples * workload.local.epochs)
        .collect();
    let steady = segments
        .iter()
        .flat_map(|&(s, e)| (s + 1)..e.saturating_sub(1))
        .collect();

    let mut nonfinite = records
        .iter()
        .filter(|r| !(r.test_loss.is_finite() && r.train_loss.is_finite()))
        .count();
    if probe
        .inner()
        .middleware()
        .iter()
        .any(|m| m.iter().any(|v| !v.is_finite()))
    {
        nonfinite += 1;
    }
    let global = probe.global_params();
    let mut hash = Fnv1a::new();
    for record in &records {
        hash.write_u64(record.round as u64);
        hash.write_f32(record.accuracy);
        hash.write_f32(record.test_loss);
        hash.write_f32(record.train_loss);
    }
    for &w in &global {
        hash.write_f32(w);
    }
    let scalars_per_round = (result.comm.model_download
        + result.comm.model_upload
        + result.comm.extra_download
        + result.comm.extra_upload) as f64
        / result.comm.rounds.max(1) as f64;

    let checkpoint = checkpoint_cycles_of(
        workload,
        &sim,
        &probe,
        &result,
        &init,
        &global,
        checkpoint_cycles,
    );
    let spans = sink.as_ref().map_or_else(Vec::new, |s| s.drain());
    let warmup_ms = ms(eval_done[0] - warmup_start.expect("a segment ran"));
    Pass {
        setup: SetupTimes {
            data_ms: ms(t1 - t0),
            model_ms: ms(t2 - t1),
            warmup_ms,
        },
        starts,
        eval_done,
        samples,
        records,
        steady,
        nonfinite,
        fingerprint: hash.finish(),
        scalars_per_round,
        shard_stats: data.shard_stats(),
        checkpoint,
        spans,
        model_clones,
        fallback_calls,
    }
}

/// Length of the next segment starting at absolute round `next`, or `None`
/// when the pass is done.
fn next_segment(
    stop: Stop,
    next: usize,
    probe: &RoundProbe,
    segments: &[(usize, usize)],
    records: &[RoundRecord],
    workload: &Workload,
) -> Option<usize> {
    let (seconds, min_steady, min_rounds, need_target, cap_seconds) = match stop {
        Stop::Rounds(n) => return (next == 0).then_some(n),
        Stop::Timed {
            seconds,
            min_steady,
            min_rounds,
            need_target,
            cap_seconds,
        } => (seconds, min_steady, min_rounds, need_target, cap_seconds),
    };
    if next == 0 {
        return Some(1 + CALIBRATION_ROUNDS);
    }
    let marks = probe.marks();
    let elapsed = marks[1].start.elapsed().as_secs_f64();
    let steady: usize = segments.iter().map(|&(s, e)| e.saturating_sub(s + 2)).sum();
    let target_met = !need_target
        || records
            .iter()
            .any(|r| r.accuracy >= workload.target_accuracy);
    let done = elapsed >= seconds && steady >= min_steady && next >= min_rounds && target_met;
    if done || elapsed >= cap_seconds {
        return None;
    }
    // Mean round time so far (rounds 1..next, cold ones included: a slight
    // overestimate keeps the last segment from overshooting).
    let per_round = elapsed / (next - 1) as f64;
    let by_time = ((seconds - elapsed).max(0.0) / per_round).ceil() as usize;
    let by_count = min_steady.saturating_sub(steady);
    let by_rounds = min_rounds.saturating_sub(next);
    let wanted = by_time.max(by_count).max(by_rounds).max(CALIBRATION_ROUNDS);
    let allowed = (((cap_seconds - elapsed) / per_round).floor() as usize).max(2);
    // Two extra rounds: the segment's cold first round and its last round
    // (which has no following round to close its cycle).
    Some(wanted.min(allowed) + 2)
}

fn checkpoint_cycles_of(
    workload: &Workload,
    sim: &Simulation<'_>,
    probe: &RoundProbe,
    result: &fedcross_flsim::engine::SimulationResult,
    init: &[f32],
    global: &[f32],
    cycles: usize,
) -> CheckpointTimes {
    let mut times = CheckpointTimes {
        attempted: cycles,
        ..CheckpointTimes::default()
    };
    if cycles == 0 {
        return times;
    }
    let dir = checkpoint_dir();
    let path = dir.join(format!("{}-{}.json", workload.name, std::process::id()));
    for _ in 0..cycles {
        let mut fresh = workload.algorithm(init.to_vec());
        match checkpoint_cycle(sim, probe, result, &path, &mut fresh) {
            Ok((snapshot, save, load, restore, bytes)) => {
                let restored = fresh.global_params();
                let same = restored.len() == global.len()
                    && restored
                        .iter()
                        .zip(global)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    times.failed += 1;
                }
                times.snapshot_ms.push(snapshot);
                times.save_ms.push(save);
                times.load_ms.push(load);
                times.restore_ms.push(restore);
                times.total_ms.push(snapshot + save + load + restore);
                times.bytes = bytes;
            }
            Err(err) => {
                eprintln!("checkpoint cycle failed: {err}");
                times.failed += 1;
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    times
}

type CycleTimes = (f64, f64, f64, f64, u64);

fn checkpoint_cycle(
    sim: &Simulation<'_>,
    probe: &RoundProbe,
    result: &fedcross_flsim::engine::SimulationResult,
    path: &Path,
    fresh: &mut dyn FederatedAlgorithm,
) -> Result<CycleTimes, String> {
    let t0 = Instant::now();
    let checkpoint = sim.checkpoint(probe, result).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    checkpoint.save(path).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let t3 = Instant::now();
    let loaded = Checkpoint::load(path).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    fresh
        .restore_state(&loaded.state)
        .map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    Ok((ms(t1 - t0), ms(t2 - t1), ms(t4 - t3), ms(t5 - t4), bytes))
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
