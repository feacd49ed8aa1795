//! Per-layer metrics of a traced pass, and the attribution table.
//!
//! A steady round cycle (one `run_round` start to the next) is split into
//! phases that follow each other on the round thread:
//!
//! | phase | from | to |
//! |---|---|---|
//! | `engine.dispatch` | `run_round` start | first client-job start |
//! | `client.train_wall` | first client-job start | last client-job end |
//! | `server.aggregate` | last client-job end | `run_round` return |
//! | `server.global` | `global_params_into` | its return |
//! | `eval` | end of `server.global` | the per-evaluation observer |
//!
//! `engine.unattributed` is what the cycle has left: the engine's work
//! between `run_round` and global-model generation and between the
//! observer and the next `run_round` (prefetch hint, round context).
//! Demand shard materialisation happens inside dispatch and is reported as
//! its own row. Client-job internals (load, step, upload, per-layer passes)
//! run on worker threads and are summed over jobs, so they add up to
//! `client.busy`, not to the wall time.

use crate::decorators::LAYER_KINDS;
use crate::run::Pass;
use crate::trace::Span;
use crate::Metric;
use std::collections::BTreeMap;

/// Mean per-steady-round values of one traced pass, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Steady rounds averaged.
    pub rounds: usize,
    /// Round cycle (without the server-kernel replay).
    pub cycle: f64,
    /// `run_round` start to the first client call.
    pub dispatch: f64,
    /// Demand shard materialisation (inside dispatch).
    pub demand: f64,
    /// Prefetch shard materialisation (on the prefetch thread).
    pub prefetch: f64,
    /// First client call to the last client call.
    pub train_wall: f64,
    /// Sum of client-job spans.
    pub busy: f64,
    /// `set_params_flat` in jobs.
    pub load: f64,
    /// `visit_params_for_step` in jobs.
    pub step: f64,
    /// `read_params_into` in jobs.
    pub upload: f64,
    /// Last client call to the return of `run_round`.
    pub aggregate: f64,
    /// `global_params_into`.
    pub global: f64,
    /// Global-model end to the observer.
    pub eval: f64,
    /// Eval-model parameter load.
    pub eval_load: f64,
    /// Replayed `select_all_with`.
    pub select: f64,
    /// Replayed `cross_aggregate_into`, summed over the K fusions.
    pub fuse: f64,
    /// Cycle minus every phase above.
    pub unattributed: f64,
    /// Per-span-name sums (`nn.<kind>.<pass>`).
    pub layers: BTreeMap<&'static str, f64>,
    /// Shard materialisations over the whole pass.
    pub materialize_count: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct RoundSpans {
    round_start: u64,
    round_end: u64,
    job_first: u64,
    job_last: u64,
    jobs: usize,
    busy: f64,
    global: f64,
    eval: f64,
    demand: f64,
    replay: f64,
}

/// Averages the traced pass's spans over its steady rounds.
pub fn breakdown(pass: &Pass) -> Breakdown {
    let rounds = pass.rounds();
    let mut per_round = vec![RoundSpans::default(); rounds];
    let mut steady_mask = vec![false; rounds];
    for &r in &pass.steady {
        steady_mask[r] = true;
    }
    let mut out = Breakdown {
        rounds: pass.steady.len(),
        ..Breakdown::default()
    };
    for span in &pass.spans {
        if matches!(
            span.name,
            "data.demand_materialize" | "data.prefetch_materialize"
        ) {
            out.materialize_count += 1;
        }
        let r = span.round as usize;
        if r >= rounds {
            continue;
        }
        let acc = &mut per_round[r];
        match span.name {
            "engine.round" => {
                acc.round_start = span.start_ns;
                acc.round_end = span.end_ns;
            }
            "client.job" => {
                if acc.jobs == 0 || span.start_ns < acc.job_first {
                    acc.job_first = span.start_ns;
                }
                acc.job_last = acc.job_last.max(span.end_ns);
                acc.jobs += 1;
                acc.busy += span.ms();
            }
            "server.global" => acc.global += span.ms(),
            "eval" => acc.eval += span.ms(),
            "data.demand_materialize" => acc.demand += span.ms(),
            "server.select" | "server.fuse" => acc.replay += span.ms(),
            _ => {}
        }
        if steady_mask[r] {
            add_named(&mut out, span);
        }
    }
    let n = out.rounds.max(1) as f64;
    for &r in &pass.steady {
        let this = &per_round[r];
        let next = &per_round[r + 1];
        let cycle = ns_ms(next.round_start.saturating_sub(this.round_start)) - this.replay;
        let (dispatch, train_wall, aggregate) = if this.jobs > 0 {
            (
                ns_ms(this.job_first.saturating_sub(this.round_start)),
                ns_ms(this.job_last.saturating_sub(this.job_first)),
                ns_ms(this.round_end.saturating_sub(this.job_last)),
            )
        } else {
            (
                ns_ms(this.round_end.saturating_sub(this.round_start)),
                0.0,
                0.0,
            )
        };
        out.cycle += cycle / n;
        out.dispatch += dispatch / n;
        out.train_wall += train_wall / n;
        out.aggregate += aggregate / n;
        out.busy += this.busy / n;
        out.global += this.global / n;
        out.eval += this.eval / n;
        out.demand += this.demand / n;
        out.unattributed +=
            (cycle - dispatch - train_wall - aggregate - this.global - this.eval) / n;
    }
    for value in out.layers.values_mut() {
        *value /= n;
    }
    out.load /= n;
    out.step /= n;
    out.upload /= n;
    out.eval_load /= n;
    out.select /= n;
    out.fuse /= n;
    out.prefetch /= n;
    out
}

fn add_named(out: &mut Breakdown, span: &Span) {
    let ms = span.ms();
    match span.name {
        "client.load" => out.load += ms,
        "client.step" => out.step += ms,
        "client.upload" => out.upload += ms,
        "eval.load" => out.eval_load += ms,
        "server.select" => out.select += ms,
        "server.fuse" => out.fuse += ms,
        "data.prefetch_materialize" => out.prefetch += ms,
        name if name.starts_with("nn.") => *out.layers.entry(name).or_insert(0.0) += ms,
        _ => {}
    }
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Breakdown {
    fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    fn layer_sum(&self, suffix: &str) -> f64 {
        self.layers
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Client-job time outside load, step, upload and layer passes: batch
    /// gather, loss, epoch order, gradient zeroing.
    pub fn client_other(&self) -> f64 {
        self.busy
            - self.load
            - self.step
            - self.upload
            - self.layer_sum(".fwd")
            - self.layer_sum(".bwd")
    }

    /// Busy time over the threads' wall time.
    pub fn parallel_eff(&self, threads: usize) -> f64 {
        self.busy / (threads.max(1) as f64 * self.train_wall.max(f64::MIN_POSITIVE))
    }

    /// Share of the cycle the round thread spends unattributed.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed / self.cycle
    }

    /// Per-layer metrics from the trace.
    pub fn metrics(&self, threads: usize) -> Vec<Metric> {
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("engine.round_ms".into(), self.cycle, "ms"),
            ("engine.dispatch_ms".into(), self.dispatch, "ms"),
            ("engine.unattributed_ms".into(), self.unattributed, "ms"),
            (
                "engine.unattributed_pct".into(),
                self.unattributed_pct(),
                "%",
            ),
            ("client.train_wall_ms".into(), self.train_wall, "ms"),
            ("client.busy_ms".into(), self.busy, "ms"),
            (
                "client.parallel_eff".into(),
                self.parallel_eff(threads),
                "ratio",
            ),
            ("client.load_ms".into(), self.load, "ms"),
            ("client.step_ms".into(), self.step, "ms"),
            ("client.upload_ms".into(), self.upload, "ms"),
            ("client.other_ms".into(), self.client_other(), "ms"),
        ];
        for kind in LAYER_KINDS {
            for pass in ["fwd", "bwd", "eval_fwd"] {
                let span = format!("nn.{kind}.{pass}");
                let value = self.layer(&span);
                m.push((format!("{span}_ms"), value, "ms"));
            }
        }
        m.extend([
            ("eval.ms".into(), self.eval, "ms"),
            ("server.aggregate_ms".into(), self.aggregate, "ms"),
            ("server.global_ms".into(), self.global, "ms"),
            ("server.select_ms".into(), self.select, "ms"),
            ("server.fuse_ms".into(), self.fuse, "ms"),
            ("data.demand_materialize_ms".into(), self.demand, "ms"),
            ("data.prefetch_materialize_ms".into(), self.prefetch, "ms"),
        ]);
        m.into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect()
    }

    /// The attribution table: phase self times per steady round and their
    /// share of the cycle, plus the checks the workload's purpose implies.
    pub fn table(&self, workload: &str, threads: usize) -> String {
        let pct = |v: f64| 100.0 * v / self.cycle;
        let eval_fwd = self.layer_sum(".eval_fwd");
        let rows: Vec<(&str, f64)> = vec![
            ("engine.dispatch (self)", self.dispatch - self.demand),
            ("data.demand_materialize", self.demand),
            ("client.train_wall", self.train_wall),
            ("server.aggregate", self.aggregate),
            ("server.global", self.global),
            ("eval (self)", self.eval - eval_fwd - self.eval_load),
            ("eval.load", self.eval_load),
            ("nn.*.eval_fwd", eval_fwd),
            ("engine.unattributed", self.unattributed),
        ];
        let mut s = format!(
            "attribution [{workload}]: {} steady rounds, cycle {:.3} ms, {threads} threads\n",
            self.rounds, self.cycle
        );
        for (name, v) in &rows {
            s += &format!("  {name:<26} {v:>10.3} ms {:>6.1}%\n", pct(*v));
        }
        s += &format!(
            "  {:<26} {:>10.3} ms (sum of rows)\n",
            "total",
            rows.iter().map(|(_, v)| v).sum::<f64>()
        );
        s += &format!(
            "  inside client jobs (summed over {} threads, busy {:.3} ms, efficiency {:.2}):\n",
            threads,
            self.busy,
            self.parallel_eff(threads)
        );
        let mut inner: Vec<(String, f64)> = vec![
            ("client.load".into(), self.load),
            ("client.step".into(), self.step),
            ("client.upload".into(), self.upload),
            ("client.other".into(), self.client_other()),
        ];
        for (name, v) in &self.layers {
            if !name.ends_with(".eval_fwd") {
                inner.push((name.to_string(), *v));
            }
        }
        for (name, v) in inner {
            s += &format!("    {name:<24} {v:>10.3} ms\n");
        }
        s += &format!(
            "  off the round thread: data.prefetch_materialize {:.3} ms; replayed server.select {:.3} ms, server.fuse {:.3} ms\n",
            self.prefetch, self.select, self.fuse
        );
        let client = pct(self.train_wall);
        let server = pct(self.aggregate + self.global);
        let data = pct(self.demand + self.prefetch);
        s += &format!(
            "  shares: client.train_wall {client:.1}%, server.* {server:.1}%, data.*_materialize {data:.1}%\n"
        );
        let flag = if self.unattributed_pct() > 5.0 {
            "FLAG: above the 5% pin"
        } else {
            "ok: under the 5% pin"
        };
        s += &format!(
            "  engine.unattributed {:.2}% of the steady round: {flag}\n",
            self.unattributed_pct()
        );
        s
    }
}
