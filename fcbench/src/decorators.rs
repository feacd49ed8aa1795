//! Decorators that time calls into the library's public traits from outside.
//!
//! * [`TracedLayer`] wraps one `Layer` and times its pooled forward and
//!   backward passes, per layer kind, split into training and eval forwards.
//! * [`TracedModel`] wraps the template: it marks client jobs (from the
//!   parameter load to the upload) and times `set_params_flat`,
//!   `visit_params_for_step` and `read_params_into`. Every clone shares the
//!   sink and gets its own instance id, which is the job id of its spans.
//! * [`TracedSource`] wraps a `ClientDataSource` and times shard
//!   materialisation, split by thread into demand (round thread) and
//!   prefetch (the plane's worker).
//! * [`RoundProbe`] wraps FedCross: it timestamps every `run_round` start
//!   (with or without tracing), publishes the round id and, when traced,
//!   times global-model generation and replays the round's selection and
//!   fusion kernels on the middleware.
//!
//! Every decorator forwards every provided trait method, so the library takes
//! the same pooled paths as on an undecorated model. Calls to the allocating
//! fallbacks are counted, which lets the tests check that none happen.

use crate::trace::{OpenSpan, Sink};
use fedcross::aggregation::cross_aggregate_into;
use fedcross::FedCross;
use fedcross_data::{ClientDataSource, Dataset, FederatedDataset};
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_nn::{Layer, Model, Param};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Span names of one layer kind: training forward, backward, eval forward.
#[derive(Debug, Clone, Copy)]
struct LayerNames {
    fwd: &'static str,
    bwd: &'static str,
    eval_fwd: &'static str,
}

/// Layer kinds with their own per-layer metrics.
pub const LAYER_KINDS: [&str; 5] = ["conv2d", "linear", "relu", "maxpool2d", "flatten"];

fn layer_names(kind: &str) -> LayerNames {
    macro_rules! names {
        ($k:literal) => {
            LayerNames {
                fwd: concat!("nn.", $k, ".fwd"),
                bwd: concat!("nn.", $k, ".bwd"),
                eval_fwd: concat!("nn.", $k, ".eval_fwd"),
            }
        };
    }
    match kind {
        "conv2d" => names!("conv2d"),
        "linear" => names!("linear"),
        "relu" => names!("relu"),
        "maxpool2d" => names!("maxpool2d"),
        "flatten" => names!("flatten"),
        _ => names!("other"),
    }
}

/// Times one layer's pooled passes.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    sink: Arc<Sink>,
    names: LayerNames,
}

impl TracedLayer {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Box<dyn Layer>, sink: Arc<Sink>) -> Self {
        let names = layer_names(inner.name());
        Self { inner, sink, names }
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.sink.note_fallback();
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.sink.note_fallback();
        self.inner.backward(grad_output)
    }

    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        let name = if train {
            self.names.fwd
        } else {
            self.names.eval_fwd
        };
        let _span = self.sink.span(name);
        self.inner.forward_into(input, train, pool)
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let _span = self.sink.span(self.names.bwd);
        self.inner.backward_into(grad_output, pool)
    }

    fn backward_into_discard(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        let _span = self.sink.span(self.names.bwd);
        self.inner.backward_into_discard(grad_output, pool)
    }

    fn params(&self) -> Vec<&Param> {
        self.sink.note_fallback();
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.sink.note_fallback();
        self.inner.params_mut()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params(f)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params_mut(f)
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads()
    }

    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        self.inner.reset_stochastic_state(rng)
    }

    fn config_hash(&self, hash: u64) -> u64 {
        self.inner.config_hash(hash)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            inner: self.inner.clone_layer(),
            sink: Arc::clone(&self.sink),
            names: self.names,
        })
    }
}

/// Marks client jobs and times the parameter plane of one model instance.
pub struct TracedModel {
    inner: Box<dyn Model>,
    sink: Arc<Sink>,
    instance: u32,
    /// The client job open on this instance: opened by the parameter load,
    /// closed by the upload (which only gets `&self`, hence the cell).
    job: Cell<Option<OpenSpan>>,
}

impl TracedModel {
    /// Wraps the template `inner` (instance 0; clones count from 1).
    pub fn new(inner: Box<dyn Model>, sink: Arc<Sink>) -> Self {
        Self {
            inner,
            sink,
            instance: 0,
            job: Cell::new(None),
        }
    }
}

impl Model for TracedModel {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.sink.note_fallback();
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.sink.note_fallback();
        self.inner.backward(grad_logits)
    }

    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        self.inner.forward_into(input, train, pool)
    }

    fn backward_into(&mut self, grad_logits: &Tensor, pool: &mut TensorPool) {
        self.inner.backward_into(grad_logits, pool)
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn param_layout_hash(&self) -> u64 {
        self.inner.param_layout_hash()
    }

    fn params_flat(&self) -> Vec<f32> {
        self.sink.note_fallback();
        self.inner.params_flat()
    }

    fn read_params_into(&self, out: &mut Vec<f32>) {
        let span = self.sink.span("client.upload");
        self.inner.read_params_into(out);
        drop(span);
        if let Some(job) = self.job.take() {
            self.sink.close(job);
            self.sink.set_job(0);
        }
    }

    fn read_grads_into(&self, out: &mut Vec<f32>) {
        self.sink.note_fallback();
        self.inner.read_grads_into(out)
    }

    fn visit_params_for_step(&mut self, f: &mut dyn FnMut(&mut Param)) -> bool {
        let _span = self.sink.span("client.step");
        self.inner.visit_params_for_step(f)
    }

    fn set_params_flat(&mut self, flat: &[f32]) {
        if self.sink.in_round() {
            self.sink.set_job(self.instance);
            self.job.set(Some(self.sink.open("client.job")));
            let _span = self.sink.span("client.load");
            self.inner.set_params_flat(flat);
        } else {
            let _span = self.sink.span("eval.load");
            self.inner.set_params_flat(flat);
        }
    }

    fn grads_flat(&self) -> Vec<f32> {
        self.sink.note_fallback();
        self.inner.grads_flat()
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads()
    }

    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        self.inner.reset_stochastic_state(rng)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(Self {
            inner: self.inner.clone_model(),
            sink: Arc::clone(&self.sink),
            instance: self.sink.note_model_clone(),
            job: Cell::new(None),
        })
    }

    fn arch_name(&self) -> &'static str {
        self.inner.arch_name()
    }
}

/// Times shard materialisation of a lazy client-data source.
pub struct TracedSource {
    inner: Arc<dyn ClientDataSource>,
    sink: Arc<Sink>,
}

impl TracedSource {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Arc<dyn ClientDataSource>, sink: Arc<Sink>) -> Self {
        Self { inner, sink }
    }
}

impl ClientDataSource for TracedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn test_set(&self) -> &Dataset {
        self.inner.test_set()
    }

    fn materialize(&self, client: usize) -> Dataset {
        self.inner.materialize(client)
    }

    fn shard(&self, client: usize) -> Arc<Dataset> {
        let name = if self.sink.on_round_thread() {
            "data.demand_materialize"
        } else {
            "data.prefetch_materialize"
        };
        let _span = self.sink.span(name);
        self.inner.shard(client)
    }

    fn fingerprint_tokens(&self) -> Vec<u64> {
        self.inner.fingerprint_tokens()
    }

    fn materialize_all(&self) -> FederatedDataset {
        self.inner.materialize_all()
    }
}

/// What [`RoundProbe`] saw of one `run_round` call.
#[derive(Debug, Clone, Copy)]
pub struct RoundMark {
    /// Absolute round index.
    pub round: usize,
    /// When `run_round` was entered.
    pub start: Instant,
    /// Samples the round's clients trained on (summed over clients, one
    /// epoch).
    pub samples: usize,
}

/// The FedCross decorator: round timestamps always, spans when traced.
pub struct RoundProbe {
    inner: FedCross,
    sink: Option<Arc<Sink>>,
    marks: Vec<RoundMark>,
    fuse_scratch: Vec<f32>,
}

impl RoundProbe {
    /// Wraps `inner`; `sink` turns tracing on. `rounds_hint` sizes the mark
    /// buffer so steady rounds do not grow it.
    pub fn new(inner: FedCross, sink: Option<Arc<Sink>>, rounds_hint: usize) -> Self {
        Self {
            inner,
            sink,
            marks: Vec::with_capacity(rounds_hint),
            fuse_scratch: Vec::new(),
        }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &FedCross {
        &self.inner
    }

    /// One mark per `run_round` call, in call order.
    pub fn marks(&self) -> &[RoundMark] {
        &self.marks
    }

    /// Times the round's server kernels on the middleware it produced:
    /// collaborator selection over all K models, then one fusion per model
    /// into a scratch buffer (serially, so `server.fuse` is summed kernel
    /// time).
    fn replay_server_kernels(&mut self, sink: &Sink, round: usize) {
        let config = *self.inner.config();
        let middleware = self.inner.middleware();
        let span = sink.span("server.select");
        let partners = std::hint::black_box(config.strategy.select_all_with(
            round,
            middleware,
            config.measure,
        ));
        drop(span);
        let _span = sink.span("server.fuse");
        self.fuse_scratch.resize(middleware[0].len(), 0.0);
        for (model, &partner) in middleware.iter().zip(&partners) {
            cross_aggregate_into(
                &mut self.fuse_scratch,
                model.as_slice(),
                middleware[partner].as_slice(),
                config.alpha,
            );
            std::hint::black_box(&self.fuse_scratch);
        }
    }
}

impl FederatedAlgorithm for RoundProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let start = Instant::now();
        let report = match self.sink.clone() {
            None => self.inner.run_round(round, ctx),
            Some(sink) => {
                let span = sink.begin_round(round);
                let report = self.inner.run_round(round, ctx);
                sink.leave_round();
                drop(span);
                self.replay_server_kernels(&sink, round);
                report
            }
        };
        self.marks.push(RoundMark {
            round,
            start,
            samples: report.total_samples,
        });
        report
    }

    fn global_params(&self) -> Vec<f32> {
        self.inner.global_params()
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        match &self.sink {
            None => self.inner.global_params_into(out),
            Some(sink) => {
                let span = sink.span("server.global");
                self.inner.global_params_into(out);
                sink.set_global_end(span.finish());
            }
        }
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.inner.restore_state(state)
    }
}
