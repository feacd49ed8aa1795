//! # fedcross-nn
//!
//! Neural-network layers, models, losses and optimizers for the FedCross
//! federated-learning reproduction.
//!
//! The FedCross paper (ICDE 2024) evaluates its multi-model cross-aggregation
//! scheme on four model families: the FedAvg two-conv CNN, ResNet-20, VGG-16
//! and an LSTM text classifier. This crate provides architecture-faithful,
//! CPU-scaled versions of all of them on top of the `fedcross-tensor`
//! substrate, along with:
//!
//! * an explicit-backward [`Layer`] abstraction (no autograd graph — every
//!   gradient is hand-derived and checked against finite differences in
//!   tests),
//! * a [`Model`] trait exposing the *flattened parameter vector* interface
//!   that every FL aggregation rule in the workspace operates on,
//! * [`Sequential`] composition plus residual blocks and an LSTM,
//! * softmax cross-entropy loss ([`loss`]),
//! * SGD with momentum and weight decay ([`optim`]), the optimizer used by
//!   every client in the paper's experiments,
//! * parameter-vector helpers ([`params`]) used by FedAvg-style weighted
//!   averaging and FedCross cross-aggregation.
//!
//! ## Quick example
//!
//! ```
//! use fedcross_nn::models::mlp;
//! use fedcross_nn::{loss::softmax_cross_entropy, optim::Sgd, Model};
//! use fedcross_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut model = mlp(4, &[16], 3, &mut rng);
//! let x = Tensor::ones(&[2, 4]);
//! let labels = vec![0usize, 2];
//! let logits = model.forward(&x, true);
//! let (loss, grad) = softmax_cross_entropy(&logits, &labels);
//! model.backward(&grad);
//! let mut sgd = Sgd::new(0.1, 0.9, 0.0);
//! sgd.step(model.as_mut());
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod params;
pub mod sequential;

pub use layer::{Layer, Param};
pub use params::ParamBlock;
pub use sequential::Sequential;

use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// FNV-1a offset basis / prime, shared by every layout-hash implementation so
/// the default and the structured overrides can never drift apart.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Mixes one byte string into an FNV-1a hash state.
pub(crate) fn fnv1a_mix(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A trainable model: a differentiable classifier exposing its parameters as a
/// single flat `f32` vector.
///
/// The flat-vector interface is what federated aggregation operates on: the
/// cloud server in FedAvg averages `params_flat()` across clients, and
/// FedCross' cross-aggregation computes `α·v_i + (1-α)·v_co` over the same
/// vectors before pushing them back with [`Model::set_params_flat`].
pub trait Model: Send {
    /// Runs the forward pass, returning logits of shape `[batch, classes]`.
    ///
    /// `train` toggles training-time behaviour (dropout, batch-norm batch
    /// statistics). Every transient activation is checked out of `pool` and
    /// reused across steps, so steady-state training performs zero
    /// full-activation allocations; the returned logits are pool-owned and
    /// should be recycled by the caller once consumed.
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor;

    /// Runs the backward pass given the gradient of the loss w.r.t. the
    /// logits, accumulating parameter gradients internally; buffers come from
    /// `pool` as in [`Model::forward_into`].
    fn backward_into(&mut self, grad_logits: &Tensor, pool: &mut TensorPool);

    /// [`Model::forward_into`] over a throwaway pool.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_into(input, train, &mut TensorPool::new())
    }

    /// [`Model::backward_into`] over a throwaway pool.
    fn backward(&mut self, grad_logits: &Tensor) {
        self.backward_into(grad_logits, &mut TensorPool::new())
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize;

    /// A cheap fingerprint of the model's *parameter layout*: the sequence of
    /// per-parameter tensor sizes in [`Model::params_flat`] order (plus, for
    /// structured models, the layer-name sequence), FNV-1a hashed. Two models
    /// with equal hashes accept each other's flat vectors tensor-for-tensor;
    /// a matching `param_count` alone does not guarantee that (different
    /// layer shapes can sum to the same total). The worker pool keys its
    /// cached-model compatibility check on this.
    ///
    /// Structured models additionally fold in each layer's value-level
    /// configuration via [`Layer::config_hash`] (dropout probability and
    /// mask-stream seed, conv stride/padding, pooling geometry), so template
    /// variants along those axes hash differently too. The default falls
    /// back to hashing just the total count — correct but collision-prone,
    /// so structured models should override it ([`Sequential`] does).
    fn param_layout_hash(&self) -> u64 {
        fnv1a_mix(FNV_OFFSET, &self.param_count().to_le_bytes())
    }

    /// Writes all parameters, concatenated into one flat vector, into `out`
    /// (cleared first), reusing its capacity — the allocation-free form the
    /// optimizer's step scratch and the upload path use.
    fn read_params_into(&self, out: &mut Vec<f32>);

    /// Writes all accumulated gradients into `out` (cleared first), in the
    /// same order as [`Model::read_params_into`].
    fn read_grads_into(&self, out: &mut Vec<f32>);

    /// [`Model::read_params_into`] into a fresh vector.
    fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.read_params_into(&mut out);
        out
    }

    /// [`Model::read_grads_into`] into a fresh vector.
    fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.read_grads_into(&mut out);
        out
    }

    /// Visits every parameter (value + gradient pair) in [`Model::params_flat`]
    /// order, letting an optimizer update values in place without ever
    /// materialising the flat vectors. Returns `false` when unsupported (the
    /// default), in which case callers fall back to the flat-vector path.
    fn visit_params_for_step(&mut self, f: &mut dyn FnMut(&mut Param)) -> bool {
        let _ = f;
        false
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Model::params_flat`] (of this or an architecturally identical model).
    fn set_params_flat(&mut self, flat: &[f32]);

    /// Resets all accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Restores every layer's stochastic state (dropout mask RNGs, …) to what
    /// a fresh construction-time copy of the model would have; see
    /// [`Layer::reset_stochastic_state`].
    ///
    /// `set_params_flat` + `reset_stochastic_state` together turn a cached,
    /// previously trained model instance into the bitwise equivalent of
    /// `template.clone_model()` + `set_params_flat` — the contract the
    /// persistent client-worker plane in `fedcross-flsim` relies on. The
    /// default is a no-op; models composed of stochastic layers (anything
    /// holding [`layers::Dropout`]) **must** override it and forward the call
    /// to their layers, or cached reuse will silently diverge from
    /// clone-per-round trajectories. [`Sequential`] already does.
    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        let _ = rng;
    }

    /// Clones the model (architecture, parameters and buffers) behind a box.
    fn clone_model(&self) -> Box<dyn Model>;

    /// A short human-readable architecture name (e.g. `"cnn"`, `"resnet20"`).
    fn arch_name(&self) -> &'static str {
        "model"
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}
