//! The [`Layer`] trait and the [`Param`] (value + gradient) pair.

use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// A trainable parameter: its current value and the gradient accumulated by
/// the most recent backward pass(es).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros_like(&value);
        Self { value, grad }
    }

    /// Number of scalar values in the parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A differentiable network layer with explicit forward and backward passes.
///
/// Layers cache whatever they need from the forward pass (inputs, masks,
/// im2col matrices, per-timestep LSTM states) to compute gradients in
/// [`Layer::backward_into`]. Gradients accumulate into each [`Param::grad`];
/// the optimizer reads and the caller clears them.
///
/// The pooled forms are the one implementation: every transient buffer
/// comes from a [`TensorPool`], and [`Layer::forward`] / [`Layer::backward`]
/// run them over a throwaway pool.
pub trait Layer: Send {
    /// Forward pass. `train` enables training-time behaviour such as dropout.
    ///
    /// Every transient buffer (the returned activation, internal caches,
    /// scratch matrices) is checked out of `pool` and previous caches are
    /// recycled into it, so a steady-state training loop performs zero
    /// full-activation allocations. The result must not depend on what the
    /// pool holds: a warm pool and a fresh one give the same bits (pinned by
    /// the training-plane tests).
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor;

    /// Backward pass: receives `dL/d(output)` and returns `dL/d(input)`,
    /// accumulating parameter gradients internally. Buffers come from `pool`
    /// as in [`Layer::forward_into`]; the returned gradient is pool-owned and
    /// should be recycled by the caller once consumed.
    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor;

    /// Backward pass for a chain's **first** layer: parameter gradients are
    /// accumulated exactly as in [`Layer::backward_into`], but the caller
    /// never reads `dL/d(input)`, so layers whose input gradient is
    /// expensive (matmul + col2im for convolutions, a matmul for linear)
    /// override this to skip computing it entirely. Parameter gradients —
    /// the only observable output — are bit-for-bit those of the full
    /// backward pass.
    fn backward_into_discard(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        let grad = self.backward_into(grad_output, pool);
        pool.recycle(grad);
    }

    /// [`Layer::forward_into`] over a throwaway pool.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_into(input, train, &mut TensorPool::new())
    }

    /// [`Layer::backward_into`] over a throwaway pool.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_into(grad_output, &mut TensorPool::new())
    }

    /// Immutable access to this layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Param>;

    /// Mutable access to this layer's parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Calls `f` on each parameter in [`Layer::params`] order without
    /// building a `Vec` — the allocation-free form the per-step optimizer
    /// path uses. The default delegates to [`Layer::params`]; layers override
    /// it to visit their fields directly.
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for p in self.params() {
            f(p);
        }
    }

    /// Mutable form of [`Layer::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Resets all parameter gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Restores the layer's *stochastic* state (anything that evolves as the
    /// layer is used but is not a parameter — e.g. the dropout mask RNG) to
    /// the state a fresh construction-time copy of the layer would have.
    ///
    /// Together with [`crate::Model::set_params_flat`] this makes a cached,
    /// previously trained layer indistinguishable from a freshly cloned one:
    /// the persistent client-worker plane calls it on every dispatch so that
    /// reusing a model across federated rounds is **bitwise identical** to
    /// cloning the template each round. Layers whose reset needs fresh
    /// entropy may draw it (deterministically) from `rng`; [`Dropout`]
    /// deliberately ignores `rng` and rewinds its own forked stream to its
    /// construction seed, because that is exactly the state a clone of a
    /// never-trained template carries.
    ///
    /// The default is a no-op, which is correct for every layer whose only
    /// cross-step state is parameters and forward caches (caches are
    /// overwritten by the next forward pass before they are read).
    ///
    /// [`Dropout`]: crate::layers::Dropout
    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        let _ = rng;
    }

    /// Folds this layer's *value-level* configuration — anything that changes
    /// behaviour but lives in neither a parameter tensor nor the layer name:
    /// a dropout probability and its mask-stream seed, a convolution's
    /// stride/padding, a pooling window — into an FNV-1a hash state and
    /// returns the new state (use `crate::fnv1a_mix`). Together with the
    /// layer-name and parameter-size sequence this makes
    /// [`crate::Model::param_layout_hash`] distinguish templates that would
    /// otherwise collide, which is what the persistent worker pool keys
    /// cached-model compatibility on. The default mixes nothing — correct
    /// for layers whose constructor takes no behaviour-affecting values
    /// beyond their parameter shapes.
    fn config_hash(&self, hash: u64) -> u64 {
        hash
    }

    /// Short layer name for debugging / summaries.
    fn name(&self) -> &'static str;

    /// Total number of scalar parameters in the layer.
    fn param_count(&self) -> usize {
        let mut total = 0;
        self.visit_params(&mut |p| total += p.numel());
        total
    }

    /// Clones the layer behind a box (parameters, buffers and caches).
    fn clone_layer(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.numel(), 6);
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_zero_grad_clears_accumulated_values() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad.fill(3.0);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }
}
