//! Sequential composition of layers and its [`Model`] implementation.

use crate::layer::Layer;
use crate::Model;
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// A model built from a linear chain of layers.
///
/// All model-zoo constructors in [`crate::models`] return a `Sequential`
/// (boxed as `Box<dyn Model>`); residual and recurrent structure is expressed
/// through composite layers ([`crate::layers::ResidualBlock`],
/// [`crate::layers::Lstm`]) so the chain abstraction is sufficient for every
/// architecture the paper evaluates.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    arch: &'static str,
}

impl Sequential {
    /// Creates an empty sequential model with an architecture name.
    pub fn new(arch: &'static str) -> Self {
        Self {
            layers: Vec::new(),
            arch,
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        // alloc: cold — model construction
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already boxed layer (builder style).
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order, useful for summaries and debugging.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Converts the model into a boxed [`Model`] trait object.
    pub fn boxed(self) -> Box<dyn Model> {
        Box::new(self)
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.clone(),
            arch: self.arch,
        }
    }
}

impl Model for Sequential {
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        let mut current: Option<Tensor> = None;
        for layer in &mut self.layers {
            let out = layer.forward_into(current.as_ref().unwrap_or(input), train, pool);
            if let Some(prev) = current.take() {
                pool.recycle(prev);
            }
            current = Some(out);
        }
        current.unwrap_or_else(|| pool.take_copy(input))
    }

    fn backward_into(&mut self, grad_logits: &Tensor, pool: &mut TensorPool) {
        let mut current: Option<Tensor> = None;
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let prev = current.take();
            let upstream: &Tensor = prev.as_ref().unwrap_or(grad_logits);
            if idx == 0 {
                // Nothing consumes dL/d(input) of the first layer; let it
                // skip that work (parameter gradients are unaffected).
                layer.backward_into_discard(upstream, pool);
            } else {
                current = Some(layer.backward_into(upstream, pool));
            }
            if let Some(p) = prev {
                pool.recycle(p);
            }
        }
        if let Some(last) = current {
            pool.recycle(last);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn param_layout_hash(&self) -> u64 {
        // Layer names, per-parameter sizes and value-level layer config:
        // distinguishes shape collisions (same totals, different tensors),
        // parameter-free structural changes (relu vs tanh, an extra flatten)
        // and config-only variants (dropout probability/seed, conv stride).
        let mut hash = crate::FNV_OFFSET;
        for layer in &self.layers {
            hash = crate::fnv1a_mix(hash, layer.name().as_bytes());
            layer.visit_params(&mut |p| {
                // Full dims, not just the element count: Conv2d(4ch, k=2)
                // and Conv2d(16ch, k=1) — or Embedding(V, D) vs (D, V) —
                // have equal numels but incompatible tensors. Rank is mixed
                // first so dim sequences can't alias across parameters.
                let dims = p.value.dims();
                hash = crate::fnv1a_mix(hash, &dims.len().to_le_bytes());
                for &d in dims {
                    hash = crate::fnv1a_mix(hash, &d.to_le_bytes());
                }
            });
            hash = layer.config_hash(hash);
        }
        hash
    }

    fn read_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
        }
    }

    fn read_grads_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.visit_params(&mut |p| out.extend_from_slice(p.grad.data()));
        }
    }

    fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector has wrong length"
        );
        let mut offset = 0usize;
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |p| {
                let n = p.value.numel();
                p.value
                    .data_mut()
                    .copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            });
        }
    }

    fn visit_params_for_step(&mut self, f: &mut dyn FnMut(&mut crate::layer::Param)) -> bool {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
        true
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        for layer in &mut self.layers {
            layer.reset_stochastic_state(rng);
        }
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn arch_name(&self) -> &'static str {
        self.arch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use fedcross_tensor::SeededRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new("tiny")
            .push(Linear::new(3, 5, &mut rng))
            .push(Relu::new())
            .push(Linear::new(5, 2, &mut rng))
    }

    #[test]
    fn forward_produces_logits_shape() {
        let mut model = tiny_model(0);
        let x = Tensor::ones(&[4, 3]);
        let y = model.forward(&x, true);
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(model.len(), 3);
        assert!(!model.is_empty());
        assert_eq!(model.layer_names(), vec!["linear", "relu", "linear"]);
    }

    #[test]
    fn params_flat_roundtrip() {
        let model = tiny_model(1);
        let flat = model.params_flat();
        assert_eq!(flat.len(), model.param_count());
        let mut other = tiny_model(2);
        assert_ne!(other.params_flat(), flat);
        other.set_params_flat(&flat);
        assert_eq!(other.params_flat(), flat);
    }

    #[test]
    fn set_params_changes_forward_output() {
        let mut a = tiny_model(3);
        let mut b = tiny_model(4);
        let x = Tensor::ones(&[1, 3]);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_ne!(ya.data(), yb.data());
        let pa = a.params_flat();
        b.set_params_flat(&pa);
        let yb2 = b.forward(&x, false);
        assert_eq!(ya.data(), yb2.data());
    }

    #[test]
    #[should_panic]
    fn set_params_rejects_wrong_length() {
        let mut model = tiny_model(5);
        model.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn zero_grads_clears_accumulated_gradients() {
        let mut model = tiny_model(6);
        let x = Tensor::ones(&[2, 3]);
        let y = model.forward(&x, true);
        model.backward(&Tensor::ones(y.dims()));
        assert!(model.grads_flat().iter().any(|&g| g != 0.0));
        model.zero_grads();
        assert!(model.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clone_model_is_deep() {
        let model = tiny_model(7);
        let mut cloned = model.clone_model();
        let flat = model.params_flat();
        // Mutate the clone; original must be unaffected.
        let zeros = vec![0f32; flat.len()];
        cloned.set_params_flat(&zeros);
        assert_eq!(model.params_flat(), flat);
        assert_eq!(cloned.params_flat(), zeros);
    }

    #[test]
    fn param_layout_hash_distinguishes_shapes_and_config() {
        use crate::layers::{Conv2d, Dropout, Embedding, Flatten, GlobalAvgPool2d};

        // Equal element counts, different tensor shapes: must differ.
        let mut rng = SeededRng::new(9);
        let transposed = Sequential::new("emb")
            .push(Embedding::new(10, 6, &mut rng))
            .boxed();
        let mut rng = SeededRng::new(9);
        let original = Sequential::new("emb")
            .push(Embedding::new(6, 10, &mut rng))
            .boxed();
        assert_eq!(original.param_count(), transposed.param_count());
        assert_ne!(original.param_layout_hash(), transposed.param_layout_hash());

        // Conv kernel/channel trade-off with equal numels: must differ.
        let conv_chain = |inc: usize, k: usize| {
            let mut rng = SeededRng::new(11);
            Sequential::new("cnn")
                .push(Conv2d::new(inc, 4, k, 1, 0, &mut rng))
                .push(GlobalAvgPool2d::new())
                .push(Flatten::new())
                .boxed()
        };
        let a = conv_chain(4, 2); // weight numel 4*4*2*2 = 64
        let b = conv_chain(16, 1); // weight numel 4*16*1*1 = 64
        assert_eq!(a.param_count(), b.param_count());
        assert_ne!(a.param_layout_hash(), b.param_layout_hash());

        // Identical model cloned: must match.
        let model = conv_chain(4, 2);
        assert_eq!(
            model.param_layout_hash(),
            model.clone_model().param_layout_hash()
        );

        // Value-level config (dropout probability): must differ.
        let with_p = |p: f32| {
            let mut rng = SeededRng::new(13);
            Sequential::new("drop").push(Dropout::new(p, &mut rng)).boxed()
        };
        assert_ne!(with_p(0.2).param_layout_hash(), with_p(0.5).param_layout_hash());
    }

    #[test]
    fn arch_name_is_preserved() {
        let model = tiny_model(8);
        assert_eq!(model.arch_name(), "tiny");
        assert_eq!(model.boxed().arch_name(), "tiny");
    }
}
