//! Fully-connected (dense) layer.

use crate::layer::{Layer, Param};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

/// A fully-connected layer computing `y = x W + b`.
///
/// * input: `[batch, in_features]`
/// * weight: `[in_features, out_features]`
/// * bias: `[out_features]`
/// * output: `[batch, out_features]`
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    /// Set by [`Layer::zero_grads`] and cleared by every backward pass and
    /// every `&mut Param` hand-out: while it holds, the weight gradient is
    /// all `+0.0` and dW can be written into it directly.
    grads_zeroed: bool,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a new linear layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = init::kaiming_uniform(&[in_features, out_features], in_features, rng);
        let bias = Tensor::zeros(&[out_features]);
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
            grads_zeroed: false,
            in_features,
            out_features,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Accumulates dW and db from `grad_output` (shared by both backward
    /// forms).
    fn accumulate_param_grads(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = x^T · dY. A gradient `zero_grads` just cleared takes the
        // product directly: `+0.0 + s == s` bit for bit, since a sum started
        // at +0.0 never ends at -0.0. A gradient that already holds a sum
        // gets the product through a scratch, added once.
        if std::mem::take(&mut self.grads_zeroed) {
            input.matmul_at_b_into(grad_output, &mut self.weight.grad);
        } else {
            let mut grad_w = pool.take_uninit(&[self.in_features, self.out_features]);
            input.matmul_at_b_into(grad_output, &mut grad_w);
            self.weight.grad.add_assign(&grad_w);
            pool.recycle(grad_w);
        }
        // db = column sums of dY, accumulated into a zeroed scratch first and
        // added once, so the rounding order is the pinned one.
        let cols = grad_output.dims()[1];
        let mut grad_b = pool.take_zeroed(&[cols]);
        for row in grad_output.data().chunks(cols) {
            for (g, &v) in grad_b.data_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
        self.bias.grad.add_assign(&grad_b);
        pool.recycle(grad_b);
    }
}

impl Layer for Linear {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [batch, features] input");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "Linear input feature mismatch"
        );
        if let Some(old) = self.cached_input.take() {
            pool.recycle(old);
        }
        self.cached_input = Some(pool.take_copy(input));
        let batch = input.dims()[0];
        let mut out = pool.take_uninit(&[batch, self.out_features]);
        input.matmul_into(&self.weight.value, &mut out);
        out.add_row_broadcast_assign(&self.bias.value);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        self.accumulate_param_grads(grad_output, pool);
        // dX = dY · W^T
        let batch = grad_output.dims()[0];
        let mut grad_in = pool.take_uninit(&[batch, self.in_features]);
        grad_output.matmul_a_bt_into(&self.weight.value, &mut grad_in);
        grad_in
    }

    fn backward_into_discard(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        self.accumulate_param_grads(grad_output, pool);
        // dX = dY · W^T is skipped: nothing reads the input gradient of a
        // chain's first layer with parameters.
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // The caller may write the gradients.
        self.grads_zeroed = false;
        // alloc: bounded — short per-layer slice-ref list
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // The visitor may write the gradients.
        self.grads_zeroed = false;
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn zero_grads(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
        self.grads_zeroed = true;
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic: only parameters and forward caches.
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(layer: &mut Linear, x: &Tensor) {
        // Loss = sum of outputs; analytic gradients must match finite differences.
        let out = layer.forward(x, true);
        let grad_out = Tensor::ones(out.dims());
        layer.zero_grads();
        let grad_in = layer.backward(&grad_out);

        let eps = 1e-2;
        // Check weight gradient at a few positions.
        let positions = [(0usize, 0usize), (1, 1)];
        for &(i, j) in &positions {
            let orig = layer.weight.value.get(&[i, j]);
            layer.weight.value.set(&[i, j], orig + eps);
            let plus = layer.forward(x, true).sum();
            layer.weight.value.set(&[i, j], orig - eps);
            let minus = layer.forward(x, true).sum();
            layer.weight.value.set(&[i, j], orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.weight.grad.get(&[i, j]);
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "weight ({i},{j}): numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check input gradient at one position.
        let mut x_mod = x.clone();
        let orig = x_mod.get(&[0, 0]);
        x_mod.set(&[0, 0], orig + eps);
        let plus = layer.forward(&x_mod, true).sum();
        x_mod.set(&[0, 0], orig - eps);
        let minus = layer.forward(&x_mod, true).sum();
        let numeric = (plus - minus) / (2.0 * eps);
        assert!((numeric - grad_in.get(&[0, 0])).abs() < 1e-2 * (1.0 + numeric.abs()));
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = SeededRng::new(0);
        let mut layer = Linear::new(2, 3, &mut rng);
        layer.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        layer.bias.value = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = layer.forward(&x, true);
        assert_eq!(y.dims(), &[1, 3]);
        assert!((y.get(&[0, 0]) - 5.1).abs() < 1e-6);
        assert!((y.get(&[0, 1]) - 7.2).abs() < 1e-6);
        assert!((y.get(&[0, 2]) - 9.3).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(3);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = init::normal(&[5, 4], 0.0, 1.0, &mut rng);
        finite_diff_check(&mut layer, &x);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = SeededRng::new(5);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        layer.forward(&x, true);
        layer.zero_grads();
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        layer.backward(&grad_out);
        assert_eq!(layer.bias.grad.data(), &[4.0, 6.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = SeededRng::new(7);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        layer.forward(&x, true);
        let g = Tensor::ones(&[1, 2]);
        layer.backward(&g);
        let after_one = layer.bias.grad.data().to_vec();
        layer.forward(&x, true);
        layer.backward(&g);
        for (two, one) in layer.bias.grad.data().iter().zip(&after_one) {
            assert!((two - 2.0 * one).abs() < 1e-6);
        }
    }

    fn grad_bits(layer: &Linear) -> Vec<u32> {
        let mut bits = Vec::new();
        layer.visit_params(&mut |p| bits.extend(p.grad.data().iter().map(|g| g.to_bits())));
        bits
    }

    #[test]
    fn gradients_written_after_zero_grads_are_added_to() {
        // `zero_grads` lets the next backward write dW straight into the
        // gradient; a gradient handed out mutably after it may hold a sum,
        // which backward must add to.
        let mut rng = SeededRng::new(13);
        let x = init::normal(&[4, 6], 0.0, 1.0, &mut rng);
        let grad_out = init::normal(&[4, 5], 0.0, 1.0, &mut rng);
        let layer = Linear::new(6, 5, &mut rng);
        let mut alone = layer.clone();
        alone.forward(&x, true);
        alone.zero_grads();
        alone.backward(&grad_out);
        let mut delta = Vec::new();
        alone.visit_params(&mut |p| delta.extend_from_slice(p.grad.data()));

        let pre: Vec<f32> = (0..delta.len()).map(|i| i as f32 * 0.25 - 3.0).collect();
        let expected: Vec<u32> = pre
            .iter()
            .zip(&delta)
            .map(|(p, d)| (p + d).to_bits())
            .collect();
        for through_visitor in [true, false] {
            let mut written = layer.clone();
            written.forward(&x, true);
            written.zero_grads();
            let mut values = pre.iter();
            let mut write = |p: &mut Param| {
                for g in p.grad.data_mut() {
                    *g = *values.next().expect("one value per gradient");
                }
            };
            if through_visitor {
                written.visit_params_mut(&mut write);
            } else {
                written.params_mut().into_iter().for_each(write);
            }
            written.backward(&grad_out);
            assert_eq!(grad_bits(&written), expected, "visitor: {through_visitor}");
        }
    }

    #[test]
    fn clone_between_zero_grads_and_backward_matches_the_original() {
        let mut rng = SeededRng::new(17);
        let x = init::normal(&[3, 4], 0.0, 1.0, &mut rng);
        let grad_out = init::normal(&[3, 2], 0.0, 1.0, &mut rng);
        let mut layer = Linear::new(4, 2, &mut rng);
        layer.forward(&x, true);
        layer.backward(&grad_out);
        layer.zero_grads();
        let mut copy = layer.clone();
        layer.backward(&grad_out);
        copy.backward(&grad_out);
        assert_eq!(grad_bits(&copy), grad_bits(&layer));
    }

    #[test]
    fn param_count_is_weights_plus_bias() {
        let mut rng = SeededRng::new(9);
        let layer = Linear::new(10, 7, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
        assert_eq!(layer.name(), "linear");
    }

    #[test]
    fn clone_layer_is_independent() {
        let mut rng = SeededRng::new(11);
        let layer = Linear::new(3, 3, &mut rng);
        let mut cloned = layer.clone_layer();
        let x = Tensor::ones(&[1, 3]);
        let a = cloned.forward(&x, true);
        let mut original = layer.clone();
        let b = original.forward(&x, true);
        assert_eq!(a.data(), b.data());
    }
}
