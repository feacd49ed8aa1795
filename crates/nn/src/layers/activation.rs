//! Parameter-free activation layers.

use crate::layer::{Layer, Param};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// Rectified linear unit layer.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        if let Some(old) = self.mask.take() {
            pool.recycle(old);
        }
        let mut mask = pool.take_uninit(input.dims());
        input.relu_mask_into(&mut mask);
        self.mask = Some(mask);
        let mut out = pool.take_uninit(input.dims());
        input.relu_into(&mut out);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        let mut out = pool.take_uninit(grad_output.dims());
        grad_output.zip_map_into(mask, &mut out, |a, b| a * b);
        out
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic activation: no stochastic state to reset.
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent layer.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a new Tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        if let Some(old) = self.output.take() {
            pool.recycle(old);
        }
        let mut cached = pool.take_uninit(input.dims());
        input.map_into(&mut cached, f32::tanh);
        let out = pool.take_copy(&cached);
        self.output = Some(cached);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let out = self.output.as_ref().expect("backward called before forward");
        let mut grad = pool.take_uninit(grad_output.dims());
        grad_output.zip_map_into(out, &mut grad, |g, y| g * (1.0 - y * y));
        grad
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic activation: no stochastic state to reset.
    }

    fn name(&self) -> &'static str {
        "tanh"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid layer.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a new Sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        if let Some(old) = self.output.take() {
            pool.recycle(old);
        }
        let mut cached = pool.take_uninit(input.dims());
        input.sigmoid_into(&mut cached);
        let out = pool.take_copy(&cached);
        self.output = Some(cached);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let out = self.output.as_ref().expect("backward called before forward");
        let mut grad = pool.take_uninit(grad_output.dims());
        grad_output.zip_map_into(out, &mut grad, |g, y| g * y * (1.0 - y));
        grad
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic activation: no stochastic state to reset.
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_activation<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        let grad_out = Tensor::ones(out.dims());
        let grad_in = layer.backward(&grad_out);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut plus = x.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x.clone();
            minus.data_mut()[i] -= eps;
            let fp = layer.forward(&plus, true).sum();
            let fm = layer.forward(&minus, true).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[i]).abs() < tol,
                "component {i}: numeric {numeric} vs analytic {}",
                grad_in.data()[i]
            );
        }
    }

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let grad = relu.backward(&Tensor::ones(&[2, 2]));
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_differences() {
        let mut layer = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -0.8, 1.5, 0.0], &[2, 2]);
        finite_diff_activation(&mut layer, &x, 1e-3);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_differences() {
        let mut layer = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.3, -0.8, 1.5, 0.0], &[2, 2]);
        finite_diff_activation(&mut layer, &x, 1e-3);
    }

    #[test]
    fn relu_gradient_matches_finite_differences_away_from_kink() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![0.5, -0.5, 2.0, -2.0], &[2, 2]);
        finite_diff_activation(&mut layer, &x, 1e-3);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Tanh::new().param_count(), 0);
        assert_eq!(Sigmoid::new().param_count(), 0);
    }

    #[test]
    fn layer_names() {
        assert_eq!(Relu::new().name(), "relu");
        assert_eq!(Tanh::new().name(), "tanh");
        assert_eq!(Sigmoid::new().name(), "sigmoid");
    }
}
