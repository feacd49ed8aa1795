//! Pooling layers.

use crate::layer::{Layer, Param};
use fedcross_tensor::conv::{
    global_avg_pool2d_backward_into, global_avg_pool2d_into, max_pool2d_backward_into,
    max_pool2d_into, Conv2dGeom,
};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// 2-D max pooling.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geom: Conv2dGeom,
    argmax: Option<Vec<usize>>,
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with a square window of side `kernel` and
    /// stride equal to the kernel size (the common non-overlapping case).
    pub fn new(kernel: usize) -> Self {
        Self::with_stride(kernel, kernel)
    }

    /// Creates a max-pooling layer with an explicit stride.
    pub fn with_stride(kernel: usize, stride: usize) -> Self {
        Self {
            geom: Conv2dGeom::new(kernel, stride, 0),
            argmax: None,
            input_dims: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 4, "MaxPool2d expects [N, C, H, W] input");
        let dims = input.dims();
        let oh = self.geom.out_size(dims[2]);
        let ow = self.geom.out_size(dims[3]);
        let mut out = pool.take_uninit(&[dims[0], dims[1], oh, ow]);
        let mut argmax = self.argmax.take().unwrap_or_default();
        max_pool2d_into(input, self.geom, &mut out, &mut argmax);
        self.argmax = Some(argmax);
        match &mut self.input_dims {
            Some(cached) => {
                cached.clear();
                cached.extend_from_slice(dims);
            }
            // alloc: pooled — dims cached on first call; steady rounds take the Some branch
            None => self.input_dims = Some(dims.to_vec()),
        }
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward called before forward");
        let dims = self
            .input_dims
            .as_ref()
            .expect("backward called before forward");
        let mut grad_in = pool.take_uninit(dims);
        max_pool2d_backward_into(grad_output, argmax, dims, &mut grad_in);
        grad_in
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
        // Deterministic pooling: no stochastic state.
    }

    fn config_hash(&self, hash: u64) -> u64 {
        // The whole layer is configuration: window size and stride exist in
        // no parameter tensor.
        let hash = crate::fnv1a_mix(hash, &self.geom.kernel.to_le_bytes());
        crate::fnv1a_mix(hash, &self.geom.stride.to_le_bytes())
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool2d {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        match &mut self.input_dims {
            Some(cached) => {
                cached.clear();
                cached.extend_from_slice(input.dims());
            }
            // alloc: pooled — dims cached on first call; steady rounds take the Some branch
            None => self.input_dims = Some(input.dims().to_vec()),
        }
        let dims = input.dims();
        let mut out = pool.take_uninit(&[dims[0], dims[1]]);
        global_avg_pool2d_into(input, &mut out);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("backward called before forward");
        let mut out = pool.take_uninit(dims);
        global_avg_pool2d_backward_into(grad_output, dims, &mut out);
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
        // Deterministic pooling: no stochastic state.
    }

    fn name(&self) -> &'static str {
        "global_avg_pool2d"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_halves_spatial_size() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::arange(32).reshape(&[1, 2, 4, 4]);
        let y = pool.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
    }

    #[test]
    fn maxpool_backward_routes_to_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 2.0], &[1, 1, 2, 2]);
        pool.forward(&x, true);
        let g = pool.backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn gradient_of_sum_through_maxpool_is_indicator_of_max() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![0.1, 0.9, 0.4, 0.2, 0.8, 0.3, 0.7, 0.5, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, true);
        let grad = pool.backward(&Tensor::ones(y.dims()));
        // Exactly one non-zero per pooling window.
        let nonzero = grad.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 4);
        assert_eq!(grad.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_reduces_to_channel_means() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]);
        let y = pool.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 2.0]);
        let g = pool.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "window of 3 exceeds input of 2 padded by 0 on each side")]
    fn maxpool_window_larger_than_the_input_is_rejected() {
        MaxPool2d::new(3).forward(&Tensor::zeros(&[1, 1, 2, 2]), true);
    }

    #[test]
    #[should_panic(expected = "window of 3 exceeds input of 2 padded by 0 on each side")]
    fn strided_maxpool_window_larger_than_the_input_is_rejected() {
        MaxPool2d::with_stride(3, 2).forward(&Tensor::zeros(&[1, 1, 2, 2]), true);
    }

    #[test]
    fn pooling_layers_have_no_params() {
        assert_eq!(MaxPool2d::new(2).param_count(), 0);
        assert_eq!(GlobalAvgPool2d::new().param_count(), 0);
    }
}
