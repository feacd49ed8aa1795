//! 2-D convolution layer, lowered one image at a time through its column
//! matrix (`fedcross_tensor::conv`).

use crate::layer::{Layer, Param};
use fedcross_tensor::conv::{
    conv2d_forward_into, conv2d_input_grad_into, conv2d_param_grads, im2col_shape, Conv2dGeom,
};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

/// A 2-D convolution with square kernels.
///
/// * input: `[N, in_channels, H, W]`
/// * weight: `[out_channels, in_channels * k * k]` (each row is one filter)
/// * bias: `[out_channels]`
/// * output: `[N, out_channels, OH, OW]`
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    geom: Conv2dGeom,
    in_channels: usize,
    out_channels: usize,
    cached_cols: Option<Tensor>,
    cached_input_dims: Option<Vec<usize>>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform filters and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = init::kaiming_uniform(&[out_channels, fan_in], fan_in, rng);
        let bias = Tensor::zeros(&[out_channels]);
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            geom: Conv2dGeom::new(kernel, stride, padding),
            in_channels,
            out_channels,
            cached_cols: None,
            cached_input_dims: None,
        }
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> Conv2dGeom {
        self.geom
    }

    /// Accumulates dW and db from `grad_output` against the cached columns
    /// (shared by both backward forms).
    fn accumulate_param_grads(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        let cols = self
            .cached_cols
            .as_ref()
            .expect("backward called before forward");
        conv2d_param_grads(
            grad_output,
            cols,
            &mut self.weight.grad,
            &mut self.bias.grad,
            pool,
        );
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W] input");
        assert_eq!(
            input.dims()[1],
            self.in_channels,
            "Conv2d input channel mismatch"
        );
        if let Some(old) = self.cached_cols.take() {
            pool.recycle(old);
        }
        let n = input.dims()[0];
        let (taps, pixels) = im2col_shape(input, self.geom);
        let mut cols = pool.take_uninit(&[n, taps, pixels]);
        // [N, OC, OH*OW]; the kernel reshapes it to [N, OC, OH, OW].
        let mut out = pool.take_uninit(&[n, self.out_channels, pixels]);
        conv2d_forward_into(
            input,
            &self.weight.value,
            &self.bias.value,
            self.geom,
            &mut cols,
            &mut out,
        );
        self.cached_cols = Some(cols);
        match &mut self.cached_input_dims {
            Some(cached) => {
                cached.clear();
                cached.extend_from_slice(input.dims());
            }
            // alloc: pooled — dims cached on first call; steady rounds take the Some branch
            None => self.cached_input_dims = Some(input.dims().to_vec()),
        }
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        self.accumulate_param_grads(grad_output, pool);
        let input_dims = self
            .cached_input_dims
            .as_deref()
            .expect("backward called before forward");
        let mut grad_in = pool.take_uninit(input_dims);
        conv2d_input_grad_into(
            grad_output,
            &self.weight.value,
            self.geom,
            &mut grad_in,
            pool,
        );
        grad_in
    }

    fn backward_into_discard(&mut self, grad_output: &Tensor, pool: &mut TensorPool) {
        // First-layer form: the input gradient (Wᵀ · dY and col2im) is skipped.
        self.accumulate_param_grads(grad_output, pool);
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic: only parameters and forward caches.
    }

    fn config_hash(&self, hash: u64) -> u64 {
        // The whole geometry: the weight is stored im2col-style as
        // [OC, IC·K²], so even full tensor dims cannot separate a
        // kernel/channel trade-off (4ch·k=2 and 16ch·k=1 share [4, 64]) —
        // the kernel size must be mixed explicitly, alongside stride and
        // padding which live in no tensor at all.
        let hash = crate::fnv1a_mix(hash, &self.geom.kernel.to_le_bytes());
        let hash = crate::fnv1a_mix(hash, &self.geom.stride.to_le_bytes());
        crate::fnv1a_mix(hash, &self.geom.padding.to_le_bytes())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_follows_geometry() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);

        let mut strided = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let y2 = strided.forward(&x, true);
        assert_eq!(y2.dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn all_ones_filter_computes_patch_sums() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 9]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = SeededRng::new(2);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, 0.0], &[2, 1]);
        conv.bias.value = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x, true);
        // Channel 0 = identity + 10, channel 1 = 0 + 20.
        assert_eq!(y.data()[0..4], [11.0, 12.0, 13.0, 14.0]);
        assert_eq!(y.data()[4..8], [20.0, 20.0, 20.0, 20.0]);
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = init::normal(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let out = conv.forward(&x, true);
        conv.zero_grads();
        conv.backward(&Tensor::ones(out.dims()));

        let eps = 1e-2;
        for &(i, j) in &[(0usize, 0usize), (1, 5), (2, 17)] {
            let orig = conv.weight.value.get(&[i, j]);
            conv.weight.value.set(&[i, j], orig + eps);
            let plus = conv.forward(&x, true).sum();
            conv.weight.value.set(&[i, j], orig - eps);
            let minus = conv.forward(&x, true).sum();
            conv.weight.value.set(&[i, j], orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = conv.weight.grad.get(&[i, j]);
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight ({i},{j}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = init::normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let out = conv.forward(&x, true);
        conv.zero_grads();
        let grad_in = conv.backward(&Tensor::ones(out.dims()));

        let eps = 1e-2;
        for &idx in &[0usize, 5, 10, 15] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let fp = conv.forward(&plus, true).sum();
            let fm = conv.forward(&minus, true).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[idx]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input {idx}: numeric {numeric} vs analytic {}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn bias_gradient_counts_every_output_pixel() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let out = conv.forward(&x, true);
        conv.zero_grads();
        conv.backward(&Tensor::ones(out.dims()));
        // Each of the two filters sees 4x4 = 16 output pixels with dY = 1.
        assert_eq!(conv.bias.grad.data(), &[16.0, 16.0]);
    }

    #[test]
    fn param_count_matches_filter_bank() {
        let mut rng = SeededRng::new(6);
        let conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 16 * 27 + 16);
        assert_eq!(conv.out_channels(), 16);
        assert_eq!(conv.name(), "conv2d");
    }
}
