//! 2-D batch normalisation.

use crate::layer::{Layer, Param};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

const EPS: f32 = 1e-5;

/// Batch normalisation over the channel dimension of `[N, C, H, W]` inputs.
///
/// Trainable parameters are the per-channel scale (`gamma`) and shift
/// (`beta`). The running mean/variance buffers are *also* exposed through
/// [`Layer::params`] (with permanently zero gradients) so that federated
/// aggregation averages them across clients exactly like PyTorch-based FL
/// implementations average BN buffers; with the paper's weight decay of zero
/// the optimizer never perturbs them.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    momentum: f32,
    channels: usize,
    // Caches for backward.
    cached_input: Option<Tensor>,
    cached_mean: Vec<f32>,
    cached_var: Vec<f32>,
    cached_xhat: Option<Tensor>,
    used_batch_stats: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Param::new(Tensor::zeros(&[channels])),
            running_var: Param::new(Tensor::ones(&[channels])),
            momentum: 0.1,
            channels,
            cached_input: None,
            cached_mean: Vec::new(),
            cached_var: Vec::new(),
            cached_xhat: None,
            used_batch_stats: false,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn channel_stats(input: &Tensor, c: usize) -> (f32, f32) {
        let dims = input.dims();
        let (n, channels, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let m = (n * h * w) as f32;
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for ni in 0..n {
            let start = ((ni * channels + c) * h) * w;
            for &v in &input.data()[start..start + h * w] {
                sum += v as f64;
                sum_sq += (v as f64) * (v as f64);
            }
        }
        let mean = (sum / m as f64) as f32;
        let var = ((sum_sq / m as f64) - (sum / m as f64).powi(2)).max(0.0) as f32;
        (mean, var)
    }
}

impl Layer for BatchNorm2d {
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects [N, C, H, W] input");
        assert_eq!(input.dims()[1], self.channels, "channel count mismatch");
        if let Some(old) = self.cached_input.take() {
            pool.recycle(old);
        }
        if let Some(old) = self.cached_xhat.take() {
            pool.recycle(old);
        }
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mut xhat = pool.take_uninit(dims);
        let mut out = pool.take_uninit(dims);
        // The per-channel stat vectors keep their capacity across steps.
        let (means, vars) = (&mut self.cached_mean, &mut self.cached_var);
        means.clear();
        means.resize(c, 0.0);
        vars.clear();
        vars.resize(c, 0.0);
        if train {
            for ci in 0..c {
                let (mean, var) = Self::channel_stats(input, ci);
                means[ci] = mean;
                vars[ci] = var;
                // Update running statistics.
                let rm = self.running_mean.value.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
                let rv = self.running_var.value.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var;
            }
        } else {
            means.copy_from_slice(self.running_mean.value.data());
            vars.copy_from_slice(self.running_var.value.data());
        }

        let xd = input.data();
        let xh = xhat.data_mut();
        let od = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let inv_std = 1.0 / (vars[ci] + EPS).sqrt();
                let g = self.gamma.value.data()[ci];
                let b = self.beta.value.data()[ci];
                let start = ((ni * c + ci) * h) * w;
                for i in start..start + h * w {
                    let normalised = (xd[i] - means[ci]) * inv_std;
                    xh[i] = normalised;
                    od[i] = g * normalised + b;
                }
            }
        }
        self.cached_input = Some(pool.take_copy(input));
        self.cached_xhat = Some(xhat);
        self.used_batch_stats = train;
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let xhat = self.cached_xhat.as_ref().expect("missing xhat cache");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let m = (n * h * w) as f32;

        let mut grad_input = pool.take_uninit(dims);
        let gi = grad_input.data_mut();
        let dy = grad_output.data();
        let xh = xhat.data();

        for ci in 0..c {
            let inv_std = 1.0 / (self.cached_var[ci] + EPS).sqrt();
            let gamma = self.gamma.value.data()[ci];

            // Accumulate per-channel sums.
            let mut sum_dy = 0f64;
            let mut sum_dy_xhat = 0f64;
            for ni in 0..n {
                let start = ((ni * c + ci) * h) * w;
                for i in start..start + h * w {
                    sum_dy += dy[i] as f64;
                    sum_dy_xhat += (dy[i] * xh[i]) as f64;
                }
            }
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat as f32;
            self.beta.grad.data_mut()[ci] += sum_dy as f32;

            if self.used_batch_stats {
                // Full batch-norm backward (batch statistics participate).
                for ni in 0..n {
                    let start = ((ni * c + ci) * h) * w;
                    for i in start..start + h * w {
                        gi[i] = gamma * inv_std / m
                            * (m * dy[i] - sum_dy as f32 - xh[i] * sum_dy_xhat as f32);
                    }
                }
            } else {
                // Running statistics are constants w.r.t. the input.
                for ni in 0..n {
                    let start = ((ni * c + ci) * h) * w;
                    for i in start..start + h * w {
                        gi[i] = gamma * inv_std * dy[i];
                    }
                }
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&self.gamma, &self.beta, &self.running_mean, &self.running_var]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![
            &mut self.gamma,
            &mut self.beta,
            &mut self.running_mean,
            &mut self.running_var,
        ]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic: running statistics are Params (restored by
        // set_params_flat) and the forward caches are overwritten before use.
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_tensor::{init, SeededRng};

    #[test]
    fn training_output_is_normalised_per_channel() {
        let mut rng = SeededRng::new(0);
        let mut bn = BatchNorm2d::new(3);
        let x = init::normal(&[4, 3, 6, 6], 5.0, 2.0, &mut rng);
        let y = bn.forward(&x, true);
        // Each channel of the output should have ~zero mean and ~unit variance.
        let dims = y.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let start = ((ni * c + ci) * h) * w;
                vals.extend_from_slice(&y.data()[start..start + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value.fill(2.0);
        bn.beta.value.fill(3.0);
        let x = Tensor::from_vec(vec![-1.0, 1.0, -1.0, 1.0], &[1, 1, 2, 2]);
        let y = bn.forward(&x, true);
        // Normalised values are ±1, so outputs are 3 ± 2.
        assert!((y.max() - 5.0).abs() < 1e-3);
        assert!((y.min() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(2);
        // Train on data with mean 4 so the running mean moves towards 4.
        for _ in 0..200 {
            let x = init::normal(&[8, 2, 4, 4], 4.0, 1.0, &mut rng);
            bn.forward(&x, true);
        }
        let running_mean = bn.running_mean.value.data()[0];
        assert!((running_mean - 4.0).abs() < 0.3, "running mean {running_mean}");
        // In eval mode an input equal to the running mean maps close to beta (0).
        let x = Tensor::full(&[1, 2, 2, 2], running_mean);
        let y = bn.forward(&x, false);
        assert!(y.data().iter().all(|&v| v.abs() < 0.3));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = init::normal(&[2], 1.0, 0.2, &mut rng);
        let x = init::normal(&[2, 2, 3, 3], 0.0, 1.0, &mut rng);

        // Loss = weighted sum of outputs to give a non-uniform gradient.
        let weights = init::normal(&[2 * 2 * 3 * 3], 0.0, 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, true)
                .data()
                .iter()
                .zip(weights.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = loss(&mut bn, &x);
        bn.zero_grads();
        let grad_out = weights.reshape(&[2, 2, 3, 3]);
        let grad_in = bn.backward(&grad_out);

        let eps = 1e-2;
        for &idx in &[0usize, 7, 20, 35] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(&mut bn, &plus) - loss(&mut bn, &minus)) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[idx]).abs() < 3e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn gamma_gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(3);
        let mut bn = BatchNorm2d::new(1);
        let x = init::normal(&[2, 1, 3, 3], 1.0, 2.0, &mut rng);
        let weights = init::normal(&[2 * 9], 0.0, 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, true)
                .data()
                .iter()
                .zip(weights.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = loss(&mut bn, &x);
        bn.zero_grads();
        bn.backward(&weights.reshape(&[2, 1, 3, 3]));
        let analytic = bn.gamma.grad.data()[0];

        let eps = 1e-3;
        let orig = bn.gamma.value.data()[0];
        bn.gamma.value.data_mut()[0] = orig + eps;
        let plus = loss(&mut bn, &x);
        bn.gamma.value.data_mut()[0] = orig - eps;
        let minus = loss(&mut bn, &x);
        bn.gamma.value.data_mut()[0] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        assert!((numeric - analytic).abs() < 1e-1 * (1.0 + numeric.abs()));
    }

    #[test]
    fn params_include_running_buffers_with_zero_grads() {
        let bn = BatchNorm2d::new(4);
        assert_eq!(bn.params().len(), 4);
        assert_eq!(bn.param_count(), 16);
        assert!(bn.running_mean.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(bn.channels(), 4);
    }
}
