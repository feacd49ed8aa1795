//! Residual block used by the ResNet-20 family.

use crate::layer::{Layer, Param};
use crate::layers::{BatchNorm2d, Conv2d};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// A basic ResNet residual block:
///
/// ```text
/// x ── conv3x3 ── bn ── relu ── conv3x3 ── bn ──(+)── relu ── y
///  └──────────────── identity or 1x1 conv ──────┘
/// ```
///
/// When `stride > 1` or the channel count changes, the skip path uses a
/// 1x1 strided convolution followed by batch norm (the standard "option B"
/// projection shortcut).
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    relu1_mask: Option<Tensor>,
    final_relu_mask: Option<Tensor>,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_channels` to `out_channels` with
    /// the given stride on the first convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, rng);
        let bn1 = BatchNorm2d::new(out_channels);
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, rng);
        let bn2 = BatchNorm2d::new(out_channels);
        let downsample = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng),
                BatchNorm2d::new(out_channels),
            ))
        } else {
            None
        };
        Self {
            conv1,
            bn1,
            conv2,
            bn2,
            downsample,
            relu1_mask: None,
            final_relu_mask: None,
        }
    }

    /// Whether this block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.downsample.is_some()
    }
}

impl Layer for ResidualBlock {
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        if let Some(old) = self.relu1_mask.take() {
            pool.recycle(old);
        }
        if let Some(old) = self.final_relu_mask.take() {
            pool.recycle(old);
        }
        let c1 = self.conv1.forward_into(input, train, pool);
        let b1 = self.bn1.forward_into(&c1, train, pool);
        pool.recycle(c1);
        let mut mask = pool.take_uninit(b1.dims());
        b1.relu_mask_into(&mut mask);
        self.relu1_mask = Some(mask);
        let mut r1 = pool.take_uninit(b1.dims());
        b1.relu_into(&mut r1);
        pool.recycle(b1);
        let c2 = self.conv2.forward_into(&r1, train, pool);
        pool.recycle(r1);
        let out = self.bn2.forward_into(&c2, train, pool);
        pool.recycle(c2);

        let skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let s = conv.forward_into(input, train, pool);
                let sb = bn.forward_into(&s, train, pool);
                pool.recycle(s);
                sb
            }
            None => pool.take_copy(input),
        };
        // sum = out + skip, then the final ReLU in place.
        let mut sum = out;
        sum.add_assign(&skip);
        pool.recycle(skip);
        let mut final_mask = pool.take_uninit(sum.dims());
        sum.relu_mask_into(&mut final_mask);
        self.final_relu_mask = Some(final_mask);
        sum.relu_in_place();
        sum
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let final_mask = self
            .final_relu_mask
            .as_ref()
            .expect("backward called before forward");
        let mut grad_sum = pool.take_uninit(grad_output.dims());
        grad_output.zip_map_into(final_mask, &mut grad_sum, |a, b| a * b);

        // Main branch: bn2 -> conv2 -> relu1 -> bn1 -> conv1.
        let g_bn2 = self.bn2.backward_into(&grad_sum, pool);
        let g_conv2 = self.conv2.backward_into(&g_bn2, pool);
        pool.recycle(g_bn2);
        let relu1_mask = self.relu1_mask.as_ref().expect("missing relu1 mask");
        let mut g_relu = pool.take_uninit(g_conv2.dims());
        g_conv2.zip_map_into(relu1_mask, &mut g_relu, |a, b| a * b);
        pool.recycle(g_conv2);
        let g_bn1 = self.bn1.backward_into(&g_relu, pool);
        pool.recycle(g_relu);
        let mut grad_main = self.conv1.backward_into(&g_bn1, pool);
        pool.recycle(g_bn1);

        // Skip branch.
        let grad_skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let g = bn.backward_into(&grad_sum, pool);
                pool.recycle(grad_sum);
                let gs = conv.backward_into(&g, pool);
                pool.recycle(g);
                gs
            }
            None => grad_sum,
        };
        // grad_main + grad_skip, reusing grad_main's buffer.
        grad_main.add_assign(&grad_skip);
        pool.recycle(grad_skip);
        grad_main
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        let mut out = Vec::new();
        out.extend(self.conv1.params());
        out.extend(self.bn1.params());
        out.extend(self.conv2.params());
        out.extend(self.bn2.params());
        if let Some((conv, bn)) = &self.downsample {
            out.extend(conv.params());
            out.extend(bn.params());
        }
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        let mut out = Vec::new();
        out.extend(self.conv1.params_mut());
        out.extend(self.bn1.params_mut());
        out.extend(self.conv2.params_mut());
        out.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = &mut self.downsample {
            out.extend(conv.params_mut());
            out.extend(bn.params_mut());
        }
        out
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &self.downsample {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.bn2.visit_params_mut(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.visit_params_mut(f);
            bn.visit_params_mut(f);
        }
    }

    fn reset_stochastic_state(&mut self, rng: &mut SeededRng) {
        // Composite layer: thread the reset through every child so a future
        // stochastic sub-layer (e.g. dropout inside a block) is covered.
        self.conv1.reset_stochastic_state(rng);
        self.bn1.reset_stochastic_state(rng);
        self.conv2.reset_stochastic_state(rng);
        self.bn2.reset_stochastic_state(rng);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.reset_stochastic_state(rng);
            bn.reset_stochastic_state(rng);
        }
    }

    fn config_hash(&self, hash: u64) -> u64 {
        // Composite layer: fold in every child's configuration.
        let hash = self.conv1.config_hash(hash);
        let hash = self.bn1.config_hash(hash);
        let hash = self.conv2.config_hash(hash);
        let hash = self.bn2.config_hash(hash);
        match &self.downsample {
            Some((conv, bn)) => bn.config_hash(conv.config_hash(hash)),
            None => hash,
        }
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_tensor::init;

    #[test]
    fn identity_block_preserves_shape() {
        let mut rng = SeededRng::new(0);
        let mut block = ResidualBlock::new(4, 4, 1, &mut rng);
        assert!(!block.has_projection());
        let x = init::normal(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn strided_block_downsamples_and_projects() {
        let mut rng = SeededRng::new(1);
        let mut block = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(block.has_projection());
        let x = init::normal(&[1, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn output_is_nonnegative_after_final_relu() {
        let mut rng = SeededRng::new(2);
        let mut block = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = init::normal(&[1, 2, 6, 6], 0.0, 2.0, &mut rng);
        let y = block.forward(&x, true);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut rng = SeededRng::new(3);
        let mut block = ResidualBlock::new(3, 6, 2, &mut rng);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        let grad = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(grad.dims(), x.dims());
        assert!(!grad.has_non_finite());
    }

    #[test]
    fn input_gradient_matches_finite_differences_for_identity_block() {
        let mut rng = SeededRng::new(4);
        let mut block = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = init::normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let probe = init::normal(&[2 * 4 * 4], 0.0, 1.0, &mut rng);

        let loss = |block: &mut ResidualBlock, x: &Tensor| -> f32 {
            block
                .forward(x, true)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = loss(&mut block, &x);
        block.zero_grads();
        let grad_in = block.backward(&probe.reshape(&[1, 2, 4, 4]));

        let eps = 1e-2;
        let mut checked = 0;
        for idx in [1usize, 9, 17, 30] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(&mut block, &plus) - loss(&mut block, &minus)) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            // ReLU kinks and batch-norm statistics make a few points noisy; require
            // agreement on clearly differentiable points.
            if numeric.abs() > 0.05 {
                assert!(
                    (numeric - analytic).abs() < 0.15 * (1.0 + numeric.abs()),
                    "idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no informative finite-difference points");
    }

    #[test]
    fn params_cover_both_branches() {
        let mut rng = SeededRng::new(5);
        let plain = ResidualBlock::new(4, 4, 1, &mut rng);
        let projected = ResidualBlock::new(4, 8, 2, &mut rng);
        // conv(2) + bn(4) per conv/bn pair, two pairs = 12 params; projection adds 6.
        assert_eq!(plain.params().len(), 12);
        assert_eq!(projected.params().len(), 18);
        assert!(projected.param_count() > plain.param_count());
    }
}
