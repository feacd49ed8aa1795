//! Inverted dropout layer.

use crate::layer::{Layer, Param};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation is a
/// pure identity.
///
/// The layer owns its RNG (forked per layer at construction) so dropped masks
/// are reproducible for a fixed model seed.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, rng: &mut SeededRng) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        Self {
            p,
            rng: rng.fork(0xD0), // fork: construction-seed
            mask: None,
        }
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_into(&mut self, input: &Tensor, train: bool, pool: &mut TensorPool) -> Tensor {
        if let Some(old) = self.mask.take() {
            pool.recycle(old);
        }
        if !train || self.p == 0.0 {
            return pool.take_copy(input);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = pool.take_uninit(input.dims());
        for m in mask.data_mut() {
            *m = if self.rng.uniform() < keep { scale } else { 0.0 };
        }
        let mut out = pool.take_uninit(input.dims());
        input.zip_map_into(&mask, &mut out, |a, b| a * b);
        self.mask = Some(mask);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        match &self.mask {
            Some(mask) => {
                let mut out = pool.take_uninit(grad_output.dims());
                grad_output.zip_map_into(mask, &mut out, |a, b| a * b);
                out
            }
            None => pool.take_copy(grad_output),
        }
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Rewind the mask stream to its construction seed rather than
        // re-forking from `_rng`: a clone of a never-trained template carries
        // the *unconsumed* state of the fork taken in `Dropout::new`, and
        // `SeededRng::new(seed)` reproduces exactly that state. This is what
        // keeps a cached worker model bitwise identical to clone-per-round.
        // The stale mask (if any) is left in place on purpose — the next
        // `forward_into` recycles it into the worker's own arena, whereas
        // dropping it here would leak the buffer out of the pool and force a
        // fresh allocation next round.
        self.rng = SeededRng::new(self.rng.seed());
    }

    fn config_hash(&self, hash: u64) -> u64 {
        // Both the drop probability and the mask-stream seed change training
        // behaviour without touching any parameter tensor; folding them in
        // lets the worker pool tell two same-shaped templates apart.
        let hash = crate::fnv1a_mix(hash, &self.p.to_bits().to_le_bytes());
        crate::fnv1a_mix(hash, &self.rng.seed().to_le_bytes())
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = SeededRng::new(0);
        let mut layer = Dropout::new(0.5, &mut rng);
        let x = Tensor::arange(10).reshape(&[2, 5]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), x.data());
        let g = layer.backward(&Tensor::ones(&[2, 5]));
        assert_eq!(g.data(), &[1.0; 10]);
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dropout::new(0.3, &mut rng);
        let x = Tensor::ones(&[100, 100]);
        let y = layer.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.05, "dropped fraction {frac}");
    }

    #[test]
    fn surviving_activations_are_scaled() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[10, 10]);
        let y = layer.forward(&x, true);
        for &v in y.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut rng = SeededRng::new(3);
        let mut layer = Dropout::new(0.4, &mut rng);
        let x = Tensor::ones(&[200, 200]);
        let y = layer.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.03);
    }

    #[test]
    fn backward_uses_same_mask_as_forward() {
        let mut rng = SeededRng::new(4);
        let mut layer = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[4, 4]);
        let y = layer.forward(&x, true);
        let g = layer.backward(&Tensor::ones(&[4, 4]));
        // Gradient must be zero exactly where the output was dropped.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
    }

    #[test]
    fn reset_stochastic_state_rewinds_the_mask_stream() {
        let mut rng = SeededRng::new(6);
        let template = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[8, 8]);

        // A cached layer that already produced masks, then was reset, must
        // generate exactly the mask sequence a fresh clone generates.
        let mut cached = template.clone();
        for _ in 0..3 {
            let _ = cached.forward(&x, true);
        }
        let mut entropy = SeededRng::new(99);
        cached.reset_stochastic_state(&mut entropy);

        let mut fresh = template.clone();
        for _ in 0..2 {
            let a = cached.forward(&x, true);
            let b = fresh.forward(&x, true);
            assert_eq!(a.data(), b.data(), "reset must rewind to the construction stream");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_train_mode() {
        let mut rng = SeededRng::new(5);
        let mut layer = Dropout::new(0.0, &mut rng);
        let x = Tensor::arange(8).reshape(&[2, 4]);
        assert_eq!(layer.forward(&x, true).data(), x.data());
        assert_eq!(layer.probability(), 0.0);
    }
}
