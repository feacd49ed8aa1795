//! Flatten layer: collapses all non-batch dimensions.

use crate::layer::{Layer, Param};
use fedcross_tensor::{SeededRng, Tensor, TensorPool};

/// Flattens `[N, d1, d2, ...]` into `[N, d1*d2*...]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert!(input.rank() >= 1, "Flatten requires rank >= 1 input");
        match &mut self.input_dims {
            Some(cached) => {
                cached.clear();
                cached.extend_from_slice(input.dims());
            }
            // alloc: pooled — dims cached on first call; steady rounds take the Some branch
            None => self.input_dims = Some(input.dims().to_vec()),
        }
        let batch = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        let mut out = pool.take_copy(input);
        out.reshape_in_place(&[batch, rest]);
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("backward called before forward");
        let mut out = pool.take_copy(grad_output);
        out.reshape_in_place(dims);
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
        // Pure reshape: no stochastic state.
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_unflatten_roundtrip() {
        let mut layer = Flatten::new();
        let x = Tensor::arange(24).reshape(&[2, 3, 2, 2]);
        let y = layer.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let back = layer.backward(&y);
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn flatten_has_no_params() {
        assert_eq!(Flatten::new().param_count(), 0);
        assert_eq!(Flatten::new().name(), "flatten");
    }

    #[test]
    fn flatten_of_already_flat_input_is_identity() {
        let mut layer = Flatten::new();
        let x = Tensor::arange(6).reshape(&[3, 2]);
        let y = layer.forward(&x, true);
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.data(), x.data());
    }
}
