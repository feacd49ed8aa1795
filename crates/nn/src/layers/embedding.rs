//! Token embedding layer for the text models (Shakespeare / Sent140 LSTMs).

use crate::layer::{Layer, Param};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

/// Maps integer token ids to dense vectors.
///
/// * input: `[N, T]` token ids stored as `f32` (values must be integral and
///   within `[0, vocab)`)
/// * weight: `[vocab, dim]`
/// * output: `[N, T, dim]`
#[derive(Debug, Clone)]
pub struct Embedding {
    weight: Param,
    vocab: usize,
    dim: usize,
    cached_ids: Option<Vec<usize>>,
    cached_batch: usize,
    cached_steps: usize,
}

impl Embedding {
    /// Creates an embedding table with small normal initialisation.
    pub fn new(vocab: usize, dim: usize, rng: &mut SeededRng) -> Self {
        let weight = init::normal(&[vocab, dim], 0.0, 0.1, rng);
        Self {
            weight: Param::new(weight),
            vocab,
            dim,
            cached_ids: None,
            cached_batch: 0,
            cached_steps: 0,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scatter-adds each position's output gradient into the table row of
    /// the token cached by the last forward pass.
    fn accumulate_weight_grad(&mut self, grad_output: &Tensor) {
        let ids = self
            .cached_ids
            .as_ref()
            .expect("backward called before forward");
        assert_eq!(
            grad_output.dims(),
            &[self.cached_batch, self.cached_steps, self.dim],
            "grad shape mismatch"
        );
        let gw = self.weight.grad.data_mut();
        for (pos, &id) in ids.iter().enumerate() {
            let grad_row = &grad_output.data()[pos * self.dim..(pos + 1) * self.dim];
            let dst = &mut gw[id * self.dim..(id + 1) * self.dim];
            for (d, &g) in dst.iter_mut().zip(grad_row) {
                *d += g;
            }
        }
    }
}

impl Layer for Embedding {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 2, "Embedding expects [N, T] token ids");
        let (n, t) = (input.dims()[0], input.dims()[1]);
        // Reuse the id vector's capacity across steps.
        let mut ids = self.cached_ids.take().unwrap_or_default();
        ids.clear();
        ids.reserve(n * t);
        let mut out = pool.take_uninit(&[n, t, self.dim]);
        let od = out.data_mut();
        for (pos, &raw) in input.data().iter().enumerate() {
            // `as usize` saturates negatives and NaN to 0 and truncates
            // fractions, so the float itself is checked.
            let id = raw as usize;
            assert!(
                raw >= 0.0 && raw.fract() == 0.0 && id < self.vocab,
                "token id {raw} must be an integer in [0, {})",
                self.vocab
            );
            ids.push(id);
            let src = &self.weight.value.data()[id * self.dim..(id + 1) * self.dim];
            od[pos * self.dim..(pos + 1) * self.dim].copy_from_slice(src);
        }
        self.cached_ids = Some(ids);
        self.cached_batch = n;
        self.cached_steps = t;
        out
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        self.accumulate_weight_grad(grad_output);
        // Token ids are not differentiable; return a zero gradient of the input shape.
        pool.take_zeroed(&[self.cached_batch, self.cached_steps])
    }

    fn backward_into_discard(&mut self, grad_output: &Tensor, _pool: &mut TensorPool) {
        // First-layer form: skip materialising the all-zero token-id
        // gradient; only the embedding-table gradient matters.
        self.accumulate_weight_grad(grad_output);
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&mut self.weight]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic lookup table: no stochastic state.
    }

    fn name(&self) -> &'static str {
        "embedding"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_gathers_rows() {
        let mut rng = SeededRng::new(0);
        let mut emb = Embedding::new(5, 3, &mut rng);
        // Make the table recognisable.
        for v in 0..5 {
            for d in 0..3 {
                emb.weight.value.set(&[v, d], (v * 10 + d) as f32);
            }
        }
        let ids = Tensor::from_vec(vec![0.0, 2.0, 4.0, 1.0], &[2, 2]);
        let out = emb.forward(&ids, true);
        assert_eq!(out.dims(), &[2, 2, 3]);
        assert_eq!(&out.data()[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&out.data()[3..6], &[20.0, 21.0, 22.0]);
        assert_eq!(&out.data()[6..9], &[40.0, 41.0, 42.0]);
    }

    #[test]
    fn backward_accumulates_into_used_rows_only() {
        let mut rng = SeededRng::new(1);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let ids = Tensor::from_vec(vec![1.0, 1.0, 3.0], &[1, 3]);
        emb.forward(&ids, true);
        emb.zero_grads();
        let grad = Tensor::ones(&[1, 3, 2]);
        emb.backward(&grad);
        // Row 1 used twice, row 3 once, rows 0 and 2 never.
        assert_eq!(&emb.weight.grad.data()[0..2], &[0.0, 0.0]);
        assert_eq!(&emb.weight.grad.data()[2..4], &[2.0, 2.0]);
        assert_eq!(&emb.weight.grad.data()[4..6], &[0.0, 0.0]);
        assert_eq!(&emb.weight.grad.data()[6..8], &[1.0, 1.0]);
    }

    fn embed_one(id: f32) -> Tensor {
        let mut rng = SeededRng::new(2);
        let mut emb = Embedding::new(3, 2, &mut rng);
        emb.forward(&Tensor::from_vec(vec![id], &[1, 1]), true)
    }

    #[test]
    #[should_panic]
    fn out_of_vocab_token_panics() {
        embed_one(5.0);
    }

    #[test]
    #[should_panic(expected = "token id -1 must be an integer in [0, 3)")]
    fn negative_token_id_panics() {
        embed_one(-1.0);
    }

    #[test]
    #[should_panic(expected = "token id NaN must be an integer in [0, 3)")]
    fn nan_token_id_panics() {
        embed_one(f32::NAN);
    }

    #[test]
    #[should_panic(expected = "token id 2.4 must be an integer in [0, 3)")]
    fn fractional_token_id_panics() {
        embed_one(2.4);
    }

    #[test]
    fn param_count_is_vocab_times_dim() {
        let mut rng = SeededRng::new(3);
        let emb = Embedding::new(100, 16, &mut rng);
        assert_eq!(emb.param_count(), 1600);
        assert_eq!(emb.vocab_size(), 100);
        assert_eq!(emb.dim(), 16);
    }
}
