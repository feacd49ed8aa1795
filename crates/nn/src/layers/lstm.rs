//! A single-layer LSTM that encodes a sequence into its final hidden state.
//!
//! This is the recurrent backbone of the Shakespeare next-character and
//! Sent140 sentiment classifiers used in the paper's Table II.

use crate::layer::{Layer, Param};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};

/// Per-timestep quantities cached during the forward pass for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Tensor,      // [N, D]
    h_prev: Tensor, // [N, H]
    c_prev: Tensor, // [N, H]
    i: Tensor,      // [N, H]
    f: Tensor,      // [N, H]
    g: Tensor,      // [N, H]
    o: Tensor,      // [N, H]
    c: Tensor,      // [N, H]
}

/// A single-layer LSTM returning the last hidden state.
///
/// * input: `[N, T, D]`
/// * output: `[N, H]` (hidden state after the last timestep)
///
/// Gate weights use the `[i | f | g | o]` block layout along the `4H`
/// dimension.
#[derive(Debug, Clone)]
pub struct Lstm {
    w_ih: Param, // [D, 4H]
    w_hh: Param, // [H, 4H]
    bias: Param, // [4H]
    input_dim: usize,
    hidden_dim: usize,
    caches: Vec<StepCache>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialised weights and a forget-gate bias
    /// of 1 (the standard trick to ease gradient flow early in training).
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut SeededRng) -> Self {
        let w_ih = init::xavier_uniform(&[input_dim, 4 * hidden_dim], input_dim, hidden_dim, rng);
        let w_hh = init::xavier_uniform(&[hidden_dim, 4 * hidden_dim], hidden_dim, hidden_dim, rng);
        let mut bias = Tensor::zeros(&[4 * hidden_dim]);
        for j in hidden_dim..2 * hidden_dim {
            bias.data_mut()[j] = 1.0;
        }
        Self {
            w_ih: Param::new(w_ih),
            w_hh: Param::new(w_hh),
            bias: Param::new(bias),
            input_dim,
            hidden_dim,
            caches: Vec::new(),
        }
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Copies timestep `t` of a `[N, T, D]` tensor into `out` as `[N, D]`.
    fn timestep_fill(input: &Tensor, t: usize, out: &mut Tensor) {
        let dims = input.dims();
        let (n, steps, d) = (dims[0], dims[1], dims[2]);
        out.reshape_in_place(&[n, d]);
        let od = out.data_mut();
        for row in 0..n {
            let src = &input.data()[(row * steps + t) * d..(row * steps + t + 1) * d];
            od[row * d..(row + 1) * d].copy_from_slice(src);
        }
    }

    /// Extracts gate block `block` (0..4) from a `[N, 4H]` pre-activation
    /// into a pooled buffer.
    fn gate_block(pre: &Tensor, block: usize, hidden: usize, pool: &mut TensorPool) -> Tensor {
        let n = pre.dims()[0];
        let mut out = pool.take_uninit(&[n, hidden]);
        let od = out.data_mut();
        for row in 0..n {
            let src = &pre.data()
                [row * 4 * hidden + block * hidden..row * 4 * hidden + (block + 1) * hidden];
            od[row * hidden..(row + 1) * hidden].copy_from_slice(src);
        }
        out
    }

    /// Writes a `[N, H]` gate tensor into block `block` of the `[N, 4H]`
    /// pre-activation layout (the inverse of [`Lstm::gate_block`]).
    fn scatter_gate(dgates: &mut [f32], src: &[f32], block: usize, hidden: usize, n: usize) {
        for row in 0..n {
            let dst = &mut dgates
                [row * 4 * hidden + block * hidden..row * 4 * hidden + (block + 1) * hidden];
            dst.copy_from_slice(&src[row * hidden..(row + 1) * hidden]);
        }
    }

    /// Recycles every cached step tensor into the pool.
    fn recycle_caches(&mut self, pool: &mut TensorPool) {
        for cache in self.caches.drain(..) {
            pool.recycle(cache.x);
            pool.recycle(cache.h_prev);
            pool.recycle(cache.c_prev);
            pool.recycle(cache.i);
            pool.recycle(cache.f);
            pool.recycle(cache.g);
            pool.recycle(cache.o);
            pool.recycle(cache.c);
        }
    }
}

impl Layer for Lstm {
    fn forward_into(&mut self, input: &Tensor, _train: bool, pool: &mut TensorPool) -> Tensor {
        assert_eq!(input.rank(), 3, "Lstm expects [N, T, D] input");
        let dims = input.dims();
        let (n, steps, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.input_dim, "Lstm input dimension mismatch");
        assert!(steps > 0, "Lstm requires at least one timestep");

        let h_dim = self.hidden_dim;
        let mut h = pool.take_zeroed(&[n, h_dim]);
        let mut c = pool.take_zeroed(&[n, h_dim]);
        self.recycle_caches(pool);
        self.caches.reserve(steps);

        for t in 0..steps {
            let mut x_t = pool.take_uninit(&[n, d]);
            Self::timestep_fill(input, t, &mut x_t);
            // pre = x W_ih + h W_hh + b
            let mut pre = pool.take_uninit(&[n, 4 * h_dim]);
            x_t.matmul_into(&self.w_ih.value, &mut pre);
            let mut h_proj = pool.take_uninit(&[n, 4 * h_dim]);
            h.matmul_into(&self.w_hh.value, &mut h_proj);
            pre.add_assign(&h_proj);
            pool.recycle(h_proj);
            pre.add_row_broadcast_assign(&self.bias.value);

            let mut i = Self::gate_block(&pre, 0, h_dim, pool);
            i.sigmoid_in_place();
            let mut f = Self::gate_block(&pre, 1, h_dim, pool);
            f.sigmoid_in_place();
            let mut g = Self::gate_block(&pre, 2, h_dim, pool);
            g.tanh_in_place();
            let mut o = Self::gate_block(&pre, 3, h_dim, pool);
            o.sigmoid_in_place();
            pool.recycle(pre);

            // c_new = f * c + i * g
            let mut c_new = pool.take_uninit(&[n, h_dim]);
            f.zip_map_into(&c, &mut c_new, |a, b| a * b);
            let mut ig = pool.take_uninit(&[n, h_dim]);
            i.zip_map_into(&g, &mut ig, |a, b| a * b);
            c_new.add_assign(&ig);
            pool.recycle(ig);
            // h_new = o * tanh(c_new)
            let mut tanh_c = pool.take_uninit(&[n, h_dim]);
            c_new.map_into(&mut tanh_c, f32::tanh);
            let mut h_new = pool.take_uninit(&[n, h_dim]);
            o.zip_map_into(&tanh_c, &mut h_new, |a, b| a * b);
            pool.recycle(tanh_c);

            let c_cache = pool.take_copy(&c_new);
            self.caches.push(StepCache {
                x: x_t,
                h_prev: h,
                c_prev: c,
                i,
                f,
                g,
                o,
                c: c_cache,
            });
            h = h_new;
            c = c_new;
        }
        pool.recycle(c);
        h
    }

    fn backward_into(&mut self, grad_output: &Tensor, pool: &mut TensorPool) -> Tensor {
        assert!(!self.caches.is_empty(), "backward called before forward");
        let h_dim = self.hidden_dim;
        let steps = self.caches.len();
        let n = grad_output.dims()[0];
        let d = self.input_dim;

        let mut grad_input = pool.take_uninit(&[n, steps, d]);
        let mut dh_next = pool.take_copy(grad_output);
        let mut dc_next = pool.take_zeroed(&[n, h_dim]);
        let mut dgates = pool.take_uninit(&[n, 4 * h_dim]);
        let mut scratch_wih = pool.take_uninit(&[d, 4 * h_dim]);
        let mut scratch_whh = pool.take_uninit(&[h_dim, 4 * h_dim]);
        let mut db = pool.take_uninit(&[4 * h_dim]);
        let mut tanh_c = pool.take_uninit(&[n, h_dim]);
        let mut dc = pool.take_uninit(&[n, h_dim]);
        let mut gate_grad = pool.take_uninit(&[n, h_dim]);
        let mut gate_pre = pool.take_uninit(&[n, h_dim]);
        let mut dx = pool.take_uninit(&[n, d]);

        for t in (0..steps).rev() {
            let cache = &self.caches[t];
            cache.c.map_into(&mut tanh_c, f32::tanh);

            // dc = dc_next + dh_next * o * (1 - tanh(c)^2)
            {
                let dcd = dc.data_mut();
                let dnd = dc_next.data();
                let dhd = dh_next.data();
                let od = cache.o.data();
                let thd = tanh_c.data();
                for idx in 0..n * h_dim {
                    let g = dhd[idx] * od[idx];
                    let th = thd[idx];
                    dcd[idx] = dnd[idx] + g * (1.0 - th * th);
                }
            }

            // Assemble the four pre-activation gate gradients directly into
            // the `[i | f | g | o]` block layout of `dgates`.
            {
                let dgd = dgates.data_mut();
                let dcd = dc.data();
                let dhd = dh_next.data();
                let thd = tanh_c.data();
                // di_pre = dc * g_gate sigmoid'(i)
                gate_grad.data_mut().copy_from_slice(dcd);
                for (gg, &gv) in gate_grad.data_mut().iter_mut().zip(cache.g.data()) {
                    *gg *= gv;
                }
                gate_grad.zip_map_into(&cache.i, &mut gate_pre, |g, y| g * y * (1.0 - y));
                Self::scatter_gate(dgd, gate_pre.data(), 0, h_dim, n);
                // df_pre = dc * c_prev sigmoid'(f)
                gate_grad.data_mut().copy_from_slice(dcd);
                for (gg, &cv) in gate_grad.data_mut().iter_mut().zip(cache.c_prev.data()) {
                    *gg *= cv;
                }
                gate_grad.zip_map_into(&cache.f, &mut gate_pre, |g, y| g * y * (1.0 - y));
                Self::scatter_gate(dgd, gate_pre.data(), 1, h_dim, n);
                // dg_pre = dc * i tanh'(g)
                gate_grad.data_mut().copy_from_slice(dcd);
                for (gg, &iv) in gate_grad.data_mut().iter_mut().zip(cache.i.data()) {
                    *gg *= iv;
                }
                gate_grad.zip_map_into(&cache.g, &mut gate_pre, |g, y| g * (1.0 - y * y));
                Self::scatter_gate(dgd, gate_pre.data(), 2, h_dim, n);
                // do_pre = dh * tanh(c) sigmoid'(o)
                for idx in 0..n * h_dim {
                    gate_grad.data_mut()[idx] = dhd[idx] * thd[idx];
                }
                gate_grad.zip_map_into(&cache.o, &mut gate_pre, |g, y| g * y * (1.0 - y));
                Self::scatter_gate(dgd, gate_pre.data(), 3, h_dim, n);
            }

            // Parameter gradients.
            cache.x.matmul_at_b_into(&dgates, &mut scratch_wih);
            self.w_ih.grad.add_assign(&scratch_wih);
            cache.h_prev.matmul_at_b_into(&dgates, &mut scratch_whh);
            self.w_hh.grad.add_assign(&scratch_whh);
            let cols = 4 * h_dim;
            db.fill(0.0);
            for row in dgates.data().chunks(cols) {
                for (b, &v) in db.data_mut().iter_mut().zip(row) {
                    *b += v;
                }
            }
            self.bias.grad.add_assign(&db);

            // Propagate to input and previous hidden / cell state.
            dgates.matmul_a_bt_into(&self.w_ih.value, &mut dx);
            {
                let gid = grad_input.data_mut();
                for row in 0..n {
                    let src = &dx.data()[row * d..(row + 1) * d];
                    let dst_start = (row * steps + t) * d;
                    gid[dst_start..dst_start + d].copy_from_slice(src);
                }
            }
            dgates.matmul_a_bt_into(&self.w_hh.value, &mut dh_next);
            dc.zip_map_into(&cache.f, &mut dc_next, |a, b| a * b);
        }
        pool.recycle(dh_next);
        pool.recycle(dc_next);
        pool.recycle(dgates);
        pool.recycle(scratch_wih);
        pool.recycle(scratch_whh);
        pool.recycle(db);
        pool.recycle(tanh_c);
        pool.recycle(dc);
        pool.recycle(gate_grad);
        pool.recycle(gate_pre);
        pool.recycle(dx);
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&self.w_ih, &self.w_hh, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // alloc: bounded — short per-layer slice-ref list
        vec![&mut self.w_ih, &mut self.w_hh, &mut self.bias]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w_ih);
        f(&self.w_hh);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_ih);
        f(&mut self.w_hh);
        f(&mut self.bias);
    }

    fn reset_stochastic_state(&mut self, _rng: &mut SeededRng) {
        // Deterministic: the per-timestep caches are rebuilt by every
        // forward pass; the construction RNG is consumed at init only.
    }

    fn name(&self) -> &'static str {
        "lstm"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_is_batch_by_hidden() {
        let mut rng = SeededRng::new(0);
        let mut lstm = Lstm::new(4, 6, &mut rng);
        let x = init::normal(&[3, 5, 4], 0.0, 1.0, &mut rng);
        let h = lstm.forward(&x, true);
        assert_eq!(h.dims(), &[3, 6]);
        assert!(!h.has_non_finite());
    }

    #[test]
    fn hidden_state_is_bounded_by_tanh_envelope() {
        let mut rng = SeededRng::new(1);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let x = init::normal(&[2, 20, 3], 0.0, 5.0, &mut rng);
        let h = lstm.forward(&x, true);
        // |h| = |o * tanh(c)| <= 1.
        assert!(h.data().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn longer_sequences_change_the_output() {
        let mut rng = SeededRng::new(2);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let short = init::normal(&[1, 2, 2], 0.0, 1.0, &mut rng);
        let h_short = lstm.forward(&short, true).clone();
        let long = Tensor::concat0(&[&short.reshape(&[2, 2]), &Tensor::ones(&[3, 2])])
            .reshape(&[1, 5, 2]);
        let h_long = lstm.forward(&long, true);
        assert_ne!(h_short.data(), h_long.data());
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut rng = SeededRng::new(3);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let x = init::normal(&[2, 3, 3], 0.0, 1.0, &mut rng);
        let probe = init::normal(&[2, 4], 0.0, 1.0, &mut rng);

        let loss = |lstm: &mut Lstm, x: &Tensor| -> f32 {
            lstm.forward(x, true)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = loss(&mut lstm, &x);
        lstm.zero_grads();
        lstm.backward(&probe);

        let eps = 1e-2;
        // Check a few entries of each weight matrix.
        for &(pi, i, j) in &[(0usize, 0usize, 0usize), (0, 2, 7), (1, 1, 5), (1, 3, 14)] {
            let analytic;
            let numeric;
            if pi == 0 {
                analytic = lstm.w_ih.grad.get(&[i, j]);
                let orig = lstm.w_ih.value.get(&[i, j]);
                lstm.w_ih.value.set(&[i, j], orig + eps);
                let plus = loss(&mut lstm, &x);
                lstm.w_ih.value.set(&[i, j], orig - eps);
                let minus = loss(&mut lstm, &x);
                lstm.w_ih.value.set(&[i, j], orig);
                numeric = (plus - minus) / (2.0 * eps);
            } else {
                analytic = lstm.w_hh.grad.get(&[i, j]);
                let orig = lstm.w_hh.value.get(&[i, j]);
                lstm.w_hh.value.set(&[i, j], orig + eps);
                let plus = loss(&mut lstm, &x);
                lstm.w_hh.value.set(&[i, j], orig - eps);
                let minus = loss(&mut lstm, &x);
                lstm.w_hh.value.set(&[i, j], orig);
                numeric = (plus - minus) / (2.0 * eps);
            }
            assert!(
                (numeric - analytic).abs() < 3e-2 * (1.0 + numeric.abs()),
                "param {pi} ({i},{j}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = SeededRng::new(4);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = init::normal(&[1, 4, 2], 0.0, 1.0, &mut rng);
        let probe = init::normal(&[1, 3], 0.0, 1.0, &mut rng);
        let loss = |lstm: &mut Lstm, x: &Tensor| -> f32 {
            lstm.forward(x, true)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = loss(&mut lstm, &x);
        lstm.zero_grads();
        let grad_in = lstm.backward(&probe);

        let eps = 1e-2;
        for idx in [0usize, 3, 5, 7] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(&mut lstm, &plus) - loss(&mut lstm, &minus)) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[idx]).abs() < 3e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn forget_gate_bias_is_initialised_to_one() {
        let mut rng = SeededRng::new(5);
        let lstm = Lstm::new(2, 3, &mut rng);
        // Block 1 of the bias (forget gate) is all ones, other blocks zero.
        let b = lstm.bias.value.data();
        assert!(b[0..3].iter().all(|&v| v == 0.0));
        assert!(b[3..6].iter().all(|&v| v == 1.0));
        assert!(b[6..12].iter().all(|&v| v == 0.0));
        assert_eq!(lstm.hidden_dim(), 3);
    }

    #[test]
    fn param_count_matches_gate_matrices() {
        let mut rng = SeededRng::new(6);
        let lstm = Lstm::new(8, 16, &mut rng);
        assert_eq!(lstm.param_count(), 8 * 64 + 16 * 64 + 64);
    }
}
