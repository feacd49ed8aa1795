//! Element-wise activations and row-wise softmax / log-softmax.
//!
//! Backward passes live in `fedcross-nn`; the masks / Jacobian-vector products
//! they need are expressed in terms of the forward outputs defined here.

use crate::Tensor;

/// The numerically stable logistic sigmoid used by both the in-place and
/// destination-passing forms (one definition so they stay bitwise identical).
#[inline]
fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The ReLU value function — one definition shared by the in-place and
/// destination-passing forms so they stay bitwise identical.
#[inline]
fn relu_scalar(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// The ReLU derivative mask (1 where `x > 0`, else 0); see [`relu_scalar`].
#[inline]
fn relu_mask_scalar(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

impl Tensor {
    /// Rectified linear unit `max(x, 0)` element-wise, written into `out`.
    pub fn relu_into(&self, out: &mut Tensor) {
        self.map_into(out, relu_scalar);
    }

    /// In-place form of [`Tensor::relu_into`]; bitwise identical.
    pub fn relu_in_place(&mut self) {
        self.map_in_place(relu_scalar);
    }

    /// Element-wise derivative mask of ReLU evaluated at `self` (1 where
    /// `x > 0`, else 0), written into `out`.
    pub fn relu_mask_into(&self, out: &mut Tensor) {
        self.map_into(out, relu_mask_scalar);
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})` in place, numerically stable for
    /// large |x|.
    pub fn sigmoid_in_place(&mut self) {
        self.map_in_place(sigmoid_scalar);
    }

    /// Destination-passing form of [`Tensor::sigmoid_in_place`]; bitwise
    /// identical.
    pub fn sigmoid_into(&self, out: &mut Tensor) {
        self.map_into(out, sigmoid_scalar);
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// In-place form of [`Tensor::tanh`]; bitwise identical.
    pub fn tanh_in_place(&mut self) {
        self.map_in_place(f32::tanh);
    }

    /// Element-wise natural exponent.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise natural logarithm (values clamped away from zero first).
    pub fn ln_clamped(&self) -> Tensor {
        self.map(|x| x.max(1e-12).ln())
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Row-wise softmax of a rank-2 tensor `[rows, cols]`.
    ///
    /// Each row is shifted by its maximum before exponentiation for numerical
    /// stability, then normalised to sum to one.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "softmax_rows requires a rank-2 tensor");
        let cols = self.dims()[1];
        let mut out = self.clone();
        for row in out.data_mut().chunks_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        out
    }

    /// Row-wise log-softmax of a rank-2 tensor, in place.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    pub fn log_softmax_rows_in_place(&mut self) {
        assert_eq!(self.rank(), 2, "log-softmax requires a rank-2 tensor");
        let cols = self.dims()[1];
        for row in self.data_mut().chunks_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for x in row.iter_mut() {
                *x -= log_sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let mut out = Tensor::full(&[3], f32::NAN);
        x.relu_into(&mut out);
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
        x.relu_mask_into(&mut out);
        assert_eq!(out.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_known_values_and_stability() {
        let x = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]);
        let mut s = Tensor::full(&[3], f32::NAN);
        x.sigmoid_into(&mut s);
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        assert!((s.data()[1] - 1.0).abs() < 1e-6);
        assert!(s.data()[2].abs() < 1e-6);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn tanh_is_odd() {
        let x = Tensor::from_vec(vec![0.7, -0.7], &[2]);
        let t = x.tanh();
        assert!((t.data()[0] + t.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn exp_and_ln_are_inverse() {
        let x = Tensor::from_vec(vec![0.5, 1.0, 2.0], &[3]);
        let back = x.exp().ln_clamped();
        for (a, b) in back.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn square_squares() {
        assert_eq!(
            Tensor::from_vec(vec![-3.0, 2.0], &[2]).square().data(),
            &[9.0, 4.0]
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = x.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).data().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(&[0, 2]) > s.get(&[0, 0]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let shifted = x.add_scalar(100.0);
        let a = x.softmax_rows();
        let b = shifted.softmax_rows();
        for (p, q) in a.data().iter().zip(b.data()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 0.0, -1000.0], &[1, 3]);
        let s = x.softmax_rows();
        assert!(!s.has_non_finite());
        assert!((s.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.2, -1.3, 2.7, 0.0, 0.0, 0.0], &[2, 3]);
        let mut ls = x.clone();
        ls.log_softmax_rows_in_place();
        let ref_ls = x.softmax_rows().ln_clamped();
        for (a, b) in ls.data().iter().zip(ref_ls.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_values_are_nonpositive() {
        let mut x = Tensor::from_vec(vec![5.0, 1.0, -2.0, 0.3], &[2, 2]);
        x.log_softmax_rows_in_place();
        assert!(x.data().iter().all(|&v| v <= 1e-6));
    }
}
