//! Loss functions: softmax cross-entropy and its gradient.

use fedcross_tensor::{Tensor, TensorPool};

/// Softmax cross-entropy over a batch: [`softmax_cross_entropy_into`] over a
/// throwaway pool.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    softmax_cross_entropy_into(logits, labels, &mut TensorPool::new())
}

/// Softmax cross-entropy over a batch.
///
/// `logits` has shape `[batch, classes]`; `labels[i]` is the target class of
/// sample `i`. Returns the mean loss over the batch and the gradient of that
/// mean loss with respect to the logits (shape `[batch, classes]`), i.e.
/// `(softmax(logits) - onehot(labels)) / batch`. The gradient tensor is
/// checked out of `pool` (recycle it once consumed), so a steady-state
/// training step allocates nothing here.
///
/// # Panics
/// Panics if `logits` is not rank-2, the label count differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    pool: &mut TensorPool,
) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    let batch = logits.dims()[0];
    let classes = logits.dims()[1];
    assert_eq!(labels.len(), batch, "one label per sample is required");

    // One buffer plays both roles: log-probabilities first (for the loss),
    // then exponentiated into the softmax gradient in place.
    let mut grad = pool.take_copy(logits);
    grad.log_softmax_rows_in_place();
    let mut loss = 0f32;
    let inv_batch = 1.0 / batch as f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        loss -= grad.get(&[i, label]);
    }
    grad.map_in_place(f32::exp); // softmax probabilities
    for (i, &label) in labels.iter().enumerate() {
        let current = grad.get(&[i, label]);
        grad.set(&[i, label], current - 1.0);
    }
    grad.scale(inv_batch);
    (loss * inv_batch, grad)
}

/// Classification accuracy of logits against integer labels, in `[0, 1]`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    assert_eq!(logits.dims()[0], labels.len(), "one label per sample");
    if labels.is_empty() {
        return 0.0;
    }
    let predictions = logits.argmax_rows();
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0], &[2, 3]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_classes() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_matches_softmax_minus_onehot() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5, -0.5], &[2, 2]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 0]);
        let probs = logits.softmax_rows();
        assert!((grad.get(&[0, 0]) - probs.get(&[0, 0]) / 2.0).abs() < 1e-5);
        assert!((grad.get(&[0, 1]) - (probs.get(&[0, 1]) - 1.0) / 2.0).abs() < 1e-5);
        assert!((grad.get(&[1, 0]) - (probs.get(&[1, 0]) - 1.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let sum: f32 = grad.row(r).data().iter().sum();
            assert!(sum.abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let base = vec![0.5, -0.2, 1.0, 0.3, -0.7, 0.9];
        let labels = [2usize, 0];
        let logits = Tensor::from_vec(base.clone(), &[2, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&Tensor::from_vec(plus, &[2, 3]), &labels);
            let (lm, _) = softmax_cross_entropy(&Tensor::from_vec(minus, &[2, 3]), &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "component {i}: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    #[should_panic]
    fn cross_entropy_rejects_out_of_range_label() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = softmax_cross_entropy(&logits, &[3]);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let logits = Tensor::from_vec(
            vec![2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 1.0, 0.0, 5.0],
            &[3, 3],
        );
        assert!((accuracy(&logits, &[0, 1, 2]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 2]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 3]), &[]), 0.0);
    }
}
