//! Centralised model evaluation on the global test set.

use fedcross_data::{Batch, Dataset};
use fedcross_nn::loss::{accuracy, softmax_cross_entropy, softmax_cross_entropy_into};
use fedcross_nn::Model;
use fedcross_tensor::TensorPool;

/// Result of evaluating a model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Top-1 classification accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Number of evaluated samples.
    pub samples: usize,
}

impl Evaluation {
    /// Accuracy as a percentage, the unit the paper's tables use.
    pub fn accuracy_pct(&self) -> f32 {
        self.accuracy * 100.0
    }
}

/// Evaluates `model` (in inference mode) on `data` in mini-batches.
///
/// The model is used mutably only because forward passes cache activations;
/// parameters are not modified.
pub fn evaluate(model: &mut dyn Model, data: &Dataset, batch_size: usize) -> Evaluation {
    if data.is_empty() {
        return Evaluation {
            accuracy: 0.0,
            loss: 0.0,
            samples: 0,
        };
    }
    let mut weighted_acc = 0f64;
    let mut weighted_loss = 0f64;
    let mut samples = 0usize;
    for batch in data.minibatches(batch_size, None) {
        let logits = model.forward(&batch.features, false);
        let (loss, _) = softmax_cross_entropy(&logits, &batch.labels);
        let acc = accuracy(&logits, &batch.labels);
        weighted_acc += acc as f64 * batch.len() as f64;
        weighted_loss += loss as f64 * batch.len() as f64;
        samples += batch.len();
    }
    Evaluation {
        accuracy: (weighted_acc / samples as f64) as f32,
        loss: (weighted_loss / samples as f64) as f32,
        samples,
    }
}

/// Evaluates a flat parameter vector by loading it into a clone of
/// `template`. This is how one-shot callers (fairness sweeps, tests)
/// evaluate a model without disturbing any client state; the simulation's
/// round loop instead reuses an [`EvalWorker`] so the per-evaluation clone
/// disappears. Results are bitwise identical either way.
pub fn evaluate_params(
    template: &dyn Model,
    params: &[f32],
    data: &Dataset,
    batch_size: usize,
) -> Evaluation {
    EvalWorker::new(template).evaluate_params(params, data, batch_size)
}

/// A persistent evaluation worker: one cached model instance plus the scratch
/// arena and gather buffers every evaluation reuses.
///
/// [`evaluate_params`] clones the template and materialises every mini-batch
/// on each call; an `EvalWorker` pays that cost once and then evaluates with
/// zero model constructions and zero full-activation allocations — the
/// evaluation half of the persistent round plane. Produces bit-for-bit the
/// numbers [`evaluate`] produces (a warm pool and a throwaway one give the
/// same bits).
pub struct EvalWorker {
    model: Box<dyn Model>,
    pool: TensorPool,
    order: Vec<usize>,
    batch: Batch,
}

impl EvalWorker {
    /// Creates a worker for the given architecture (clones the template
    /// once).
    pub fn new(template: &dyn Model) -> Self {
        Self {
            model: template.clone_model(),
            pool: TensorPool::new(),
            order: Vec::new(),
            batch: Batch::reusable(),
        }
    }

    /// Loads `params` into the cached model without evaluating — useful when
    /// the same parameters are then evaluated against several datasets (e.g.
    /// a per-client fairness sweep).
    pub fn load_params(&mut self, params: &[f32]) {
        self.model.set_params_flat(params);
    }

    /// Loads `params` into the cached model and evaluates it on `data`.
    ///
    /// Evaluation runs in inference mode, so no stochastic layer state is
    /// consumed and no reseeding is needed between calls.
    pub fn evaluate_params(
        &mut self,
        params: &[f32],
        data: &Dataset,
        batch_size: usize,
    ) -> Evaluation {
        self.model.set_params_flat(params);
        self.evaluate_current(data, batch_size)
    }

    /// Fresh-buffer count of the worker's scratch arena; stops growing once
    /// every batch shape has been evaluated once (the warm-up evaluation).
    pub fn arena_fresh_allocations(&self) -> usize {
        self.pool.fresh_allocations()
    }

    /// Evaluates whatever parameters the cached model currently holds.
    pub fn evaluate_current(&mut self, data: &Dataset, batch_size: usize) -> Evaluation {
        assert!(batch_size > 0, "batch size must be positive");
        if data.is_empty() {
            return Evaluation {
                accuracy: 0.0,
                loss: 0.0,
                samples: 0,
            };
        }
        let mut weighted_acc = 0f64;
        let mut weighted_loss = 0f64;
        let mut samples = 0usize;
        // Deterministic order + reused gather buffers reproduce exactly the
        // batches `Dataset::minibatches(batch_size, None)` would build.
        data.epoch_order(None, &mut self.order);
        for chunk in self.order.chunks(batch_size) {
            data.gather_batch(chunk, &mut self.batch);
            let logits = self
                .model
                .forward_into(&self.batch.features, false, &mut self.pool);
            let (loss, grad) =
                softmax_cross_entropy_into(&logits, &self.batch.labels, &mut self.pool);
            self.pool.recycle(grad);
            let acc = accuracy(&logits, &self.batch.labels);
            self.pool.recycle(logits);
            weighted_acc += acc as f64 * chunk.len() as f64;
            weighted_loss += loss as f64 * chunk.len() as f64;
            samples += chunk.len();
        }
        Evaluation {
            accuracy: (weighted_acc / samples as f64) as f32,
            loss: (weighted_loss / samples as f64) as f32,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_data::Dataset;
    use fedcross_nn::models::mlp;
    use fedcross_tensor::{SeededRng, Tensor};

    fn separable_dataset(n: usize) -> Dataset {
        // Class 0 clusters around (+1, 0.5, -0.2, 1.2), class 1 around
        // (-0.4, -1.0, 0.8, -0.6) — separable but not antisymmetric.
        const CENTERS: [[f32; 4]; 2] = [[1.0, 0.5, -0.2, 1.2], [-0.4, -1.0, 0.8, -0.6]];
        let mut features = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            labels.push(label);
            let jitter = 0.05 * ((i / 2) % 5) as f32;
            for &center in &CENTERS[label] {
                features.push(center + jitter);
            }
        }
        Dataset::new(Tensor::from_vec(features, &[n, 4]), labels, 2)
    }

    #[test]
    fn evaluation_of_empty_dataset_is_zero() {
        let mut rng = SeededRng::new(0);
        let mut model = mlp(4, &[8], 2, &mut rng);
        let empty = Dataset::empty(&[4], 2);
        let eval = evaluate(model.as_mut(), &empty, 16);
        assert_eq!(eval.samples, 0);
        assert_eq!(eval.accuracy, 0.0);
    }

    #[test]
    fn random_model_has_high_loss_on_balanced_data() {
        let mut rng = SeededRng::new(1);
        let mut model = mlp(4, &[8], 2, &mut rng);
        let data = separable_dataset(200);
        let eval = evaluate(model.as_mut(), &data, 32);
        assert_eq!(eval.samples, 200);
        assert!((0.0..=1.0).contains(&eval.accuracy));
        // A randomly initialised model cannot have confident correct predictions,
        // so its loss stays well above a trained model's.
        assert!(eval.loss > 0.2, "loss {}", eval.loss);
    }

    #[test]
    fn trained_model_scores_high_accuracy() {
        use fedcross_nn::loss::softmax_cross_entropy;
        use fedcross_nn::optim::Sgd;
        let mut rng = SeededRng::new(2);
        let mut model = mlp(4, &[16], 2, &mut rng);
        let data = separable_dataset(64);
        let mut sgd = Sgd::new(0.3, 0.9, 0.0);
        for _ in 0..100 {
            for batch in data.minibatches(16, Some(&mut rng)) {
                model.zero_grads();
                let logits = model.forward(&batch.features, true);
                let (_, grad) = softmax_cross_entropy(&logits, &batch.labels);
                model.backward(&grad);
                sgd.step(model.as_mut());
            }
        }
        let eval = evaluate(model.as_mut(), &data, 16);
        assert!(eval.accuracy > 0.95, "accuracy {}", eval.accuracy);
        assert!(eval.accuracy_pct() > 95.0);
    }

    #[test]
    fn evaluate_params_loads_the_given_vector() {
        let mut rng = SeededRng::new(3);
        let template = mlp(4, &[8], 2, &mut rng);
        let data = separable_dataset(50);
        // Evaluating the template's own params must match direct evaluation.
        let direct = evaluate(template.clone_model().as_mut(), &data, 16);
        let via_params = evaluate_params(template.as_ref(), &template.params_flat(), &data, 16);
        assert!((direct.accuracy - via_params.accuracy).abs() < 1e-6);
        assert!((direct.loss - via_params.loss).abs() < 1e-6);
    }

    #[test]
    fn batch_size_does_not_change_the_result() {
        let mut rng = SeededRng::new(4);
        let template = mlp(4, &[8], 2, &mut rng);
        let data = separable_dataset(60);
        let a = evaluate_params(template.as_ref(), &template.params_flat(), &data, 7);
        let b = evaluate_params(template.as_ref(), &template.params_flat(), &data, 60);
        assert!((a.accuracy - b.accuracy).abs() < 1e-6);
        assert!((a.loss - b.loss).abs() < 1e-5);
    }
}
