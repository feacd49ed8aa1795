//! Loss-landscape analysis (RQ1 / Figure 4).
//!
//! The paper's motivation is that FedCross' global model settles in *flatter*
//! loss valleys than FedAvg's. Figure 4 visualises 2-D loss surfaces around
//! the trained global models; this module reproduces both the surface (a grid
//! of loss values along two random filter-normalised directions, Li et al.
//! 2018) and a scalar [`sharpness`] score (expected loss increase under
//! norm-bounded random perturbations) so the comparison can be asserted in
//! tests and printed by the Figure 4 harness.

use crate::eval::EvalWorker;
use fedcross_data::Dataset;
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;

/// A 2-D loss surface around a parameter vector.
#[derive(Debug, Clone)]
pub struct LossSurface {
    /// Grid coordinates along the first random direction.
    pub alphas: Vec<f32>,
    /// Grid coordinates along the second random direction.
    pub betas: Vec<f32>,
    /// `loss[i][j]` = loss at `params + alphas[i]*d1 + betas[j]*d2`.
    pub loss: Vec<Vec<f32>>,
}

impl LossSurface {
    /// Loss at the centre of the grid (the unperturbed parameters).
    pub fn center_loss(&self) -> f32 {
        let i = self.alphas.len() / 2;
        let j = self.betas.len() / 2;
        self.loss[i][j]
    }

    /// Mean loss increase over the whole grid relative to the centre — a
    /// coarse flatness summary of the plotted surface (lower = flatter).
    pub fn mean_rise(&self) -> f32 {
        let center = self.center_loss();
        let mut total = 0f32;
        let mut count = 0usize;
        for row in &self.loss {
            for &v in row {
                total += (v - center).max(0.0);
                count += 1;
            }
        }
        total / count as f32
    }
}

/// Draws a random direction with the same norm as `params` (global
/// normalisation), so perturbation radii are comparable across architectures
/// and parameter scales.
fn random_direction(params: &[f32], rng: &mut SeededRng) -> Vec<f32> {
    let mut dir: Vec<f32> = (0..params.len()).map(|_| rng.normal()).collect();
    let dir_norm = dir.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt();
    let param_norm = params
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
        .max(1e-12);
    let scale = (param_norm / dir_norm.max(1e-12)) as f32;
    for d in dir.iter_mut() {
        *d *= scale;
    }
    dir
}

/// Computes the 2-D loss surface around `params` on `data`.
///
/// The grid spans `[-radius, radius]` (as a fraction of the parameter norm)
/// in both directions with `resolution` points per axis. Every grid point is
/// evaluated on one [`EvalWorker`] over `template`.
pub fn loss_surface_2d(
    template: &dyn Model,
    params: &[f32],
    data: &Dataset,
    resolution: usize,
    radius: f32,
    batch_size: usize,
    rng: &mut SeededRng,
) -> LossSurface {
    assert!(resolution >= 3 && resolution % 2 == 1, "resolution must be odd and >= 3");
    assert!(radius > 0.0, "radius must be positive");
    let d1 = random_direction(params, rng);
    let d2 = random_direction(params, rng);

    let coords: Vec<f32> = (0..resolution)
        .map(|i| -radius + 2.0 * radius * i as f32 / (resolution - 1) as f32)
        .collect();

    let mut worker = EvalWorker::new(template);
    let mut loss = vec![vec![0f32; resolution]; resolution];
    let mut perturbed = vec![0f32; params.len()];
    for (i, &a) in coords.iter().enumerate() {
        for (j, &b) in coords.iter().enumerate() {
            for (k, p) in perturbed.iter_mut().enumerate() {
                *p = params[k] + a * d1[k] + b * d2[k];
            }
            loss[i][j] = worker.evaluate_params(&perturbed, data, batch_size).loss;
        }
    }
    LossSurface {
        alphas: coords.clone(),
        betas: coords,
        loss,
    }
}

/// Sharpness score: expected loss increase when the parameters are perturbed
/// by random directions of relative norm `epsilon`, averaged over
/// `n_directions` draws. Flat minima have low sharpness; sharp ravines have
/// high sharpness — the quantitative version of the paper's Figure 4 claim.
/// Every loss is evaluated on one [`EvalWorker`] over `template`.
pub fn sharpness(
    template: &dyn Model,
    params: &[f32],
    data: &Dataset,
    epsilon: f32,
    n_directions: usize,
    batch_size: usize,
    rng: &mut SeededRng,
) -> f32 {
    assert!(epsilon > 0.0 && n_directions > 0);
    let mut worker = EvalWorker::new(template);
    let base = worker.evaluate_params(params, data, batch_size).loss;
    let mut total_rise = 0f32;
    let mut perturbed = vec![0f32; params.len()];
    for _ in 0..n_directions {
        let dir = random_direction(params, rng);
        for (k, p) in perturbed.iter_mut().enumerate() {
            *p = params[k] + epsilon * dir[k];
        }
        let rise = worker.evaluate_params(&perturbed, data, batch_size).loss - base;
        total_rise += rise.max(0.0);
    }
    total_rise / n_directions as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_data::Dataset;
    use fedcross_nn::loss::softmax_cross_entropy;
    use fedcross_nn::models::mlp;
    use fedcross_nn::optim::Sgd;
    use fedcross_tensor::Tensor;

    fn toy_data(n: usize) -> Dataset {
        // Two clusters with ~10% label noise so the achievable loss is bounded
        // away from zero and perturbations genuinely change it.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let true_label = i % 2;
            let label = if i % 10 == 7 { 1 - true_label } else { true_label };
            labels.push(label);
            let sign = if true_label == 0 { 1.0 } else { -1.0 };
            let jitter = 0.1 * ((i / 2) % 3) as f32;
            features.extend_from_slice(&[sign + jitter, -sign * 0.7, sign * 0.5 - jitter]);
        }
        Dataset::new(Tensor::from_vec(features, &[n, 3]), labels, 2)
    }

    fn train(model: &mut dyn Model, data: &Dataset, steps: usize, lr: f32) {
        let mut sgd = Sgd::new(lr, 0.9, 0.0);
        let mut rng = SeededRng::new(0);
        for _ in 0..steps {
            for batch in data.minibatches(16, Some(&mut rng)) {
                model.zero_grads();
                let logits = model.forward(&batch.features, true);
                let (_, grad) = softmax_cross_entropy(&logits, &batch.labels);
                model.backward(&grad);
                sgd.step(model);
            }
        }
    }

    #[test]
    fn surface_has_requested_resolution_and_center() {
        let mut rng = SeededRng::new(1);
        let template = mlp(3, &[8], 2, &mut rng);
        let data = toy_data(32);
        let surface = loss_surface_2d(
            template.as_ref(),
            &template.params_flat(),
            &data,
            5,
            0.5,
            32,
            &mut rng,
        );
        assert_eq!(surface.alphas.len(), 5);
        assert_eq!(surface.loss.len(), 5);
        assert!(surface.loss.iter().all(|row| row.len() == 5));
        // The centre coordinate is zero perturbation.
        assert!((surface.alphas[2]).abs() < 1e-6);
        assert!(surface.center_loss().is_finite());
        assert!(surface.mean_rise() >= 0.0);
    }

    #[test]
    fn trained_minimum_center_is_lower_than_the_worst_grid_point() {
        let mut rng = SeededRng::new(2);
        let mut model = mlp(3, &[8], 2, &mut rng);
        let data = toy_data(64);
        train(model.as_mut(), &data, 80, 0.2);
        let surface = loss_surface_2d(
            model.as_ref(),
            &model.params_flat(),
            &data,
            5,
            1.5,
            64,
            &mut rng,
        );
        let worst = surface
            .loss
            .iter()
            .flatten()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            surface.center_loss() + 0.02 < worst,
            "centre {} should be clearly below the worst grid point {}",
            surface.center_loss(),
            worst
        );
        assert!(surface.mean_rise() >= 0.0);
    }

    #[test]
    fn sharpness_is_nonnegative_and_grows_with_epsilon() {
        let mut rng = SeededRng::new(3);
        let mut model = mlp(3, &[8], 2, &mut rng);
        let data = toy_data(64);
        train(model.as_mut(), &data, 60, 0.2);
        let params = model.params_flat();
        let small = sharpness(model.as_ref(), &params, &data, 0.05, 6, 64, &mut SeededRng::new(4));
        let large = sharpness(model.as_ref(), &params, &data, 0.8, 6, 64, &mut SeededRng::new(4));
        assert!(small >= 0.0);
        assert!(large >= small, "sharpness should not shrink with radius ({small} -> {large})");
    }

    #[test]
    fn sharpness_is_finite_and_deterministic_for_a_seed() {
        let mut rng = SeededRng::new(5);
        let mut model = mlp(3, &[8], 2, &mut rng);
        let data = toy_data(64);
        train(model.as_mut(), &data, 80, 0.2);
        let good = model.params_flat();
        let a = sharpness(model.as_ref(), &good, &data, 0.4, 8, 64, &mut SeededRng::new(6));
        let b = sharpness(model.as_ref(), &good, &data, 0.4, 8, 64, &mut SeededRng::new(6));
        assert!(a.is_finite());
        assert!(a >= 0.0);
        assert_eq!(a, b, "sharpness must be deterministic for a fixed seed");
        // A trained minimum's loss is below an untrained model's loss (sanity
        // check that evaluation reads the parameters we pass in).
        let untrained = mlp(3, &[8], 2, &mut SeededRng::new(99));
        let mut worker = EvalWorker::new(model.as_ref());
        let untrained_loss = worker
            .evaluate_params(&untrained.params_flat(), &data, 64)
            .loss;
        let trained_loss = worker.evaluate_params(&good, &data, 64).loss;
        assert!(trained_loss < untrained_loss);
    }

    #[test]
    fn empty_dataset_gives_zero_loss_surface() {
        let mut rng = SeededRng::new(7);
        let template = mlp(3, &[4], 2, &mut rng);
        let empty = Dataset::empty(&[3], 2);
        let s = loss_surface_2d(template.as_ref(), &template.params_flat(), &empty, 3, 0.1, 8, &mut rng);
        assert!(s.loss.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn even_resolution_is_rejected() {
        let mut rng = SeededRng::new(8);
        let template = mlp(3, &[4], 2, &mut rng);
        let data = toy_data(8);
        let _ = loss_surface_2d(template.as_ref(), &template.params_flat(), &data, 4, 0.1, 8, &mut rng);
    }
}
