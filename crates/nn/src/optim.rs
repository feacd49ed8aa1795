//! Optimizers.
//!
//! Every client in the FedCross evaluation trains with SGD (learning rate
//! 0.01, momentum 0.5 — Section IV-A). [`Sgd`] implements that update with
//! optional weight decay, in place on the parameter tensors a [`Model`]
//! visits, indexed in flat-vector order. [`Sgd::step_with`] lets the FL
//! baselines inject per-parameter gradient corrections (FedProx's proximal
//! term, SCAFFOLD's control variates) without re-implementing the optimizer.

use crate::Model;

/// Stochastic gradient descent with classical momentum and weight decay.
///
/// The velocity buffer is lazily sized on the first step and reset whenever
/// the parameter count changes (e.g. the optimizer is reused for a different
/// architecture).
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient (0 disables decay).
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates a new SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let mut sgd = Self {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        };
        // One shared validation + install path: `new` and `reconfigure` can
        // never drift apart in what they accept.
        sgd.reconfigure(lr, momentum, weight_decay);
        sgd
    }

    /// The paper's client optimizer: lr 0.01, momentum 0.5, no weight decay.
    pub fn paper_default() -> Self {
        Self::new(0.01, 0.5, 0.0)
    }

    /// Resets the momentum buffer (used when a client receives a fresh model).
    ///
    /// The buffer's *capacity* is kept, so an optimizer owned by a persistent
    /// client worker refills (rather than re-allocates) its velocity on the
    /// next step — one of the pieces of the zero-allocation round plane. That
    /// step writes each velocity as `momentum * 0.0 + g` instead of
    /// zero-filling the buffer and reading it back.
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }

    /// Re-validates and installs new hyper-parameters, resetting the momentum
    /// state (capacity preserved). Equivalent to replacing the optimizer with
    /// `Sgd::new(lr, momentum, weight_decay)` except that the velocity buffer
    /// keeps its allocation — the form the persistent worker plane uses at
    /// every dispatch.
    pub fn reconfigure(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.lr = lr;
        self.momentum = momentum;
        self.weight_decay = weight_decay;
        self.reset_state();
    }

    /// Performs one update step using the gradients accumulated in `model`.
    pub fn step(&mut self, model: &mut dyn Model) {
        self.step_with(model, |_, _, g| g);
    }

    /// Performs one update step, passing each gradient through `transform`
    /// first. The closure receives `(parameter index, parameter value, raw
    /// gradient)` and returns the gradient actually applied.
    ///
    /// FedProx supplies `g + μ (w - w_global)`, SCAFFOLD supplies
    /// `g - c_i + c`.
    ///
    /// # Panics
    /// Panics if [`Model::visit_params_for_step`] returns `false`.
    pub fn step_with(
        &mut self,
        model: &mut dyn Model,
        transform: impl Fn(usize, f32, f32) -> f32,
    ) {
        // Update each parameter tensor in place, in flat-vector order, with
        // the per-element arithmetic of `step_raw`; steady-state steps
        // perform zero allocations (pinned by the training-plane
        // allocation-count test).
        //
        // The first step after a reset (velocity empty) writes the velocity
        // instead of zero-filling it and reading the zeros back. It keeps the
        // product `momentum * 0.0 + g`, so a `-0.0` gradient still gives a
        // `+0.0` velocity, exactly as a zero-filled buffer would.
        let count = model.param_count();
        let fresh = self.velocity.len() != count;
        if fresh {
            // Keeps the allocation (a no-op reserve once it has been sized).
            self.velocity.clear();
            self.velocity.reserve(count);
        }
        let (lr, momentum, weight_decay) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut offset = 0usize;
        let updated_in_place = model.visit_params_for_step(&mut |param| {
            let values = param.value.data_mut();
            let grads = param.grad.data();
            let n = values.len();
            let update = |j: usize, w: &mut f32, g: f32, v_prev: f32| {
                let mut g = transform(offset + j, *w, g);
                if weight_decay > 0.0 {
                    g += weight_decay * *w;
                }
                let v = momentum * v_prev + g;
                *w -= lr * v;
                v
            };
            if fresh {
                velocity.extend(
                    values
                        .iter_mut()
                        .zip(grads)
                        .enumerate()
                        .map(|(j, (w, &g))| update(j, w, g, 0.0)),
                );
            } else {
                let slice = &mut velocity[offset..offset + n];
                for (j, ((w, &g), v)) in values.iter_mut().zip(grads).zip(slice).enumerate() {
                    *v = update(j, w, g, *v);
                }
            }
            offset += n;
        });
        assert!(
            updated_in_place,
            "Sgd steps models in place: visit_params_for_step must visit every parameter"
        );
    }

    /// Applies one SGD step directly to a raw parameter/gradient pair without
    /// going through a model: the plain flat-vector loop the optimizer tests
    /// compare [`Sgd::step`] against.
    pub fn step_raw(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.velocity.len() != params.len() {
            self.velocity.clear();
            self.velocity.resize(params.len(), 0.0);
        }
        for i in 0..params.len() {
            let mut g = grads[i];
            if self.weight_decay > 0.0 {
                g += self.weight_decay * params[i];
            }
            let v = self.momentum * self.velocity[i] + g;
            self.velocity[i] = v;
            params[i] -= self.lr * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use crate::loss::softmax_cross_entropy;
    use fedcross_tensor::{SeededRng, Tensor};

    #[test]
    fn sgd_reduces_loss_on_tiny_problem() {
        let mut rng = SeededRng::new(0);
        let mut model = mlp(2, &[8], 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0], &[4, 2]);
        let labels = vec![0usize, 1, 1, 0];
        let mut sgd = Sgd::new(0.5, 0.0, 0.0);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            sgd.step(model.as_mut());
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.5, "loss did not decrease");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // Single parameter, constant gradient 1: with momentum m the k-th step size
        // is lr * (1 + m + m^2 + ...), so two steps with momentum move further than
        // two steps without.
        let mut with = Sgd::new(0.1, 0.9, 0.0);
        let mut without = Sgd::new(0.1, 0.0, 0.0);
        let mut p_with = vec![0f32];
        let mut p_without = vec![0f32];
        for _ in 0..3 {
            with.step_raw(&mut p_with, &[1.0]);
            without.step_raw(&mut p_without, &[1.0]);
        }
        assert!(p_with[0] < p_without[0]);
    }

    #[test]
    fn weight_decay_shrinks_parameters_with_zero_gradient() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        let mut params = vec![1.0f32, -2.0];
        sgd.step_raw(&mut params, &[0.0, 0.0]);
        assert!(params[0] < 1.0 && params[0] > 0.0);
        assert!(params[1] > -2.0 && params[1] < 0.0);
    }

    #[test]
    fn step_with_transform_overrides_gradient() {
        let mut rng = SeededRng::new(1);
        let mut model = mlp(2, &[4], 2, &mut rng);
        let before = model.params_flat();
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        // Transform that zeroes every gradient: parameters must not change.
        sgd.step_with(model.as_mut(), |_, _, _| 0.0);
        assert_eq!(model.params_flat(), before);
    }

    #[test]
    fn paper_default_matches_section_iv() {
        let sgd = Sgd::paper_default();
        assert!((sgd.lr - 0.01).abs() < 1e-9);
        assert!((sgd.momentum - 0.5).abs() < 1e-9);
        assert_eq!(sgd.weight_decay, 0.0);
    }

    #[test]
    fn reset_state_clears_velocity() {
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut p = vec![0f32; 3];
        sgd.step_raw(&mut p, &[1.0, 1.0, 1.0]);
        sgd.reset_state();
        let mut p2 = vec![0f32; 3];
        sgd.step_raw(&mut p2, &[1.0, 1.0, 1.0]);
        // After reset the first step is identical to a fresh optimizer's.
        assert_eq!(p2, vec![-0.1, -0.1, -0.1]);
    }

    #[test]
    fn reconfigure_matches_a_fresh_optimizer_bitwise() {
        // A reused (reconfigured) optimizer must produce exactly the update
        // sequence of a brand-new one — the worker-plane reuse contract.
        let mut reused = Sgd::new(0.3, 0.9, 1e-3);
        let mut p = vec![1.0f32, -1.0];
        reused.step_raw(&mut p, &[0.5, -0.5]);
        reused.reconfigure(0.1, 0.5, 0.0);

        let mut fresh = Sgd::new(0.1, 0.5, 0.0);
        let mut p_reused = vec![2.0f32, -3.0];
        let mut p_fresh = vec![2.0f32, -3.0];
        for _ in 0..3 {
            reused.step_raw(&mut p_reused, &[1.0, -2.0]);
            fresh.step_raw(&mut p_fresh, &[1.0, -2.0]);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p_reused), bits(&p_fresh));

        // The same through `step`, whose first step after a reset writes the
        // velocity rather than reading a zeroed one. Every third parameter
        // and gradient is -0.0, where `momentum * 0.0 + g` and a bare `g`
        // differ; `step_raw` on the flat vectors is the zero-filled reference.
        let set_grads = |model: &mut dyn Model, grads: &[f32]| {
            let mut offset = 0;
            model.visit_params_for_step(&mut |p| {
                let n = p.grad.numel();
                p.grad
                    .data_mut()
                    .copy_from_slice(&grads[offset..offset + n]);
                offset += n;
            });
        };
        let signed_zeros = |v: Vec<f32>| -> Vec<f32> {
            v.into_iter()
                .enumerate()
                .map(|(i, x)| if i % 3 == 0 { -0.0 } else { x })
                .collect()
        };
        for weight_decay in [0.0, 1e-3] {
            let mut template = mlp(3, &[4], 2, &mut SeededRng::new(2));
            let start = signed_zeros(template.params_flat());
            template.set_params_flat(&start);
            let grads_at = |step: usize| {
                signed_zeros(
                    (0..start.len())
                        .map(|i| ((i + step) as f32 * 0.37).sin())
                        .collect(),
                )
            };

            let mut reused = Sgd::new(0.3, 0.9, 1e-3);
            let mut warm = template.clone_model();
            set_grads(warm.as_mut(), &grads_at(7));
            reused.step(warm.as_mut());
            reused.reconfigure(0.1, 0.5, weight_decay);
            let mut fresh = Sgd::new(0.1, 0.5, weight_decay);
            let mut raw = Sgd::new(0.1, 0.5, weight_decay);
            let mut m_reused = template.clone_model();
            let mut m_fresh = template.clone_model();
            let mut flat = start.clone();
            for step in 0..3 {
                let grads = grads_at(step);
                set_grads(m_reused.as_mut(), &grads);
                set_grads(m_fresh.as_mut(), &grads);
                reused.step(m_reused.as_mut());
                fresh.step(m_fresh.as_mut());
                raw.step_raw(&mut flat, &grads);
                let expected = (bits(&flat), bits(&raw.velocity));
                for (label, model, sgd) in
                    [("reused", &m_reused, &reused), ("fresh", &m_fresh, &fresh)]
                {
                    let observed = (bits(&model.params_flat()), bits(&sgd.velocity));
                    assert_eq!(
                        observed, expected,
                        "{label}, decay {weight_decay}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn reconfigure_rejects_invalid_momentum() {
        Sgd::new(0.1, 0.0, 0.0).reconfigure(0.1, 1.5, 0.0);
    }
}
