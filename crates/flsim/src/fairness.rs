//! Per-client fairness analysis of a deployed global model.
//!
//! The paper's central motivation (Section I, Figure 1) is that a FedAvg
//! global model stuck in one client's sharp optimum "works well for client 1
//! but is unsuitable for client 2". That is a statement about the *per-client*
//! accuracy distribution, not the aggregate test accuracy the tables report.
//! This module evaluates the global model on every client's own data and
//! summarises the spread, so the claim can be measured directly (the
//! `fairness_report` harness compares FedAvg and FedCross on it).

use crate::eval::EvalWorker;
use fedcross_data::{ClientDataSource, FederatedDataset};
use fedcross_nn::Model;
use fedcross_tensor::stats::{mean_of, std_dev_of};
use serde::{Deserialize, Serialize};

/// Distribution of a single global model's accuracy across clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Accuracy of the global model on each client's local data (index =
    /// client id); clients without data score 0.
    pub per_client_accuracy: Vec<f32>,
    /// Mean of the per-client accuracies.
    pub mean: f32,
    /// Standard deviation of the per-client accuracies.
    pub std: f32,
    /// Worst single client accuracy.
    pub min: f32,
    /// Best single client accuracy.
    pub max: f32,
    /// Mean accuracy over the worst 10% of clients (rounded up to at least
    /// one client).
    pub worst_decile_mean: f32,
    /// Jain's fairness index `(Σx)² / (n·Σx²)` in `(0, 1]`; 1 means perfectly
    /// uniform accuracy across clients.
    pub jain_index: f32,
}

impl FairnessReport {
    /// Builds a report from raw per-client accuracies.
    ///
    /// # Panics
    /// Panics if `per_client_accuracy` is empty.
    pub fn from_accuracies(per_client_accuracy: Vec<f32>) -> Self {
        assert!(
            !per_client_accuracy.is_empty(),
            "fairness report needs at least one client"
        );
        let mean = mean_of(&per_client_accuracy);
        let std = std_dev_of(&per_client_accuracy);
        let min = per_client_accuracy
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        let max = per_client_accuracy
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);

        let mut sorted = per_client_accuracy.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let decile = (sorted.len() as f32 * 0.1).ceil().max(1.0) as usize;
        let worst_decile_mean = mean_of(&sorted[..decile]);

        let sum: f32 = per_client_accuracy.iter().sum();
        let sum_sq: f32 = per_client_accuracy.iter().map(|&x| x * x).sum();
        let n = per_client_accuracy.len() as f32;
        let jain_index = if sum_sq <= f32::EPSILON {
            1.0
        } else {
            (sum * sum) / (n * sum_sq)
        };

        Self {
            per_client_accuracy,
            mean,
            std,
            min,
            max,
            worst_decile_mean,
            jain_index,
        }
    }

    /// Number of clients in the report.
    pub fn num_clients(&self) -> usize {
        self.per_client_accuracy.len()
    }
}

/// Evaluates the flat parameter vector `params` on every client's local data
/// and summarises the per-client accuracy distribution.
pub fn per_client_fairness(
    template: &dyn Model,
    params: &[f32],
    data: &FederatedDataset,
    batch_size: usize,
) -> FairnessReport {
    // One cached evaluation worker for the whole sweep (the parameters are
    // loaded once; each client evaluation reuses the model and arena),
    // instead of one model clone per client.
    let mut worker = EvalWorker::new(template);
    worker.load_params(params);
    let accuracies: Vec<f32> = (0..data.num_clients())
        .map(|client| {
            worker
                .evaluate_current(data.client(client), batch_size)
                .accuracy
        })
        .collect();
    FairnessReport::from_accuracies(accuracies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
    use fedcross_data::Heterogeneity;
    use fedcross_nn::models::{cnn, CnnConfig};
    use fedcross_tensor::SeededRng;

    #[test]
    fn uniform_accuracies_have_unit_jain_index_and_zero_std() {
        let report = FairnessReport::from_accuracies(vec![0.6; 8]);
        assert!((report.jain_index - 1.0).abs() < 1e-4);
        assert!(report.std < 1e-4);
        assert!((report.mean - 0.6).abs() < 1e-6);
        assert_eq!(report.min, 0.6);
        assert_eq!(report.max, 0.6);
        assert_eq!(report.worst_decile_mean, 0.6);
        assert_eq!(report.num_clients(), 8);
    }

    #[test]
    fn skewed_accuracies_lower_the_jain_index() {
        let uniform = FairnessReport::from_accuracies(vec![0.5, 0.5, 0.5, 0.5]);
        let skewed = FairnessReport::from_accuracies(vec![0.9, 0.9, 0.9, 0.1]);
        assert!(skewed.jain_index < uniform.jain_index);
        assert!(skewed.std > uniform.std);
        assert!((skewed.min - 0.1).abs() < 1e-6);
        assert!((skewed.worst_decile_mean - 0.1).abs() < 1e-6);
    }

    #[test]
    fn worst_decile_covers_ten_percent_of_clients() {
        // 20 clients: the worst decile is the mean of the worst two.
        let mut accs: Vec<f32> = (0..20).map(|i| i as f32 / 20.0).collect();
        accs.reverse();
        let report = FairnessReport::from_accuracies(accs);
        assert!((report.worst_decile_mean - 0.025).abs() < 1e-6);
    }

    #[test]
    fn all_zero_accuracies_are_handled() {
        let report = FairnessReport::from_accuracies(vec![0.0, 0.0]);
        assert_eq!(report.jain_index, 1.0);
        assert_eq!(report.mean, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_accuracy_list_is_rejected() {
        let _ = FairnessReport::from_accuracies(vec![]);
    }

    #[test]
    fn per_client_fairness_evaluates_every_client() {
        let mut rng = SeededRng::new(0);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: 5,
                samples_per_client: 12,
                test_samples: 20,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.3),
            &mut rng,
        );
        let template = cnn(
            (3, 16, 16),
            10,
            CnnConfig {
                conv_channels: (2, 4),
                fc_hidden: 8,
                kernel: 3,
            },
            &mut rng,
        );
        let report =
            per_client_fairness(template.as_ref(), &template.params_flat(), &data, 32);
        assert_eq!(report.num_clients(), 5);
        assert!(report
            .per_client_accuracy
            .iter()
            .all(|&acc| (0.0..=1.0).contains(&acc)));
        assert!(report.jain_index > 0.0 && report.jain_index <= 1.0 + 1e-6);
        assert!(report.min <= report.mean && report.mean <= report.max);
    }
}
