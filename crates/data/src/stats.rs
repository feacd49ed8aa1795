//! Heterogeneity statistics over a federated dataset.
//!
//! The paper quantifies client heterogeneity informally through the Figure 3
//! dot plots; this module provides the scalar summaries used by the analysis
//! harness and tests: per-client label entropy, total-variation / earth-mover
//! style distance between each client's label distribution and the global one,
//! and a compact [`HeterogeneityReport`].

use crate::federated::FederatedDataset;
use crate::source::ClientDataSource;

/// Shannon entropy (nats) of a label-count histogram.
///
/// Returns 0 for an empty histogram. A uniform distribution over `C` classes
/// has entropy `ln(C)`; a single-class client has entropy 0.
pub fn label_entropy(counts: &[usize]) -> f32 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut entropy = 0f32;
    for &c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f32 / total as f32;
        entropy -= p * p.ln();
    }
    entropy
}

/// Total-variation distance between two label distributions given as count
/// histograms: `0.5 * Σ |p_c - q_c|`, in `[0, 1]`.
pub fn total_variation(counts_a: &[usize], counts_b: &[usize]) -> f32 {
    assert_eq!(counts_a.len(), counts_b.len(), "class counts must align");
    let total_a: usize = counts_a.iter().sum();
    let total_b: usize = counts_b.iter().sum();
    if total_a == 0 || total_b == 0 {
        return 0.0;
    }
    let mut distance = 0f32;
    for (&a, &b) in counts_a.iter().zip(counts_b) {
        let p = a as f32 / total_a as f32;
        let q = b as f32 / total_b as f32;
        distance += (p - q).abs();
    }
    distance / 2.0
}

/// A compact heterogeneity summary of a federated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityReport {
    /// Mean per-client label entropy (nats).
    pub mean_client_entropy: f32,
    /// Entropy of the pooled (global) label distribution.
    pub global_entropy: f32,
    /// Mean total-variation distance between client and global distributions.
    pub mean_divergence: f32,
    /// Largest client-to-global total-variation distance.
    pub max_divergence: f32,
    /// Mean number of distinct classes present per client.
    pub mean_classes_per_client: f32,
    /// Smallest and largest client sample counts.
    pub client_size_range: (usize, usize),
}

impl HeterogeneityReport {
    /// Builds the report from a federated dataset.
    pub fn from_dataset(data: &FederatedDataset) -> Self {
        let counts = data.class_count_matrix();
        let num_classes = data.num_classes();
        let mut global = vec![0usize; num_classes];
        for client in &counts {
            for (g, &c) in global.iter_mut().zip(client) {
                *g += c;
            }
        }

        let mut entropies = Vec::with_capacity(counts.len());
        let mut divergences = Vec::with_capacity(counts.len());
        let mut classes_per_client = Vec::with_capacity(counts.len());
        let mut sizes = Vec::with_capacity(counts.len());
        for client in &counts {
            entropies.push(label_entropy(client));
            divergences.push(total_variation(client, &global));
            classes_per_client.push(client.iter().filter(|&&c| c > 0).count() as f32);
            sizes.push(client.iter().sum::<usize>());
        }
        let mean = |v: &[f32]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f32>() / v.len() as f32
            }
        };
        Self {
            mean_client_entropy: mean(&entropies),
            global_entropy: label_entropy(&global),
            mean_divergence: mean(&divergences),
            max_divergence: divergences.iter().copied().fold(0.0, f32::max),
            mean_classes_per_client: mean(&classes_per_client),
            client_size_range: (
                sizes.iter().copied().min().unwrap_or(0),
                sizes.iter().copied().max().unwrap_or(0),
            ),
        }
    }

    /// A heterogeneity ratio in `[0, 1]`: 0 when every client matches the
    /// global label distribution, approaching 1 for single-class clients on a
    /// balanced global distribution.
    pub fn heterogeneity_ratio(&self) -> f32 {
        if self.global_entropy <= f32::MIN_POSITIVE {
            return 0.0;
        }
        (1.0 - self.mean_client_entropy / self.global_entropy).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federated::{FederatedDataset, SynthCifar10Config};
    use crate::partition::Heterogeneity;
    use fedcross_tensor::SeededRng;

    #[test]
    fn entropy_of_uniform_distribution_is_log_classes() {
        let counts = vec![10usize; 8];
        assert!((label_entropy(&counts) - (8f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn entropy_of_single_class_is_zero() {
        assert_eq!(label_entropy(&[0, 42, 0]), 0.0);
        assert_eq!(label_entropy(&[]), 0.0);
        assert_eq!(label_entropy(&[0, 0]), 0.0);
    }

    #[test]
    fn total_variation_bounds_and_symmetry() {
        let a = vec![10, 0, 0];
        let b = vec![0, 0, 10];
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-6);
        assert_eq!(total_variation(&a, &a), 0.0);
        let c = vec![5, 3, 2];
        assert!((total_variation(&a, &c) - total_variation(&c, &a)).abs() < 1e-6);
        assert_eq!(total_variation(&[0, 0], &[1, 1]), 0.0);
    }

    fn build(beta_or_iid: Heterogeneity, seed: u64) -> FederatedDataset {
        let mut rng = SeededRng::new(seed);
        FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: 20,
                samples_per_client: 40,
                test_samples: 40,
                ..Default::default()
            },
            beta_or_iid,
            &mut rng,
        )
    }

    #[test]
    fn report_detects_dirichlet_skew() {
        let iid = HeterogeneityReport::from_dataset(&build(Heterogeneity::Iid, 1));
        let skewed =
            HeterogeneityReport::from_dataset(&build(Heterogeneity::Dirichlet(0.1), 1));
        assert!(
            skewed.mean_divergence > iid.mean_divergence + 0.1,
            "divergence {} vs {}",
            skewed.mean_divergence,
            iid.mean_divergence
        );
        assert!(skewed.mean_client_entropy < iid.mean_client_entropy);
        assert!(skewed.mean_classes_per_client < iid.mean_classes_per_client);
        assert!(skewed.heterogeneity_ratio() > iid.heterogeneity_ratio());
    }

    #[test]
    fn iid_report_is_nearly_homogeneous() {
        let report = HeterogeneityReport::from_dataset(&build(Heterogeneity::Iid, 2));
        assert!(report.heterogeneity_ratio() < 0.15, "{report:?}");
        assert!(report.max_divergence < 0.5);
        let (min_size, max_size) = report.client_size_range;
        assert!(max_size - min_size <= 1);
    }

    #[test]
    fn global_entropy_close_to_log_classes_for_balanced_generation() {
        let report = HeterogeneityReport::from_dataset(&build(Heterogeneity::Dirichlet(0.5), 3));
        assert!((report.global_entropy - (10f32).ln()).abs() < 0.15);
    }
}
