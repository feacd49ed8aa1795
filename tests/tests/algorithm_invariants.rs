//! Cross-crate property-based tests of the FedCross algorithmic invariants:
//! the convergence-analysis identities of Section III-C exercised on real
//! model parameter vectors, and the dataset/partition contracts the
//! algorithms rely on.

use fedcross::aggregation::{cross_aggregate_all_into, cross_aggregate_into, global_model_into};
use fedcross::selection::SelectionStrategy;
use fedcross_data::partition::{class_count_matrix, dirichlet_partition, iid_partition};
use fedcross_nn::models::mlp;
use fedcross_nn::params::squared_distance;
use fedcross_tensor::SeededRng;
use proptest::prelude::*;

fn random_models(k: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..k)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
        .collect()
}

/// `cross_aggregate_all_into` on freshly allocated output buffers.
fn fuse_all(models: &[Vec<f32>], collaborators: &[usize], alpha: f32) -> Vec<Vec<f32>> {
    let mut fused = vec![vec![0f32; models[0].len()]; models.len()];
    {
        let mut targets: Vec<&mut [f32]> = fused.iter_mut().map(|m| m.as_mut_slice()).collect();
        cross_aggregate_all_into(&mut targets, models, collaborators, alpha);
    }
    fused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equation 2: with the in-order strategy every model is selected as a
    /// collaborator exactly once per round, so the parameter sum is invariant.
    #[test]
    fn in_order_cross_aggregation_preserves_parameter_sum(
        k in 2usize..8,
        dim in 1usize..32,
        round in 0usize..20,
        alpha in 0.5f32..0.999,
        seed in 0u64..500,
    ) {
        let models = random_models(k, dim, seed);
        let collaborators = SelectionStrategy::InOrder.select_all(round, &models);
        let fused = fuse_all(&models, &collaborators, alpha);
        for d in 0..dim {
            let before: f32 = models.iter().map(|m| m[d]).sum();
            let after: f32 = fused.iter().map(|m| m[d]).sum();
            prop_assert!((before - after).abs() < 1e-3 * (1.0 + before.abs()));
        }
    }

    /// Lemma 3.4: under the in-order strategy (every model is a collaborator
    /// exactly once, i.e. the assignment is a permutation) cross-aggregation
    /// cannot increase the mean squared distance of the model set to any
    /// reference point.
    #[test]
    fn in_order_cross_aggregation_never_increases_mean_distance_to_any_point(
        k in 2usize..6,
        dim in 1usize..24,
        alpha in 0.5f32..0.999,
        round in 0usize..10,
        seed in 0u64..500,
    ) {
        let models = random_models(k, dim, seed);
        let reference = random_models(1, dim, seed.wrapping_add(1)).remove(0);
        let collaborators = SelectionStrategy::InOrder.select_all(round, &models);
        let fused = fuse_all(&models, &collaborators, alpha);
        let before: f32 = models.iter().map(|m| squared_distance(m, &reference)).sum();
        let after: f32 = fused.iter().map(|m| squared_distance(m, &reference)).sum();
        prop_assert!(after <= before + 1e-2 * (1.0 + before));
    }

    /// For every strategy (permutation or not), each fused model is a convex
    /// combination of two uploaded models, so its distance to any reference
    /// point is bounded by the worse of the two endpoints.
    #[test]
    fn fused_models_never_leave_the_segment_endpoints(
        k in 2usize..6,
        dim in 1usize..24,
        alpha in 0.5f32..0.999,
        seed in 0u64..500,
    ) {
        let models = random_models(k, dim, seed);
        let reference = random_models(1, dim, seed.wrapping_add(1)).remove(0);
        for strategy in [
            SelectionStrategy::InOrder,
            SelectionStrategy::HighestSimilarity,
            SelectionStrategy::LowestSimilarity,
        ] {
            let collaborators = strategy.select_all(0, &models);
            let fused = fuse_all(&models, &collaborators, alpha);
            for (i, (w, &co)) in fused.iter().zip(&collaborators).enumerate() {
                let bound = squared_distance(&models[i], &reference)
                    .max(squared_distance(&models[co], &reference));
                prop_assert!(
                    squared_distance(w, &reference) <= bound + 1e-3 * (1.0 + bound),
                    "{strategy}: fused model {i} escaped its segment"
                );
            }
        }
    }

    /// The deployable global model is always inside the convex hull of the
    /// middleware models (coordinate-wise between min and max).
    #[test]
    fn global_model_stays_in_the_convex_hull(
        k in 2usize..8,
        dim in 1usize..16,
        seed in 0u64..500,
    ) {
        let models = random_models(k, dim, seed);
        let mut global = vec![0f32; dim];
        global_model_into(&mut global, &models);
        for d in 0..dim {
            let lo = models.iter().map(|m| m[d]).fold(f32::INFINITY, f32::min);
            let hi = models.iter().map(|m| m[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(global[d] >= lo - 1e-5 && global[d] <= hi + 1e-5);
        }
    }

    /// CrossAggr of two identical vectors is the vector itself, regardless of α.
    #[test]
    fn cross_aggregation_of_identical_models_is_identity(
        dim in 1usize..64,
        alpha in 0.5f32..0.999,
        seed in 0u64..500,
    ) {
        let model = random_models(1, dim, seed).remove(0);
        let mut fused = vec![0f32; dim];
        cross_aggregate_into(&mut fused, &model, &model, alpha);
        for (a, b) in fused.iter().zip(&model) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Dirichlet partitioning assigns every sample to exactly one client for
    /// any β, and the class-count matrix accounts for every sample.
    #[test]
    fn dirichlet_partition_is_a_partition(
        clients in 1usize..20,
        per_class in 1usize..20,
        beta in 0.05f32..5.0,
        seed in 0u64..500,
    ) {
        let classes = 6usize;
        let labels: Vec<usize> = (0..per_class * classes).map(|i| i % classes).collect();
        let mut rng = SeededRng::new(seed);
        let shards = dirichlet_partition(&labels, classes, clients, beta, &mut rng);
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..labels.len()).collect::<Vec<_>>());
        let counts = class_count_matrix(&labels, &shards, classes);
        let total: usize = counts.iter().flatten().sum();
        prop_assert_eq!(total, labels.len());
    }

    /// IID partitioning balances shard sizes to within one sample.
    #[test]
    fn iid_partition_is_balanced(n in 1usize..300, clients in 1usize..20, seed in 0u64..200) {
        let mut rng = SeededRng::new(seed);
        let shards = iid_partition(n, clients, &mut rng);
        let min = shards.iter().map(Vec::len).min().unwrap();
        let max = shards.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Model parameter vectors survive a set/get round trip bit-exactly —
    /// the property the whole dispatch/upload cycle depends on.
    #[test]
    fn model_params_roundtrip(seed in 0u64..100, scale in 0.1f32..3.0) {
        let mut rng = SeededRng::new(seed);
        let template = mlp(6, &[8, 4], 3, &mut rng);
        let mut modified: Vec<f32> = template.params_flat();
        for p in modified.iter_mut() {
            *p *= scale;
        }
        let mut clone = template.clone_model();
        clone.set_params_flat(&modified);
        prop_assert_eq!(clone.params_flat(), modified);
    }
}

#[test]
fn selection_strategies_agree_on_two_models_but_not_generally() {
    let models = vec![
        vec![1.0, 0.0, 0.0],
        vec![0.95, 0.05, 0.0],
        vec![0.0, 0.0, 1.0],
    ];
    let highest = SelectionStrategy::HighestSimilarity.select_all(0, &models);
    let lowest = SelectionStrategy::LowestSimilarity.select_all(0, &models);
    assert_ne!(highest, lowest);
    // Model 0's closest peer is 1, its most distant is 2.
    assert_eq!(highest[0], 1);
    assert_eq!(lowest[0], 2);
}
