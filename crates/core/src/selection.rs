//! Collaborative model selection (`CoModelSel`, Section III-B1).
//!
//! For every uploaded middleware model the cloud server picks one *other*
//! uploaded model to fuse with. The paper defines three strategies serving
//! three criteria:
//!
//! * [`SelectionStrategy::InOrder`] — adequacy-and-diversity of
//!   participation: a rotating schedule in which every model collaborates
//!   with every other model once per `K-1` rounds,
//! * [`SelectionStrategy::HighestSimilarity`] — gradient-divergence
//!   minimisation: fuse with the most similar model (shown in the paper's
//!   Table III to be the *worst* choice, because it clusters the middleware
//!   models into diverging groups),
//! * [`SelectionStrategy::LowestSimilarity`] — knowledge maximisation: fuse
//!   with the least similar model (the paper's recommended default).
//!
//! The paper measures similarity with cosine similarity over the flat
//! parameter vectors and explicitly leaves other measures (e.g. Euclidean
//! distance) as future work; this module implements both behind
//! [`SimilarityMeasure`] so that extension can be evaluated (see the
//! `ablation_similarity_measure` harness binary).

use fedcross_nn::params::{cosine, euclidean};
use fedcross_tensor::stats::{cosine_from_parts, pairwise_matrix, Pairwise};
use serde::{Deserialize, Serialize};

/// How the similarity between two uploaded models is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimilarityMeasure {
    /// Cosine similarity of the flat parameter vectors (the paper's choice).
    #[default]
    Cosine,
    /// Negated Euclidean distance (closer models are "more similar") — the
    /// alternative measure the paper lists as future work.
    Euclidean,
}

impl SimilarityMeasure {
    /// Similarity score between two parameter vectors; larger means more
    /// similar under either measure.
    pub fn similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            SimilarityMeasure::Cosine => cosine(a, b),
            SimilarityMeasure::Euclidean => -euclidean(a, b),
        }
    }

    /// Short label used in ablation tables.
    pub fn label(&self) -> &'static str {
        match self {
            SimilarityMeasure::Cosine => "cosine",
            SimilarityMeasure::Euclidean => "euclidean",
        }
    }

    /// The pairwise reduction this measure is computed from.
    fn pairwise(self) -> Pairwise {
        match self {
            SimilarityMeasure::Cosine => Pairwise::Dot,
            SimilarityMeasure::Euclidean => Pairwise::SquaredDistance,
        }
    }

    /// The similarity of models `i` and `j` read from this measure's `K × K`
    /// [`pairwise_matrix`]; bitwise equal to
    /// [`SimilarityMeasure::similarity`] on the two models.
    fn pair_similarity(self, matrix: &[f64], k: usize, i: usize, j: usize) -> f32 {
        let at = |r: usize, c: usize| matrix[r * k + c];
        match self {
            SimilarityMeasure::Cosine => cosine_from_parts(at(i, j), at(i, i), at(j, j)),
            SimilarityMeasure::Euclidean => -(at(i, j).sqrt() as f32),
        }
    }
}

/// The collaborative-model selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Rotating in-order selection: model `i` collaborates with model
    /// `(i + (r % (K-1)) + 1) % K` in round `r`.
    InOrder,
    /// Select the uploaded model with the highest cosine similarity.
    HighestSimilarity,
    /// Select the uploaded model with the lowest cosine similarity
    /// (recommended by the paper).
    LowestSimilarity,
}

impl std::fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SelectionStrategy::InOrder => "in-order",
            SelectionStrategy::HighestSimilarity => "highest-similarity",
            SelectionStrategy::LowestSimilarity => "lowest-similarity",
        };
        write!(f, "{s}")
    }
}

impl SelectionStrategy {
    /// Chooses the collaborative model index for uploaded model `i` among
    /// `models` in training round `round`.
    ///
    /// The returned index is always different from `i`.
    ///
    /// # Panics
    /// Panics if fewer than two models are provided or `i` is out of range.
    pub fn select<V: AsRef<[f32]>>(&self, round: usize, i: usize, models: &[V]) -> usize {
        self.select_with(round, i, models, SimilarityMeasure::Cosine)
    }

    /// Like [`SelectionStrategy::select`] but with an explicit similarity
    /// measure (the paper's future-work extension).
    ///
    /// Compares model `i` with every other model, one pair at a time. This
    /// is the reference that [`SelectionStrategy::select_all_with`] is
    /// tested against.
    pub fn select_with<V: AsRef<[f32]>>(
        &self,
        round: usize,
        i: usize,
        models: &[V],
        measure: SimilarityMeasure,
    ) -> usize {
        self.pick(round, i, models.len(), |j| {
            measure.similarity(models[i].as_ref(), models[j].as_ref())
        })
    }

    /// Selects the collaborative model for every uploaded model at once.
    pub fn select_all<V: AsRef<[f32]> + Sync>(&self, round: usize, models: &[V]) -> Vec<usize> {
        self.select_all_with(round, models, SimilarityMeasure::Cosine)
    }

    /// Like [`SelectionStrategy::select_all`] with an explicit measure.
    ///
    /// The similarity strategies need every pair of the `K` models
    /// (`O(K²·d)`, the server's only quadratic step). They read all pairs
    /// from one [`pairwise_matrix`] pass, which computes each unordered pair
    /// once and reads every model from memory once per worker: the dot
    /// products and squared norms under cosine, the squared distances under
    /// Euclidean. Every similarity is bitwise equal to the per-pair one, and
    /// the candidates are compared in the same order with the same
    /// non-finite fallback, so each choice equals
    /// [`SelectionStrategy::select_with`]'s and training trajectories are
    /// unchanged.
    pub fn select_all_with<V: AsRef<[f32]> + Sync>(
        &self,
        round: usize,
        models: &[V],
        measure: SimilarityMeasure,
    ) -> Vec<usize> {
        let k = models.len();
        let matrix = match self {
            SelectionStrategy::InOrder => None,
            _ => Some(pairwise_matrix(models, measure.pairwise())),
        };
        // The in-order schedule never reads a similarity.
        let matrix = matrix.as_deref().unwrap_or_default();
        (0..k)
            .map(|i| self.pick(round, i, k, |j| measure.pair_similarity(matrix, k, i, j)))
            // alloc: bounded — cohort-sized selection scratch, once per round
            .collect()
    }

    /// The collaborator of model `i` among `k`, with `similarity(j)` the
    /// similarity of models `i` and `j`.
    fn pick(&self, round: usize, i: usize, k: usize, similarity: impl Fn(usize) -> f32) -> usize {
        assert!(k >= 2, "collaborative selection needs at least two models");
        assert!(i < k, "model index {i} out of range for {k} models");
        let highest = match self {
            // The paper's schedule: offset cycles through 1..K-1 so that in
            // every window of K-1 rounds each model meets every other model.
            SelectionStrategy::InOrder => return (i + round % (k - 1) + 1) % k,
            SelectionStrategy::HighestSimilarity => true,
            SelectionStrategy::LowestSimilarity => false,
        };
        let mut best_idx = usize::MAX;
        let mut best_sim = if highest { f32::NEG_INFINITY } else { f32::INFINITY };
        for j in (0..k).filter(|&j| j != i) {
            let sim = similarity(j);
            let better = if highest { sim > best_sim } else { sim < best_sim };
            if better {
                best_sim = sim;
                best_idx = j;
            }
        }
        if best_idx == usize::MAX {
            // Every candidate similarity was non-finite (possible when
            // uploaded parameters have diverged, e.g. under heavy privacy
            // noise); fall back to the in-order neighbour so aggregation can
            // proceed instead of panicking downstream.
            best_idx = (i + 1) % k;
        }
        best_idx
    }
}

/// Mean pairwise cosine similarity between distinct uploaded models — a
/// scalar view of how unified the middleware models currently are.
pub fn mean_pairwise_similarity<V: AsRef<[f32]> + Sync>(models: &[V]) -> f32 {
    let k = models.len();
    if k < 2 {
        return 1.0;
    }
    let dots = pairwise_matrix(models, Pairwise::Dot);
    let mut total = 0f32;
    let mut count = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            total += SimilarityMeasure::Cosine.pair_similarity(&dots, k, i, j);
            count += 1;
        }
    }
    total / count as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcross_tensor::SeededRng;

    fn toy_models() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0, 0.0],  // 0
            vec![0.9, 0.1, 0.0],  // 1: very similar to 0
            vec![0.0, 1.0, 0.0],  // 2: orthogonal to 0
            vec![-1.0, 0.0, 0.0], // 3: opposite of 0
        ]
    }

    #[test]
    fn in_order_matches_paper_formula() {
        let models = vec![vec![0.0]; 5];
        let k = models.len();
        for round in 0..10 {
            for i in 0..k {
                let expected = (i + (round % (k - 1)) + 1) % k;
                assert_eq!(
                    SelectionStrategy::InOrder.select(round, i, &models),
                    expected
                );
            }
        }
    }

    #[test]
    fn in_order_never_selects_self_and_cycles_through_everyone() {
        let models = vec![vec![0.0]; 6];
        let k = models.len();
        for i in 0..k {
            let mut partners = std::collections::HashSet::new();
            for round in 0..(k - 1) {
                let j = SelectionStrategy::InOrder.select(round, i, &models);
                assert_ne!(j, i);
                partners.insert(j);
            }
            // Within K-1 rounds, model i collaborates with all other models once.
            assert_eq!(partners.len(), k - 1);
        }
    }

    #[test]
    fn in_order_covers_every_model_as_a_collaborator_each_round() {
        // "With this strategy, all the uploaded models are chosen as
        // collaborative models in each round."
        let models = vec![vec![0.0]; 7];
        for round in 0..6 {
            let chosen = SelectionStrategy::InOrder.select_all(round, &models);
            let mut sorted = chosen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), models.len(), "round {round}: {chosen:?}");
        }
    }

    #[test]
    fn highest_similarity_picks_the_closest_model() {
        let models = toy_models();
        let j = SelectionStrategy::HighestSimilarity.select(0, 0, &models);
        assert_eq!(j, 1);
    }

    #[test]
    fn lowest_similarity_picks_the_most_distant_model() {
        let models = toy_models();
        let j = SelectionStrategy::LowestSimilarity.select(0, 0, &models);
        assert_eq!(j, 3);
    }

    #[test]
    fn similarity_strategies_never_select_self() {
        let models = toy_models();
        for strategy in [
            SelectionStrategy::HighestSimilarity,
            SelectionStrategy::LowestSimilarity,
        ] {
            for i in 0..models.len() {
                assert_ne!(strategy.select(3, i, &models), i);
            }
        }
    }

    #[test]
    fn two_models_always_select_each_other() {
        let models = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        for strategy in [
            SelectionStrategy::InOrder,
            SelectionStrategy::HighestSimilarity,
            SelectionStrategy::LowestSimilarity,
        ] {
            assert_eq!(strategy.select(0, 0, &models), 1);
            assert_eq!(strategy.select(0, 1, &models), 0);
        }
    }

    #[test]
    #[should_panic]
    fn selection_requires_at_least_two_models() {
        let models = vec![vec![1.0]];
        SelectionStrategy::InOrder.select(0, 0, &models);
    }

    #[test]
    fn mean_pairwise_similarity_of_identical_models_is_one() {
        let models = vec![vec![1.0, 2.0]; 4];
        assert!((mean_pairwise_similarity(&models) - 1.0).abs() < 1e-6);
        assert_eq!(mean_pairwise_similarity(&models[..1]), 1.0);
    }

    #[test]
    fn euclidean_measure_prefers_geometrically_closer_models() {
        // Model 1 points in almost the same direction as 0 but is far away;
        // model 2 is nearly orthogonal but close in Euclidean distance.
        let models = vec![
            vec![1.0, 0.0],
            vec![10.0, 0.5],
            vec![0.6, 0.9],
        ];
        let cosine_pick =
            SelectionStrategy::HighestSimilarity.select_with(0, 0, &models, SimilarityMeasure::Cosine);
        let euclid_pick = SelectionStrategy::HighestSimilarity.select_with(
            0,
            0,
            &models,
            SimilarityMeasure::Euclidean,
        );
        assert_eq!(cosine_pick, 1, "cosine should pick the co-directional model");
        assert_eq!(euclid_pick, 2, "euclidean should pick the nearby model");
    }

    #[test]
    fn similarity_measure_labels_and_scores() {
        assert_eq!(SimilarityMeasure::Cosine.label(), "cosine");
        assert_eq!(SimilarityMeasure::Euclidean.label(), "euclidean");
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!(SimilarityMeasure::Cosine.similarity(&a, &a) > SimilarityMeasure::Cosine.similarity(&a, &b));
        assert!(
            SimilarityMeasure::Euclidean.similarity(&a, &a)
                > SimilarityMeasure::Euclidean.similarity(&a, &b)
        );
        assert_eq!(SimilarityMeasure::default(), SimilarityMeasure::Cosine);
    }

    #[test]
    fn in_order_ignores_the_similarity_measure() {
        let models = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]];
        for i in 0..3 {
            assert_eq!(
                SelectionStrategy::InOrder.select_with(2, i, &models, SimilarityMeasure::Cosine),
                SelectionStrategy::InOrder.select_with(2, i, &models, SimilarityMeasure::Euclidean)
            );
        }
    }

    #[test]
    fn select_all_matches_per_pair_selection_across_shapes_and_threads() {
        // The last length per K crosses K²·d ≥ 2¹⁸, where the pairwise
        // kernel splits its tiles across rayon; 255 and 257 straddle one
        // 256-scalar block. Every partner must equal select_with's, also
        // for models with NaN and ±inf entries and for all-NaN models,
        // where every model falls back to its in-order neighbour.
        let strategies = [
            SelectionStrategy::InOrder,
            SelectionStrategy::HighestSimilarity,
            SelectionStrategy::LowestSimilarity,
        ];
        let measures = [SimilarityMeasure::Cosine, SimilarityMeasure::Euclidean];
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            for k in [2usize, 3, 7, 20] {
                let par_dim = (1 << 18) / (k * k) + 1;
                for dim in [1usize, 7, 9, 255, 257, par_dim] {
                    let mut rng = SeededRng::new((k * 1000 + dim) as u64);
                    let finite: Vec<Vec<f32>> = (0..k)
                        .map(|_| (0..dim).map(|_| rng.normal()).collect())
                        .collect();
                    let mut mixed = finite.clone();
                    mixed[1][0] = f32::NAN;
                    mixed[2 % k][dim - 1] = f32::INFINITY;
                    mixed[k - 1][dim / 2] = f32::NEG_INFINITY;
                    let all_nan = vec![vec![f32::NAN; dim]; k];
                    for (label, models) in
                        [("finite", &finite), ("mixed", &mixed), ("nan", &all_nan)]
                    {
                        for strategy in strategies {
                            for measure in measures {
                                let all = strategy.select_all_with(3, models, measure);
                                for (i, &chosen) in all.iter().enumerate() {
                                    assert_eq!(
                                        chosen,
                                        strategy.select_with(3, i, models, measure),
                                        "threads {threads}, K {k}, d {dim}, {label}, \
                                         {strategy}, {}, model {i}",
                                        measure.label()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SelectionStrategy::InOrder.to_string(), "in-order");
        assert_eq!(
            SelectionStrategy::HighestSimilarity.to_string(),
            "highest-similarity"
        );
        assert_eq!(
            SelectionStrategy::LowestSimilarity.to_string(),
            "lowest-similarity"
        );
    }

    #[test]
    fn non_finite_models_fall_back_to_the_in_order_neighbour() {
        // Diverged uploads (e.g. under heavy privacy noise) make every
        // similarity non-finite; selection must still return a valid peer.
        let models = vec![
            vec![f32::NAN, f32::NAN],
            vec![f32::NAN, 1.0],
            vec![0.5, f32::NAN],
        ];
        for strategy in [
            SelectionStrategy::LowestSimilarity,
            SelectionStrategy::HighestSimilarity,
        ] {
            for i in 0..3 {
                let co = strategy.select(0, i, &models);
                assert!(co < models.len());
                assert_ne!(co, i);
            }
        }
    }
}
