//! Property-based tests for the tensor substrate.

use fedcross_tensor::linalg::transpose_into;
use fedcross_tensor::stats::{cosine_similarity, euclidean_distance};
use fedcross_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

/// `Tensor::matmul_into` on a fresh NaN-filled output.
fn mm(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::full(&[a.dims()[0] * b.dims()[1]], f32::NAN);
    a.matmul_into(b, &mut out);
    out
}

/// `transpose_into` of a rank-2 tensor into a fresh NaN-filled one.
fn transposed(a: &Tensor) -> Tensor {
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = Tensor::full(&[n, m], f32::NAN);
    transpose_into(a.data(), m, n, out.data_mut());
    out
}

fn small_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flatten_roundtrip_preserves_data(data in small_vec(64)) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let r = t.reshape(&[n, 1]).reshape(&[1, n]).flatten();
        prop_assert_eq!(r.data(), &data[..]);
    }

    #[test]
    fn add_is_commutative(data in small_vec(64)) {
        let n = data.len();
        let a = Tensor::from_vec(data.clone(), &[n]);
        let b = Tensor::from_vec(data.iter().map(|x| x * 0.5 - 1.0).collect(), &[n]);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn sub_then_add_recovers_original(data in small_vec(64)) {
        let n = data.len();
        let a = Tensor::from_vec(data.clone(), &[n]);
        let b = Tensor::from_vec(data.iter().map(|x| x * 0.3 + 2.0).collect(), &[n]);
        let recovered = a.sub(&b).add(&b);
        for (x, y) in recovered.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn axpy_matches_scaled_add(alpha in -5.0f32..5.0, data in small_vec(32)) {
        let n = data.len();
        let a = Tensor::from_vec(data.clone(), &[n]);
        let b = Tensor::from_vec(data.iter().map(|x| x + 1.0).collect(), &[n]);
        let mut fused = a.clone();
        fused.axpy(alpha, &b);
        let reference = a.add(&b.scaled(alpha));
        for (x, y) in fused.data().iter().zip(reference.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn scale_then_unscale_is_identity(data in small_vec(32), factor in 0.1f32..10.0) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let back = t.scaled(factor).scaled(1.0 / factor);
        for (x, y) in back.data().iter().zip(t.data()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let m = 3 + (seed % 4) as usize;
        let k = 2 + (seed % 3) as usize;
        let n = 2 + (seed % 5) as usize;
        let rand_t = |rng: &mut SeededRng, r: usize, c: usize| {
            Tensor::from_vec((0..r * c).map(|_| rng.uniform_range(-2.0, 2.0)).collect(), &[r, c])
        };
        let a = rand_t(&mut rng, m, k);
        let b = rand_t(&mut rng, k, n);
        let c = rand_t(&mut rng, k, n);
        let lhs = mm(&a, &b.add(&c));
        let rhs = mm(&a, &b).add(&mm(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product_of_transposes(seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let rand_t = |rng: &mut SeededRng, r: usize, c: usize| {
            Tensor::from_vec((0..r * c).map(|_| rng.uniform_range(-1.0, 1.0)).collect(), &[r, c])
        };
        let a = rand_t(&mut rng, 4, 3);
        let b = rand_t(&mut rng, 3, 5);
        let lhs = transposed(&mm(&a, &b));
        let rhs = mm(&transposed(&b), &transposed(&a));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_similarity_bounded(a in small_vec(48), scale in -3.0f32..3.0) {
        let b: Vec<f32> = a.iter().map(|x| x * scale + 0.1).collect();
        let sim = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&sim));
    }

    #[test]
    fn cosine_similarity_symmetric(a in small_vec(48)) {
        let b: Vec<f32> = a.iter().rev().copied().collect();
        let s1 = cosine_similarity(&a, &b);
        let s2 = cosine_similarity(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-6);
    }

    #[test]
    fn euclidean_distance_triangle_inequality(a in small_vec(24)) {
        let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
        let c: Vec<f32> = a.iter().map(|x| x * 0.5).collect();
        let ab = euclidean_distance(&a, &b);
        let bc = euclidean_distance(&b, &c);
        let ac = euclidean_distance(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn softmax_rows_always_normalised(rows in 1usize..5, cols in 2usize..8, seed in 0u64..100) {
        let mut rng = SeededRng::new(seed);
        let t = Tensor::from_vec(
            (0..rows * cols).map(|_| rng.uniform_range(-10.0, 10.0)).collect(),
            &[rows, cols],
        );
        let s = t.softmax_rows();
        for r in 0..rows {
            let sum: f32 = s.row(r).data().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn dirichlet_always_a_distribution(dim in 2usize..20, beta in 0.05f32..5.0, seed in 0u64..200) {
        let mut rng = SeededRng::new(seed);
        let p = rng.dirichlet(dim, beta);
        prop_assert_eq!(p.len(), dim);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn sample_without_replacement_valid(n in 1usize..200, seed in 0u64..100) {
        let mut rng = SeededRng::new(seed);
        let k = 1 + (seed as usize % n.max(1));
        let k = k.min(n);
        let picks = rng.sample_without_replacement(n, k);
        prop_assert_eq!(picks.len(), k);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(picks.iter().all(|&p| p < n));
    }

    #[test]
    fn sparse_sample_without_replacement_valid(n in 1usize..500_000, seed in 0u64..100) {
        let mut rng = SeededRng::new(seed);
        let k = (1 + (seed as usize % 64)).min(n);
        let picks = rng.sample_without_replacement_sparse(n, k);
        prop_assert_eq!(picks.len(), k);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(picks.iter().all(|&p| p < n));
    }

    #[test]
    fn sparse_sample_matches_dense_memory_free_contract(seed in 0u64..200) {
        // The sparse sampler must stay a pure function of the RNG state:
        // two identically seeded generators produce identical cohorts.
        let n = 100_000;
        let k = 1 + (seed as usize % 32);
        let a = SeededRng::new(seed).sample_without_replacement_sparse(n, k);
        let b = SeededRng::new(seed).sample_without_replacement_sparse(n, k);
        prop_assert_eq!(a, b);
    }
}
