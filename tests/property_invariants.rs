//! Property-based integration tests of cross-crate invariants: metric bounds,
//! ranking consistency, split reconstruction, pooling algebra and the synergy
//! closed form, on randomly generated inputs.

use ham::core::synergy::{apply_latent_cross, synergy_vector};
use ham::core::{HamConfig, HamModel, HamVariant, Scorer};
use ham::data::split::{split_sequence, EvalSetting};
use ham::eval::metrics::{ndcg_at_k, recall_at_k};
use ham_tensor::ops::top_k_indices;
use ham_tensor::pool::{max_pool_rows, mean_pool_rows};
use ham_tensor::Matrix;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recall and NDCG are always in [0, 1] and NDCG never exceeds recall's
    /// indicator structure (both zero together).
    #[test]
    fn metrics_are_bounded(
        recommended in proptest::collection::vec(0usize..100, 0..30),
        truth in proptest::collection::hash_set(0usize..100, 0..10),
        k in 1usize..20,
    ) {
        let truth: HashSet<usize> = truth.into_iter().collect();
        let recall = recall_at_k(&recommended, &truth, k);
        let ndcg = ndcg_at_k(&recommended, &truth, k);
        prop_assert!((0.0..=1.0).contains(&recall));
        prop_assert!((0.0..=1.0).contains(&ndcg));
        prop_assert_eq!(recall == 0.0, ndcg == 0.0);
    }

    /// top_k returns unique indices sorted by descending score.
    #[test]
    fn top_k_is_sorted_and_unique(scores in proptest::collection::vec(-100.0f32..100.0, 0..200), k in 0usize..50) {
        let top = top_k_indices(&scores, k);
        prop_assert_eq!(top.len(), k.min(scores.len()));
        for pair in top.windows(2) {
            prop_assert!(scores[pair[0]] >= scores[pair[1]]);
        }
        let unique: HashSet<usize> = top.iter().copied().collect();
        prop_assert_eq!(unique.len(), top.len());
        // every returned score is >= every excluded score
        if let Some(&last) = top.last() {
            let excluded_max = scores
                .iter()
                .enumerate()
                .filter(|(i, _)| !unique.contains(i))
                .map(|(_, &s)| s)
                .fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(scores[last] >= excluded_max);
        }
    }

    /// Every split setting reconstructs a prefix-preserving partition of the
    /// original sequence.
    #[test]
    fn splits_partition_the_sequence(len in 0usize..200) {
        let seq: Vec<usize> = (0..len).collect();
        for setting in EvalSetting::all() {
            let (train, val, test) = split_sequence(&seq, setting);
            let mut joined = train.clone();
            joined.extend(val);
            joined.extend(test);
            prop_assert!(joined.len() <= seq.len());
            prop_assert_eq!(&joined[..], &seq[..joined.len()]);
        }
    }

    /// Mean pooling is bounded by max pooling element-wise, and both are
    /// permutation-invariant over the window rows.
    #[test]
    fn pooling_algebra(values in proptest::collection::vec(-10.0f32..10.0, 4..40)) {
        let cols = 4usize;
        let rows = values.len() / cols;
        let values = &values[..rows * cols];
        let m = Matrix::from_vec(rows, cols, values.to_vec());
        let mean = mean_pool_rows(&m);
        let (max, _) = max_pool_rows(&m);
        for c in 0..cols {
            prop_assert!(mean[c] <= max[c] + 1e-5);
        }
        // permute rows: pooling results must not change
        let mut permuted_rows: Vec<&[f32]> = (0..rows).map(|r| m.row(r)).collect();
        permuted_rows.reverse();
        let permuted = Matrix::from_rows(&permuted_rows);
        let mean_p = mean_pool_rows(&permuted);
        for c in 0..cols {
            prop_assert!((mean[c] - mean_p[c]).abs() < 1e-4);
        }
        prop_assert_eq!(max, max_pool_rows(&permuted).0);
    }

    /// The order-2 synergy closed form matches the literal double sum of
    /// Eq. 2–4 on random windows.
    #[test]
    fn synergy_closed_form_matches_double_sum(values in proptest::collection::vec(-2.0f32..2.0, 6..30)) {
        let cols = 3usize;
        let rows = values.len() / cols;
        let values = &values[..rows * cols];
        let m = Matrix::from_vec(rows, cols, values.to_vec());
        let fast = synergy_vector(&m, 2);
        // literal Eq. 2-4: mean_j sum_{k != j} v_j ∘ v_k
        let mut expected = vec![0.0f32; cols];
        for j in 0..rows {
            for k in 0..rows {
                if j == k { continue; }
                for (c, e) in expected.iter_mut().enumerate() {
                    *e += m.get(j, c) * m.get(k, c);
                }
            }
        }
        expected.iter_mut().for_each(|v| *v /= rows as f32);
        for c in 0..cols {
            prop_assert!((fast[c] - expected[c]).abs() < 1e-3, "col {}: {} vs {}", c, fast[c], expected[c]);
        }
        // latent cross with zero synergies is the identity
        let h = vec![1.0f32; cols];
        prop_assert_eq!(apply_latent_cross(&h, &[]), h.clone());
    }

    /// The model's scoring decomposition r = q·w holds for random untrained
    /// models: score_items always agrees with score_all on any candidate set.
    #[test]
    fn model_scoring_is_consistent(seed in 0u64..1000, history in proptest::collection::vec(0usize..30, 1..12)) {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(6, 4, 2, 2, 2);
        let model = HamModel::new(3, 30, config, seed);
        let all = model.score_all(1, &history);
        let candidates: Vec<usize> = (0..30).step_by(3).collect();
        let subset = model.score_items(1, &history, &candidates);
        for (i, &item) in candidates.iter().enumerate() {
            prop_assert!((all[item] - subset[i]).abs() < 1e-5);
        }
        let top = model.recommend_top_k(1, &history, 10, false);
        prop_assert_eq!(top.len(), 10);
        for pair in top.windows(2) {
            prop_assert!(all[pair[0]] >= all[pair[1]]);
        }
    }
}
