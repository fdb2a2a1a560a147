//! Scoring and ranking shared by every model, the evaluation harness, the
//! serving snapshots and the run-time benchmarks: the [`Scorer`] trait and
//! the reusable [`SeenMask`] catalogue bitmap.

use ham_data::dataset::ItemId;
use ham_tensor::ops::{top_k_indices, top_k_indices_masked};
use ham_tensor::Matrix;
use std::sync::Arc;

/// A model whose scores factor as `r = q · Wᵀ`: a per-user query vector `q`
/// against a fixed candidate matrix `W` (one row per item).
///
/// Every model in this workspace has this shape — the HAM variants (pooling
/// plus an element-wise product build the query, Eq. 5–6), generalized HAM
/// and every baseline, down to PopRec, whose query is the constant `[1.0]`
/// against an `n × 1` popularity column. A model *describes* its query and
/// its `W` (the two required methods); scoring, batching and ranking are
/// provided here once, and the serving layer (`ham-serve`) splits `W`
/// row-wise into shards and scores each with the same GEMV/GEMM kernels.
pub trait Scorer {
    /// The candidate-embedding matrix `W`, one row per catalogue item.
    fn candidates(&self) -> &Matrix;

    /// The query vector `q` for `user` given the user's chronological
    /// history; `candidates().cols()` values.
    fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32>;

    /// A new handle to `W` when the model keeps it behind an [`Arc`], so a
    /// serving snapshot shares the matrix instead of copying its rows;
    /// `None` (the default) for a model that owns `W` outright.
    fn shared_candidates(&self) -> Option<Arc<Matrix>> {
        None
    }

    /// Number of items the model can score.
    fn num_items(&self) -> usize {
        self.candidates().rows()
    }

    /// Scores every item for `user` given the user's history: one fused
    /// `W · q` GEMV.
    fn score_all(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        self.candidates().matvec_transposed(&self.query_vector(user, history))
    }

    /// Scores every item for a batch of users: the query matrix `Q` (one
    /// [`Self::query_vector`] per row), then one blocked `Q · Wᵀ` GEMM. Row
    /// `i` equals `score_all(users[i], histories[i])` within float rounding
    /// (≤ 1e-5). This is the test-time fast path behind
    /// `ham_eval::protocol::evaluate_batch` — the paper's Table 14 efficiency
    /// story made concrete.
    ///
    /// # Panics
    /// Panics if `users` and `histories` differ in length.
    fn score_batch(&self, users: &[usize], histories: &[&[ItemId]]) -> Matrix {
        assert_eq!(
            users.len(),
            histories.len(),
            "score_batch: {} users but {} histories",
            users.len(),
            histories.len()
        );
        let candidates = self.candidates();
        let mut queries = Matrix::zeros(users.len(), candidates.cols());
        for (i, (&user, history)) in users.iter().zip(histories).enumerate() {
            queries.row_mut(i).copy_from_slice(&self.query_vector(user, history));
        }
        queries.matmul_transposed(candidates)
    }

    /// Recommends the `k` highest-scoring items, optionally excluding items
    /// the user has already interacted with.
    ///
    /// Seen items are skipped during the top-k scan through a [`SeenMask`]
    /// ([`top_k_indices_masked`]) instead of being overwritten with `-inf`
    /// in the score buffer.
    fn recommend_top_k(&self, user: usize, history: &[ItemId], k: usize, exclude_seen: bool) -> Vec<ItemId> {
        let scores = self.score_all(user, history);
        if exclude_seen {
            let mut mask = SeenMask::new(scores.len());
            mask.mark(history);
            top_k_indices_masked(&scores, k, mask.bits())
        } else {
            top_k_indices(&scores, k)
        }
    }
}

/// A reusable boolean bitmap over the catalogue for masking already-seen
/// items out of a score vector.
///
/// Replaces the per-call `HashSet` the masking paths used to build: marking
/// and unmarking the seen items is O(history) with no hashing and no
/// allocation after construction, so a serving loop can reuse one mask
/// across every request.
#[derive(Debug, Clone, Default)]
pub struct SeenMask {
    seen: Vec<bool>,
}

impl SeenMask {
    /// Creates an all-clear mask for a catalogue of `num_items` items.
    pub fn new(num_items: usize) -> Self {
        Self { seen: vec![false; num_items] }
    }

    /// Catalogue size the mask was built for.
    pub fn num_items(&self) -> usize {
        self.seen.len()
    }

    /// Marks every in-catalogue item of `seen_items` as seen. Pair with
    /// [`Self::clear`] after ranking; between the two, [`Self::bits`] is the
    /// bitmap the fused mask+select kernel
    /// (`ham_tensor::ops::top_k_indices_masked`) consumes, so the score
    /// buffer itself never has to be written with `-inf` sentinels.
    pub fn mark(&mut self, seen_items: &[ItemId]) {
        for &item in seen_items {
            if item < self.seen.len() {
                self.seen[item] = true;
            }
        }
    }

    /// Clears the marks of [`Self::mark`], leaving the bitmap all-clear in
    /// O(history) instead of O(catalogue).
    pub fn clear(&mut self, seen_items: &[ItemId]) {
        for &item in seen_items {
            if item < self.seen.len() {
                self.seen[item] = false;
            }
        }
    }

    /// Grows or shrinks the mask to a new catalogue size (serving loops keep
    /// one mask across hot-swapped models); added slots start clear.
    pub fn resize(&mut self, num_items: usize) {
        self.seen.resize(num_items, false);
    }

    /// Clears every mark in O(catalogue) — the recovery path when a panic
    /// may have unwound between [`Self::mark`] and [`Self::clear`].
    pub fn reset(&mut self) {
        self.seen.fill(false);
    }

    /// The raw seen bitmap (one flag per catalogue item).
    pub fn bits(&self) -> &[bool] {
        &self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant};
    use crate::model::HamModel;

    #[test]
    fn seen_mask_ignores_out_of_catalogue_items() {
        // Histories may mention ids beyond a truncated catalogue; marking
        // must skip them (the HashSet-based masking it replaced did).
        let mut mask = SeenMask::new(3);
        mask.mark(&[1, 7, 100]);
        assert_eq!(mask.bits(), &[false, true, false]);
        let scores = [1.0f32, 2.0, 3.0];
        assert_eq!(ham_tensor::ops::top_k_indices_masked(&scores, 2, mask.bits()), vec![2, 0]);
    }

    #[test]
    fn seen_mask_marks_duplicates_and_resets() {
        let mut mask = SeenMask::new(5);
        mask.mark(&[1, 3, 3]);
        assert_eq!(mask.bits(), &[false, true, false, true, false]);
        // reusable: clearing (duplicates included) leaves the bitmap clean
        // for the next request in O(history), not O(catalogue).
        mask.clear(&[1, 3, 3]);
        mask.mark(&[0]);
        assert_eq!(mask.bits(), &[true, false, false, false, false]);
    }

    #[test]
    fn scorer_trait_batch_agrees_with_per_user_path() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let model = HamModel::new(4, 25, config, 11);
        let scorer: &dyn Scorer = &model;
        let sequences: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![7], vec![4, 9, 2, 0, 5]];
        let users = [0usize, 2, 3];
        let seq_refs: Vec<&[usize]> = sequences.iter().map(|s| s.as_slice()).collect();
        let batch = scorer.score_batch(&users, &seq_refs);
        assert_eq!(batch.shape(), (3, 25));
        for (i, (&u, s)) in users.iter().zip(&seq_refs).enumerate() {
            let single = scorer.score_all(u, s);
            for (j, (&b, &sgl)) in batch.row(i).iter().zip(&single).enumerate() {
                assert!((b - sgl).abs() < 1e-5, "user {u} item {j}: {b} vs {sgl}");
            }
        }
    }

    #[test]
    fn ham_shares_its_candidates_and_scores_through_them() {
        let config = HamConfig::for_variant(HamVariant::HamSX).with_dimensions(8, 4, 2, 2, 2);
        let model = HamModel::new(3, 15, config, 5);
        let shared = model.shared_candidates().expect("HAM shares W");
        assert!(std::ptr::eq(&*shared, model.candidate_item_embeddings()), "the handle is the model's own W");
        assert_eq!(Scorer::num_items(&model), 15);
        let seq = vec![1usize, 4, 9];
        let q = Scorer::query_vector(&model, 2, &seq);
        assert_eq!(q.len(), 8);
        // Same kernel, same query: the provided score_all is the GEMV of q.
        assert_eq!(model.candidates().matvec_transposed(&q), model.score_all(2, &seq));
    }

    #[test]
    fn seen_mask_mark_bits_clear_roundtrip() {
        let mut mask = SeenMask::new(4);
        mask.mark(&[1, 3, 99]);
        assert_eq!(mask.bits(), &[false, true, false, true]);
        mask.clear(&[1, 3, 99]);
        assert!(mask.bits().iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "users but")]
    fn mismatched_batch_lengths_panic() {
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(4, 2, 1, 1, 1);
        let model = HamModel::new(2, 10, config, 1);
        let seq: Vec<usize> = vec![1, 2];
        let _ = model.score_batch(&[0, 1], &[seq.as_slice()]);
    }
}
