//! Scoring and ranking utilities shared by the model, the evaluation harness
//! and the run-time benchmarks: the [`Scorer`] trait with its batched entry
//! point, the reusable [`SeenMask`] catalogue bitmap, and candidate-scoring
//! helpers.

use ham_data::dataset::ItemId;
use ham_tensor::ops::top_k_indices;
use ham_tensor::Matrix;
use std::collections::HashSet;
use std::sync::Arc;

/// A model that can score every catalogue item for a user, one user at a time
/// or in batches.
///
/// The batched entry point is what the threaded evaluation protocol
/// (`ham_eval::protocol::evaluate_batch`) calls: implementors with a
/// linear scoring head (`r = q · Wᵀ`) override it to build the query matrix
/// once and answer the whole batch with a single blocked GEMM, which is the
/// paper's Table 14 efficiency story made concrete.
pub trait Scorer {
    /// Number of items the model can score.
    fn num_items(&self) -> usize;

    /// Scores every item for `user` given the user's chronological history.
    fn score_all(&self, user: usize, sequence: &[ItemId]) -> Vec<f32>;

    /// The model's linear scoring head, when it has one.
    ///
    /// A model whose scores factor as `r = q · Wᵀ` (a per-user query vector
    /// against a fixed candidate matrix) returns `Some`; the serving layer
    /// uses the head to shard `W` row-wise and score each shard with the
    /// GEMV/GEMM kernels. Models without a linear head (none in this
    /// workspace today) keep the `None` default and cannot be sharded.
    fn linear_head(&self) -> Option<LinearHead<'_>> {
        None
    }

    /// Scores every item for a batch of users; row `i` of the result equals
    /// `score_all(users[i], sequences[i])` within float rounding (≤ 1e-5).
    ///
    /// The default falls back to one `score_all` call per user; override when
    /// a batched kernel is available.
    ///
    /// # Panics
    /// Panics if `users` and `sequences` differ in length.
    fn score_batch(&self, users: &[usize], sequences: &[&[ItemId]]) -> Matrix {
        score_batch_fallback(self.num_items(), users, sequences, |u, s| self.score_all(u, s))
    }
}

impl Scorer for crate::model::HamModel {
    fn num_items(&self) -> usize {
        crate::model::HamModel::num_items(self)
    }

    fn score_all(&self, user: usize, sequence: &[ItemId]) -> Vec<f32> {
        crate::model::HamModel::score_all(self, user, sequence)
    }

    fn score_batch(&self, users: &[usize], sequences: &[&[ItemId]]) -> Matrix {
        crate::model::HamModel::score_batch(self, users, sequences)
    }

    fn linear_head(&self) -> Option<LinearHead<'_>> {
        Some(LinearHead::shared(&self.item_emb_out, move |u, h| self.query_vector(u, h)))
    }
}

impl Scorer for crate::generalized::GeneralizedHamModel {
    fn num_items(&self) -> usize {
        crate::generalized::GeneralizedHamModel::num_items(self)
    }

    fn score_all(&self, user: usize, sequence: &[ItemId]) -> Vec<f32> {
        crate::generalized::GeneralizedHamModel::score_all(self, user, sequence)
    }

    fn score_batch(&self, users: &[usize], sequences: &[&[ItemId]]) -> Matrix {
        crate::generalized::GeneralizedHamModel::score_batch(self, users, sequences)
    }

    fn linear_head(&self) -> Option<LinearHead<'_>> {
        Some(LinearHead::shared(&self.base().item_emb_out, move |u, h| self.query_vector(u, h)))
    }
}

/// The boxed query-builder closure of a [`LinearHead`]: `(user, history)`
/// to the query vector `q`.
pub type QueryFn<'m> = Box<dyn Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'm>;

/// A linear scoring head `r = q · Wᵀ`: the per-user query builder together
/// with the candidate-embedding matrix it is scored against.
///
/// Every model in this workspace — the HAM variants and all baselines —
/// scores through such a head, which is what makes catalogue sharding
/// possible: the serving layer (`ham-serve`) splits `W` row-wise, scores
/// each shard with the same GEMV/GEMM kernels the single-node path uses
/// (per-row dot products are bit-identical either way), and merges the
/// per-shard top-k exactly.
pub struct LinearHead<'m> {
    candidates: Candidates<'m>,
    query: QueryFn<'m>,
}

/// How a [`LinearHead`] holds `W`: a plain borrow, or a borrow of the
/// model's shared handle ([`LinearHead::shared`]).
enum Candidates<'m> {
    Borrowed(&'m Matrix),
    Shared(&'m Arc<Matrix>),
}

impl<'m> LinearHead<'m> {
    /// Builds a head from the candidate matrix and a query-vector closure.
    /// The closure must return `candidates.cols()` values per call.
    pub fn new(candidates: &'m Matrix, query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'm) -> Self {
        Self { candidates: Candidates::Borrowed(candidates), query: Box::new(query) }
    }

    /// [`Self::new`] for a model that keeps `W` behind an [`Arc`]: a serving
    /// snapshot built from this head shares the matrix instead of copying it
    /// ([`Self::shared_candidates`]).
    pub fn shared(
        candidates: &'m Arc<Matrix>,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'm,
    ) -> Self {
        Self { candidates: Candidates::Shared(candidates), query: Box::new(query) }
    }

    /// The candidate-embedding matrix `W` (one row per item).
    pub fn candidates(&self) -> &'m Matrix {
        match self.candidates {
            Candidates::Borrowed(w) => w,
            Candidates::Shared(w) => w,
        }
    }

    /// A new handle to `W` when the head was built with [`Self::shared`];
    /// `None` for a head over a plain borrow, whose rows a snapshot copies.
    pub fn shared_candidates(&self) -> Option<Arc<Matrix>> {
        match self.candidates {
            Candidates::Borrowed(_) => None,
            Candidates::Shared(w) => Some(Arc::clone(w)),
        }
    }

    /// The embedding dimension `d` shared by queries and candidates.
    pub fn dim(&self) -> usize {
        self.candidates().cols()
    }

    /// Number of items the head can score.
    pub fn num_items(&self) -> usize {
        self.candidates().rows()
    }

    /// The query vector `q` for one user and history.
    pub fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        (self.query)(user, history)
    }

    /// Builds the query matrix `Q` (one query row per user) for a batch.
    ///
    /// # Panics
    /// Panics if `users` and `histories` differ in length.
    pub fn batch_queries(&self, users: &[usize], histories: &[&[ItemId]]) -> Matrix {
        assert_eq!(
            users.len(),
            histories.len(),
            "batch_queries: {} users but {} histories",
            users.len(),
            histories.len()
        );
        let mut queries = Matrix::zeros(users.len(), self.dim());
        for (i, (&user, history)) in users.iter().zip(histories).enumerate() {
            queries.row_mut(i).copy_from_slice(&self.query_vector(user, history));
        }
        queries
    }
}

/// Assembles a score matrix by calling a per-user scorer once per row (the
/// default-implementation body of [`Scorer::score_batch`]).
///
/// `ham_baselines::common::score_batch_rows` is the same shape for the
/// baselines' trait; the two crates cannot share it without a dependency
/// between them, so keep the implementations in sync.
pub fn score_batch_fallback(
    num_items: usize,
    users: &[usize],
    sequences: &[&[ItemId]],
    score_all: impl Fn(usize, &[ItemId]) -> Vec<f32>,
) -> Matrix {
    assert_eq!(users.len(), sequences.len(), "score_batch: {} users but {} sequences", users.len(), sequences.len());
    let mut out = Matrix::zeros(users.len(), num_items);
    for (i, (&user, sequence)) in users.iter().zip(sequences).enumerate() {
        let scores = score_all(user, sequence);
        assert_eq!(scores.len(), num_items, "score_all returned {} scores for {num_items} items", scores.len());
        out.row_mut(i).copy_from_slice(&scores);
    }
    out
}

/// Builds the query matrix `Q` (one `query_vector` row per user) and scores
/// the whole batch against `candidates` with one blocked `Q · Wᵀ` GEMM — the
/// shared body of the HAM models' `score_batch` implementations.
///
/// # Panics
/// Panics if `users` and `histories` differ in length.
pub fn batched_query_scores(
    users: &[usize],
    histories: &[&[ItemId]],
    d: usize,
    candidates: &Matrix,
    query_vector: impl Fn(usize, &[ItemId]) -> Vec<f32>,
) -> Matrix {
    assert_eq!(users.len(), histories.len(), "score_batch: {} users but {} histories", users.len(), histories.len());
    let mut queries = Matrix::zeros(users.len(), d);
    for (i, (&user, history)) in users.iter().zip(histories).enumerate() {
        queries.row_mut(i).copy_from_slice(&query_vector(user, history));
    }
    queries.matmul_transposed(candidates)
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

/// Ranks all items by score and returns the top `k`, optionally masking the
/// items in `exclude` (typically the user's training items, following the
/// evaluation protocol of HGN/Caser which recommend only unseen items).
pub fn rank_top_k(scores: &[f32], k: usize, exclude: Option<&HashSet<ItemId>>) -> Vec<ItemId> {
    match exclude {
        None => top_k_indices(scores, k),
        Some(excluded) => {
            let mut masked = scores.to_vec();
            for (item, score) in masked.iter_mut().enumerate() {
                if excluded.contains(&item) {
                    *score = f32::NEG_INFINITY;
                }
            }
            top_k_indices(&masked, k)
        }
    }
}

/// Scores a set of candidate items given a query vector and a candidate
/// embedding matrix (`scores[c] = q · W[candidates[c]]`).
pub fn score_candidates(query: &[f32], candidate_embeddings: &ham_tensor::Matrix, candidates: &[ItemId]) -> Vec<f32> {
    candidates.iter().map(|&item| ham_tensor::matrix::dot(query, candidate_embeddings.row(item))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant};
    use crate::model::HamModel;

    #[test]
    fn rank_without_exclusion_is_plain_top_k() {
        let scores = [0.1, 0.9, 0.5];
        assert_eq!(rank_top_k(&scores, 2, None), vec![1, 2]);
    }

    #[test]
    fn excluded_items_never_appear() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let exclude: HashSet<usize> = [0, 1].into_iter().collect();
        assert_eq!(rank_top_k(&scores, 2, Some(&exclude)), vec![2, 3]);
    }

    #[test]
    fn excluding_everything_still_returns_k_items() {
        let scores = [0.9, 0.8];
        let exclude: HashSet<usize> = [0, 1].into_iter().collect();
        // all scores are -inf but the ranking is still deterministic
        assert_eq!(rank_top_k(&scores, 1, Some(&exclude)).len(), 1);
    }

    #[test]
    fn score_candidates_matches_dot_products() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let q = [2.0, 3.0];
        assert_eq!(score_candidates(&q, &w, &[0, 2]), vec![2.0, 5.0]);
    }

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
    fn linear_head_reproduces_score_all() {
        let config = HamConfig::for_variant(HamVariant::HamSX).with_dimensions(8, 4, 2, 2, 2);
        let model = HamModel::new(3, 15, config, 5);
        let head = Scorer::linear_head(&model).expect("HAM has a linear head");
        let shared = head.shared_candidates().expect("HAM's head shares W");
        assert!(std::ptr::eq(&*shared, model.candidate_item_embeddings()), "the handle is the model's own W");
        assert_eq!(head.num_items(), 15);
        assert_eq!(head.dim(), 8);
        let seq = vec![1usize, 4, 9];
        let q = head.query_vector(2, &seq);
        // Same kernel, same query: the head path is bit-identical to score_all.
        assert_eq!(head.candidates().matvec_transposed(&q), model.score_all(2, &seq));
        let queries = head.batch_queries(&[0, 2], &[&seq, &[3usize, 3]]);
        assert_eq!(queries.shape(), (2, 8));
        assert_eq!(queries.row(0), q.as_slice().first().map(|_| head.query_vector(0, &seq)).unwrap().as_slice());
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
