//! The correctness oracle: an independent exact top-k the served rankings
//! are compared against, and the judgement of one served list.
//!
//! Nothing here goes through `ham-serve`: scores come from
//! `HamModel::score_all` / `score_batch`; masking is a hash set and ordering
//! a comparison sort on (score descending, id ascending).

use crate::inputs::K;
use ham_core::HamModel;
use ham_data::dataset::ItemId;
use ham_serve::{RecommendRequest, ScoredItem};
use std::collections::HashSet;

/// Ranks one score row: unseen items by score descending, ties to the lower
/// id, top `k`. (Partition around the k-th, then sort the head: the same
/// order a full sort gives, without sorting a 120k-item tail per request.)
pub fn rank_scores(scores: &[f32], history: &[ItemId], k: usize) -> Vec<ItemId> {
    let seen: HashSet<ItemId> = history.iter().copied().collect();
    let mut items: Vec<ItemId> = (0..scores.len()).filter(|item| !seen.contains(item)).collect();
    let best_first = |a: &ItemId, b: &ItemId| scores[*b].total_cmp(&scores[*a]).then(a.cmp(b));
    if items.len() > k {
        items.select_nth_unstable_by(k, best_first);
        items.truncate(k);
    }
    items.sort_unstable_by(best_first);
    items
}

/// Exact top-k for one request from the model's per-user scoring path — the
/// reference for everything served through the solo (GEMV) path. (The batch
/// workload ranks rows of `HamModel::score_batch` instead: the two paths
/// agree only to ~1e-5 in score, so near ties may order differently between
/// them, and each is checked against its own.)
pub fn exact_top_k(model: &HamModel, request: &RecommendRequest) -> Vec<ItemId> {
    rank_scores(&model.score_all(request.user, &request.history), &request.history, request.k)
}

/// Running judgement of served lists against reference lists.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Agreement {
    /// Lists compared.
    pub checked: usize,
    /// Lists whose ids or order differ from the reference.
    pub mismatched: usize,
    recall_sum: f64,
    ndcg_sum: f64,
}

impl Agreement {
    /// Compares one served list with its reference list.
    pub fn judge(&mut self, served: &[ItemId], reference: &[ItemId]) {
        let truth: HashSet<ItemId> = reference.iter().copied().collect();
        self.checked += 1;
        self.mismatched += usize::from(served != reference);
        self.recall_sum += ham_eval::recall_at_k(served, &truth, K);
        self.ndcg_sum += ham_eval::ndcg_at_k(served, &truth, K);
    }

    /// Mean Recall@10 of the served lists, the reference lists as truth.
    pub fn recall_at_10(&self) -> f64 {
        self.recall_sum / self.checked.max(1) as f64
    }

    /// Mean NDCG@10 of the served lists, the reference lists as truth.
    pub fn ndcg_at_10(&self) -> f64 {
        self.ndcg_sum / self.checked.max(1) as f64
    }
}

/// The item ids of a served ranking, best first.
pub fn served_ids(items: &[ScoredItem]) -> Vec<ItemId> {
    items.iter().map(|scored| scored.item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::request_stream;
    use ham_core::{HamConfig, HamVariant};
    use ham_serve::ServingModel;
    use std::sync::Arc;

    #[test]
    fn rank_scores_masks_history_and_breaks_ties_by_id() {
        let scores = [0.5, 0.9, 0.9, 0.1, 0.7];
        assert_eq!(rank_scores(&scores, &[], 3), vec![1, 2, 4]);
        assert_eq!(rank_scores(&scores, &[1], 3), vec![2, 4, 0]);
        assert_eq!(rank_scores(&scores, &[0, 1, 2, 4], 3), vec![3]);
    }

    #[test]
    fn oracle_agrees_with_serving_model_on_a_500_item_model() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 2);
        let model = Arc::new(HamModel::new(40, 500, config, 9));
        let serving = ServingModel::from_scorer("oracle-test", Arc::clone(&model), 4).unwrap();
        let requests = request_stream(21, 40, 500, 40);

        let mut solo = Agreement::default();
        for request in &requests {
            solo.judge(&served_ids(&serving.recommend(request)), &exact_top_k(&model, request));
        }
        assert_eq!((solo.checked, solo.mismatched), (40, 0));
        assert_eq!((solo.recall_at_10(), solo.ndcg_at_10()), (1.0, 1.0));

        let mut batch = Agreement::default();
        let users: Vec<usize> = requests.iter().map(|r| r.user).collect();
        let histories: Vec<&[ItemId]> = requests.iter().map(|r| r.history.as_slice()).collect();
        let scores = model.score_batch(&users, &histories);
        for (row, list) in serving.recommend_batch(&requests, None).iter().enumerate() {
            batch.judge(&served_ids(list), &rank_scores(scores.row(row), &requests[row].history, K));
        }
        assert_eq!((batch.checked, batch.mismatched), (40, 0));
    }

    #[test]
    fn agreement_counts_a_swapped_pair_as_a_mismatch_with_full_recall() {
        let mut agreement = Agreement::default();
        agreement.judge(&[2, 1, 3], &[1, 2, 3]);
        assert_eq!((agreement.checked, agreement.mismatched), (1, 1));
        assert_eq!(agreement.recall_at_10(), 1.0);
        assert!(agreement.ndcg_at_10() > 0.99);
    }
}
