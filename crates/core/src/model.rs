//! The [`HamModel`]: embedding matrices, query-vector construction, scoring
//! and top-k recommendation.

use crate::config::HamConfig;
use crate::scorer::Scorer;
use crate::synergy::{pool_window_into, WindowAssociation};
use ham_data::dataset::ItemId;
use ham_data::window::recent_window;
use ham_tensor::matrix::dot;
use ham_tensor::{Matrix, Pooling};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A (trained or untrained) Hybrid Associations Model.
///
/// The model owns three embedding matrices (the paper's `Θ = {U, V, W}`):
///
/// * `U ∈ R^{m×d}` — user general-preference embeddings,
/// * `V ∈ R^{n×d}` — *input* item embeddings (items used as history),
/// * `W ∈ R^{n×d}` — *candidate* item embeddings (items being scored),
///
/// following the heterogeneous item-embedding scheme of SASRec that the
/// paper adopts to model asymmetric item transitions.
///
/// `W` is held behind an [`Arc`] so a serving snapshot frozen from the model
/// (`ham_serve::ServingModel::from_scorer`) shares it instead of copying it.
/// Nothing mutates it in place: training replaces it whole, so a snapshot
/// keeps the table it was frozen with, and cloning a model shares it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HamModel {
    config: HamConfig,
    num_users: usize,
    num_items: usize,
    pub(crate) user_emb: Matrix,
    pub(crate) item_emb_in: Matrix,
    pub(crate) item_emb_out: Arc<Matrix>,
}

impl HamModel {
    /// Creates a model with Xavier-initialised embeddings.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `num_users` / `num_items`
    /// is zero.
    pub fn new(num_users: usize, num_items: usize, config: HamConfig, seed: u64) -> Self {
        config.validate();
        assert!(num_users > 0, "HamModel: num_users must be positive");
        assert!(num_items > 0, "HamModel: num_items must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            config,
            num_users,
            num_items,
            user_emb: Matrix::xavier_uniform(num_users, config.d, &mut rng),
            item_emb_in: Matrix::xavier_uniform(num_items, config.d, &mut rng),
            item_emb_out: Arc::new(Matrix::xavier_uniform(num_items, config.d, &mut rng)),
        }
    }

    /// Assembles a model directly from its embedding matrices (the resumable
    /// trainer's snapshot path; user/item counts are implied by the shapes).
    ///
    /// # Panics
    /// Panics if the matrices are empty, their widths differ from `config.d`,
    /// or the two item tables disagree on the item count.
    pub(crate) fn from_embeddings(
        config: HamConfig,
        user_emb: Matrix,
        item_emb_in: Matrix,
        item_emb_out: Matrix,
    ) -> Self {
        config.validate();
        let (num_users, num_items) = (user_emb.rows(), item_emb_in.rows());
        assert!(num_users > 0, "HamModel: num_users must be positive");
        assert!(num_items > 0, "HamModel: num_items must be positive");
        assert_eq!(item_emb_out.rows(), num_items, "HamModel: item tables must have the same row count");
        for table in [&user_emb, &item_emb_in, &item_emb_out] {
            assert_eq!(table.cols(), config.d, "HamModel: embedding width must equal config.d");
        }
        Self { config, num_users, num_items, user_emb, item_emb_in, item_emb_out: Arc::new(item_emb_out) }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &HamConfig {
        &self.config
    }

    /// Number of users the model was built for.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items the model can score.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Read access to the user embedding matrix `U`.
    pub fn user_embeddings(&self) -> &Matrix {
        &self.user_emb
    }

    /// Read access to the input item embedding matrix `V`.
    pub fn input_item_embeddings(&self) -> &Matrix {
        &self.item_emb_in
    }

    /// Read access to the candidate item embedding matrix `W`.
    pub fn candidate_item_embeddings(&self) -> &Matrix {
        &self.item_emb_out
    }

    /// The high-order association embedding for an explicit input window
    /// (`h` in Eq. 1, or `s` in Eq. 6 when synergies are enabled).
    ///
    /// Evaluated by the [`synergy`](crate::synergy) module's
    /// `WindowAssociation`, the statement of Eq. 5–6 the trainer's forward
    /// pass shares.
    fn association_vector(&self, window: &[ItemId]) -> Vec<f32> {
        assert!(!window.is_empty(), "association_vector: window must not be empty");
        let config = &self.config;
        let mut association = WindowAssociation::new(config.d, config.pooling, config.synergy_order);
        association.compute(&self.item_emb_in, window);
        let mut s = vec![0.0; config.d];
        association.association_into(&mut s);
        s
    }

    /// The low-order association embedding `o` for an explicit window.
    fn low_order_vector(&self, window: &[ItemId]) -> Vec<f32> {
        let mut o = vec![0.0; self.config.d];
        if !window.is_empty() {
            let mut argmax = vec![0; if self.config.pooling == Pooling::Max { self.config.d } else { 0 }];
            pool_window_into(&self.item_emb_in, window, self.config.pooling, &mut o, &mut argmax);
        }
        o
    }

    /// Builds the query vector `q` such that `r_ij = q · w_j`, i.e.
    /// `q = u_i + h/s + o` with the ablated terms omitted.
    ///
    /// `sequence` is the user's full history; the model extracts the most
    /// recent `n_h` / `n_l` items itself (short histories are front-padded by
    /// repeating the earliest item, mirroring the training-window padding).
    ///
    /// # Panics
    /// Panics if `sequence` is empty or `user >= num_users`.
    pub fn query_vector(&self, user: usize, sequence: &[ItemId]) -> Vec<f32> {
        assert!(user < self.num_users, "query_vector: user {user} out of range");
        assert!(!sequence.is_empty(), "query_vector: the user's sequence must not be empty");
        let high_window = recent_window(sequence, self.config.n_h);
        let mut q = self.association_vector(&high_window);
        if self.config.uses_low_order() {
            let low_window = recent_window(sequence, self.config.n_l);
            let o = self.low_order_vector(&low_window);
            for (qi, oi) in q.iter_mut().zip(&o) {
                *qi += oi;
            }
        }
        if self.config.use_user_term {
            for (qi, ui) in q.iter_mut().zip(self.user_emb.row(user)) {
                *qi += ui;
            }
        }
        q
    }

    // `num_items`, `query_vector`, `score_all` and `score_batch` stay
    // inherent besides the trait: callers that do not import `Scorer` (the
    // benchmark package among them) name them directly. The last two are
    // the trait's bodies.

    /// Scores every item in the catalogue for the user (Eq. 7/8): one fused
    /// `W · q` pass, [`Scorer::score_all`].
    pub fn score_all(&self, user: usize, sequence: &[ItemId]) -> Vec<f32> {
        Scorer::score_all(self, user, sequence)
    }

    /// Scores every catalogue item for a batch of users in one blocked GEMM,
    /// [`Scorer::score_batch`].
    ///
    /// # Panics
    /// Panics if `users` and `histories` differ in length, any user is out of
    /// range, or any history is empty.
    pub fn score_batch(&self, users: &[usize], histories: &[&[ItemId]]) -> Matrix {
        Scorer::score_batch(self, users, histories)
    }

    /// Scores only the given candidate items.
    pub fn score_items(&self, user: usize, sequence: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let q = self.query_vector(user, sequence);
        candidates.iter().map(|&j| dot(&q, self.item_emb_out.row(j))).collect()
    }

    /// Returns true when every embedding value is finite; used as a training
    /// sanity check.
    pub fn is_finite(&self) -> bool {
        self.user_emb.all_finite() && self.item_emb_in.all_finite() && self.item_emb_out.all_finite()
    }
}

impl Scorer for HamModel {
    fn candidates(&self) -> &Matrix {
        &self.item_emb_out
    }

    fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        HamModel::query_vector(self, user, history)
    }

    fn shared_candidates(&self) -> Option<Arc<Matrix>> {
        Some(Arc::clone(&self.item_emb_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HamVariant;

    fn model(variant: HamVariant) -> HamModel {
        let config = HamConfig::for_variant(variant).with_dimensions(
            8,
            4,
            2,
            2,
            if HamConfig::for_variant(variant).uses_synergies() { 2 } else { 1 },
        );
        HamModel::new(5, 20, config, 3)
    }

    #[test]
    fn construction_and_sizes() {
        let m = model(HamVariant::HamSM);
        assert_eq!(m.num_users(), 5);
        assert_eq!(m.num_items(), 20);
        assert_eq!(m.user_embeddings().shape(), (5, 8));
        assert!(m.is_finite());
    }

    #[test]
    fn scoring_decomposes_into_three_inner_products() {
        // r_ij computed by the model equals u·w + assoc·w + o·w computed by hand.
        let m = model(HamVariant::HamM);
        let seq: Vec<usize> = vec![1, 2, 3, 4, 5, 6];
        let user = 2;
        let item = 7;
        let scores = m.score_all(user, &seq);

        let high = recent_window(&seq, m.config().n_h);
        let low = recent_window(&seq, m.config().n_l);
        let h = m.association_vector(&high);
        let o = m.low_order_vector(&low);
        let w = m.candidate_item_embeddings().row(item);
        let expected = dot(m.user_embeddings().row(user), w) + dot(&h, w) + dot(&o, w);
        assert!((scores[item] - expected).abs() < 1e-5);
    }

    #[test]
    fn ablated_variants_drop_their_terms() {
        let full = model(HamVariant::HamSM);
        let no_user = model(HamVariant::HamSMNoUser);
        let seq = vec![0, 1, 2, 3];
        // different users give different scores only when the user term is on
        let s_full_u0 = full.score_all(0, &seq);
        let s_full_u1 = full.score_all(1, &seq);
        assert_ne!(s_full_u0, s_full_u1);
        let s_nou_u0 = no_user.score_all(0, &seq);
        let s_nou_u1 = no_user.score_all(1, &seq);
        assert_eq!(s_nou_u0, s_nou_u1);
    }

    #[test]
    fn synergy_variant_differs_from_plain_pooling() {
        let plain = model(HamVariant::HamM);
        let mut with_syn = plain.clone();
        with_syn.config.synergy_order = 2;
        let seq = vec![1, 2, 3, 4, 5];
        assert_ne!(plain.score_all(0, &seq), with_syn.score_all(0, &seq));
    }

    #[test]
    fn short_sequences_are_padded_not_rejected() {
        let m = model(HamVariant::HamSM);
        let scores = m.score_all(0, &[3]);
        assert_eq!(scores.len(), 20);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn score_items_agrees_with_score_all() {
        let m = model(HamVariant::HamSM);
        let seq = vec![1, 2, 3, 4, 5];
        let all = m.score_all(1, &seq);
        let subset = m.score_items(1, &seq, &[3, 9, 15]);
        assert!((subset[0] - all[3]).abs() < 1e-6);
        assert!((subset[2] - all[15]).abs() < 1e-6);
    }

    #[test]
    fn recommend_excludes_seen_items_when_asked() {
        let m = model(HamVariant::HamSM);
        let seq = vec![1, 2, 3, 4, 5];
        let rec = m.recommend_top_k(0, &seq, 20, true);
        for item in &seq {
            assert!(!rec[..15].contains(item), "seen item {item} recommended");
        }
        let rec_all = m.recommend_top_k(0, &seq, 5, false);
        assert_eq!(rec_all.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_user_panics() {
        let m = model(HamVariant::HamSM);
        let _ = m.score_all(99, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_sequence_panics() {
        let m = model(HamVariant::HamSM);
        let _ = m.score_all(0, &[]);
    }
}
