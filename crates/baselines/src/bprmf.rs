//! BPR matrix factorisation: a non-sequential personalised baseline
//! (`r_ij = u_i · q_j`), trained with the shared BPR harness.

use crate::common::{bpr_pairwise_loss, train_bpr, BaselineTrainConfig};
use ham_autograd::{ParamId, ParamStore};
use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`BprMf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BprMfConfig {
    /// Embedding dimension.
    pub d: usize,
    /// Sliding-window length used only to enumerate training pairs.
    pub seq_len: usize,
    /// Targets per window.
    pub targets: usize,
}

impl Default for BprMfConfig {
    fn default() -> Self {
        Self { d: 32, seq_len: 3, targets: 2 }
    }
}

/// BPR matrix factorisation model.
#[derive(Debug)]
pub struct BprMf {
    config: BprMfConfig,
    params: ParamStore,
    users: ParamId,
    items: ParamId,
}

impl BprMf {
    /// Trains the model on per-user training sequences.
    pub fn fit(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        config: &BprMfConfig,
        train_config: &BaselineTrainConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let users = params.add_embedding("U", Matrix::xavier_uniform(train_sequences.len(), config.d, &mut rng));
        let items = params.add_embedding("Q", Matrix::xavier_uniform(num_items, config.d, &mut rng));

        train_bpr(
            &mut params,
            train_sequences,
            num_items,
            config.seq_len,
            config.targets,
            train_config,
            seed,
            |store, g, inst| {
                let u = g.gather(store, users, &[inst.user]);
                bpr_pairwise_loss(g, store, items, u, inst)
            },
        );
        Self { config: *config, params, users, items }
    }

    /// The model's configuration.
    pub fn config(&self) -> &BprMfConfig {
        &self.config
    }
}

/// The user's factor row is the query; the history plays no part.
impl Scorer for BprMf {
    fn candidates(&self) -> &Matrix {
        self.params.value(self.items)
    }

    fn query_vector(&self, user: usize, _history: &[ItemId]) -> Vec<f32> {
        self.params.value(self.users).row(user).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_score_shapes() {
        let seqs: Vec<Vec<usize>> = (0..6).map(|u| (0..12).map(|t| (u + t) % 20).collect()).collect();
        let cfg = BprMfConfig { d: 8, ..Default::default() };
        let tc = BaselineTrainConfig { epochs: 1, ..Default::default() };
        let model = BprMf::fit(&seqs, 20, &cfg, &tc, 3);
        let scores = model.score_all(2, &seqs[2]);
        assert_eq!(scores.len(), 20);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(model.config().d, 8);
    }

    #[test]
    fn scores_are_personalised() {
        let seqs: Vec<Vec<usize>> = (0..6).map(|u| (0..12).map(|t| (u * 3 + t) % 20).collect()).collect();
        let cfg = BprMfConfig { d: 8, ..Default::default() };
        let tc = BaselineTrainConfig { epochs: 2, ..Default::default() };
        let model = BprMf::fit(&seqs, 20, &cfg, &tc, 3);
        assert_ne!(model.score_all(0, &[]), model.score_all(5, &[]));
    }
}
