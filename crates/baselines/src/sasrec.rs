//! SASRec — Self-Attentive Sequential Recommendation (Kang & McAuley,
//! ICDM'18).
//!
//! A single-block causal self-attention encoder over the `n` most recent item
//! embeddings with learned position embeddings, a residual connection and a
//! point-wise feed-forward layer. The representation of the *last* position
//! scores candidates against the shared item-embedding matrix.
//!
//! Differences from the original implementation (documented per DESIGN.md §4):
//! one attention block and one head (the paper's Table A2 selects `h = 1` on
//! almost every dataset), no layer normalisation or dropout, and the BPR loss
//! of the shared harness instead of per-position binary cross-entropy.

use crate::common::{bpr_pairwise_loss, fixed_window, train_bpr, BaselineTrainConfig, TrainInstance};
use ham_autograd::{Graph, ParamId, ParamStore, VarId};
use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`SasRec`] (Table A1/A2 report `d`, `n`, `h`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SasRecConfig {
    /// Embedding dimension.
    pub d: usize,
    /// Maximum sequence length attended over (`n` in the paper's notation).
    pub seq_len: usize,
    /// Number of target items per training window.
    pub targets: usize,
}

impl Default for SasRecConfig {
    fn default() -> Self {
        Self { d: 64, seq_len: 10, targets: 3 }
    }
}

#[derive(Debug, Clone, Copy)]
struct SasRecParams {
    items: ParamId,
    positions: ParamId,
    w_query: ParamId,
    w_key: ParamId,
    w_value: ParamId,
    ffn_w1: ParamId,
    ffn_b1: ParamId,
    ffn_w2: ParamId,
    ffn_b2: ParamId,
}

/// The self-attentive sequential recommender.
#[derive(Debug)]
pub struct SasRec {
    config: SasRecConfig,
    params: ParamStore,
    ids: SasRecParams,
}

impl SasRec {
    /// Trains SASRec on per-user training sequences.
    pub fn fit(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        config: &SasRecConfig,
        train_config: &BaselineTrainConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d;
        let mut params = ParamStore::new();
        let items = params.add_embedding("E", Matrix::xavier_uniform(num_items, d, &mut rng));
        let positions = params.add_dense("P", Matrix::xavier_uniform(config.seq_len, d, &mut rng));
        let w_query = params.add_dense("W_q", Matrix::xavier_uniform(d, d, &mut rng));
        let w_key = params.add_dense("W_k", Matrix::xavier_uniform(d, d, &mut rng));
        let w_value = params.add_dense("W_v", Matrix::xavier_uniform(d, d, &mut rng));
        let ffn_w1 = params.add_dense("F_1", Matrix::xavier_uniform(d, d, &mut rng));
        let ffn_b1 = params.add_dense("b_1", Matrix::zeros(1, d));
        let ffn_w2 = params.add_dense("F_2", Matrix::xavier_uniform(d, d, &mut rng));
        let ffn_b2 = params.add_dense("b_2", Matrix::zeros(1, d));
        let ids = SasRecParams { items, positions, w_query, w_key, w_value, ffn_w1, ffn_b1, ffn_w2, ffn_b2 };

        let cfg = *config;
        train_bpr(
            &mut params,
            train_sequences,
            num_items,
            config.seq_len,
            config.targets,
            train_config,
            seed,
            move |store, g, inst: &TrainInstance| {
                let q = Self::query_node(store, g, &ids, &cfg, &inst.input);
                bpr_pairwise_loss(g, store, ids.items, q, inst)
            },
        );

        Self { config: *config, params, ids }
    }

    /// Builds the last-position representation of the attention block.
    fn query_node(
        store: &ParamStore,
        g: &mut Graph,
        ids: &SasRecParams,
        config: &SasRecConfig,
        input: &[ItemId],
    ) -> VarId {
        debug_assert_eq!(input.len(), config.seq_len, "SASRec input must have length seq_len");
        let len = config.seq_len;
        let d = config.d;

        // Input: item embeddings + position embeddings.
        let e = g.gather(store, ids.items, input);
        let p = g.param(store, ids.positions);
        let x = g.add(e, p);

        // Single-head causal self-attention.
        let wq = g.param(store, ids.w_query);
        let wk = g.param(store, ids.w_key);
        let wv = g.param(store, ids.w_value);
        let q = g.matmul(x, wq);
        let k = g.matmul(x, wk);
        let v = g.matmul(x, wv);
        let raw = g.matmul_transposed(q, k);
        let scaled = g.scale(raw, 1.0 / (d as f32).sqrt());
        let mask = g.constant(causal_mask(len));
        let masked = g.add(scaled, mask);
        let attn = g.row_softmax(masked);
        let context = g.matmul(attn, v);
        let residual = g.add(context, x);

        // Point-wise feed-forward with a second residual connection.
        let w1 = g.param(store, ids.ffn_w1);
        let b1 = g.param(store, ids.ffn_b1);
        let w2 = g.param(store, ids.ffn_w2);
        let b2 = g.param(store, ids.ffn_b2);
        let h1 = g.matmul(residual, w1);
        let h1 = g.add_row_broadcast(h1, b1);
        let h1 = g.relu(h1);
        let h2 = g.matmul(h1, w2);
        let h2 = g.add_row_broadcast(h2, b2);
        let out = g.add(h2, residual);

        // The last position summarises the sequence.
        g.slice_rows(out, len - 1, 1)
    }

    /// The model's configuration.
    pub fn config(&self) -> &SasRecConfig {
        &self.config
    }
}

/// Builds the additive causal mask: 0 on and below the diagonal, a large
/// negative value above it, so position `t` only attends to positions `<= t`.
fn causal_mask(len: usize) -> Matrix {
    let mut mask = Matrix::zeros(len, len);
    for r in 0..len {
        for c in (r + 1)..len {
            mask.set(r, c, -1e9);
        }
    }
    mask
}

/// The attention block's output at the last position is the query, scored
/// against the shared item table.
impl Scorer for SasRec {
    fn candidates(&self) -> &Matrix {
        self.params.value(self.ids.items)
    }

    fn query_vector(&self, _user: usize, history: &[ItemId]) -> Vec<f32> {
        let window = fixed_window(history, self.config.seq_len);
        let mut g = Graph::new();
        let q = Self::query_node(&self.params, &mut g, &self.ids, &self.config, &window);
        g.value(q).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::synthetic::DatasetProfile;

    fn small_model() -> (SasRec, Vec<Vec<usize>>) {
        let data = DatasetProfile::tiny("sasrec-test").generate(8);
        let cfg = SasRecConfig { d: 8, seq_len: 5, targets: 2 };
        let tc = BaselineTrainConfig { epochs: 1, batch_size: 64, ..Default::default() };
        (SasRec::fit(&data.sequences, data.num_items, &cfg, &tc, 13), data.sequences.clone())
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let mask = causal_mask(3);
        assert_eq!(mask.get(0, 0), 0.0);
        assert_eq!(mask.get(2, 1), 0.0);
        assert!(mask.get(0, 2) < -1e8);
        assert!(mask.get(1, 2) < -1e8);
    }

    #[test]
    fn scores_cover_the_catalogue_and_are_finite() {
        let (model, seqs) = small_model();
        let scores = model.score_all(0, &seqs[0]);
        assert_eq!(scores.len(), model.num_items());
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(model.config().seq_len, 5);
    }

    #[test]
    fn scores_depend_on_the_history() {
        let (model, _) = small_model();
        let a = model.score_all(0, &[1, 2, 3, 4, 5]);
        let b = model.score_all(0, &[6, 7, 8, 9, 10]);
        assert_ne!(a, b);
    }

    #[test]
    fn scores_are_user_independent_given_the_same_history() {
        // SASRec has no explicit user embedding; identity comes from history.
        let (model, _) = small_model();
        let a = model.score_all(0, &[1, 2, 3, 4, 5]);
        let b = model.score_all(3, &[1, 2, 3, 4, 5]);
        assert_eq!(a, b);
    }
}
