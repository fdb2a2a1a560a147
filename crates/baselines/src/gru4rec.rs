//! GRU4Rec — session-based recommendations with recurrent neural networks
//! (Hidasi et al., ICLR'16).
//!
//! GRU4Rec is one of the methods the paper's literature review covers and the
//! comparison set HGN was shown to outperform; it is included here so the
//! reproduction's baseline suite spans all four mechanism families the paper
//! discusses (recurrence, convolution, attention, gating).
//!
//! The implementation unrolls a single-layer GRU over the `L` most recent
//! item embeddings on the autograd tape and scores candidates against the
//! shared item-embedding matrix from the final hidden state, trained with the
//! shared BPR harness (the original paper's ranking losses — BPR / TOP1 —
//! include BPR, so this matches one of its configurations).

use crate::common::{bpr_pairwise_loss, fixed_window, train_bpr, BaselineTrainConfig, TrainInstance};
use ham_autograd::{Graph, ParamId, ParamStore, VarId};
use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`Gru4Rec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gru4RecConfig {
    /// Embedding / hidden dimension.
    pub d: usize,
    /// Length of the recent-item window the GRU is unrolled over.
    pub seq_len: usize,
    /// Number of target items per training window.
    pub targets: usize,
}

impl Default for Gru4RecConfig {
    fn default() -> Self {
        Self { d: 64, seq_len: 5, targets: 3 }
    }
}

#[derive(Debug, Clone, Copy)]
struct GruParams {
    items: ParamId,
    w_update: ParamId,
    u_update: ParamId,
    b_update: ParamId,
    w_reset: ParamId,
    u_reset: ParamId,
    b_reset: ParamId,
    w_cand: ParamId,
    u_cand: ParamId,
    b_cand: ParamId,
}

/// The recurrent session-based recommender.
#[derive(Debug)]
pub struct Gru4Rec {
    config: Gru4RecConfig,
    params: ParamStore,
    ids: GruParams,
}

impl Gru4Rec {
    /// Trains GRU4Rec on per-user training sequences.
    pub fn fit(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        config: &Gru4RecConfig,
        train_config: &BaselineTrainConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d;
        let mut params = ParamStore::new();
        let items = params.add_embedding("E", Matrix::xavier_uniform(num_items, d, &mut rng));
        let ids = GruParams {
            items,
            w_update: params.add_dense("W_z", Matrix::xavier_uniform(d, d, &mut rng)),
            u_update: params.add_dense("U_z", Matrix::xavier_uniform(d, d, &mut rng)),
            b_update: params.add_dense("b_z", Matrix::zeros(1, d)),
            w_reset: params.add_dense("W_r", Matrix::xavier_uniform(d, d, &mut rng)),
            u_reset: params.add_dense("U_r", Matrix::xavier_uniform(d, d, &mut rng)),
            b_reset: params.add_dense("b_r", Matrix::zeros(1, d)),
            w_cand: params.add_dense("W_h", Matrix::xavier_uniform(d, d, &mut rng)),
            u_cand: params.add_dense("U_h", Matrix::xavier_uniform(d, d, &mut rng)),
            b_cand: params.add_dense("b_h", Matrix::zeros(1, d)),
        };

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
                let q = Self::hidden_state_node(store, g, &ids, &cfg, &inst.input);
                bpr_pairwise_loss(g, store, ids.items, q, inst)
            },
        );

        Self { config: *config, params, ids }
    }

    /// Unrolls the GRU over the window and returns the final hidden state.
    fn hidden_state_node(
        store: &ParamStore,
        g: &mut Graph,
        ids: &GruParams,
        config: &Gru4RecConfig,
        input: &[ItemId],
    ) -> VarId {
        debug_assert_eq!(input.len(), config.seq_len);
        let d = config.d;
        let w_z = g.param(store, ids.w_update);
        let u_z = g.param(store, ids.u_update);
        let b_z = g.param(store, ids.b_update);
        let w_r = g.param(store, ids.w_reset);
        let u_r = g.param(store, ids.u_reset);
        let b_r = g.param(store, ids.b_reset);
        let w_h = g.param(store, ids.w_cand);
        let u_h = g.param(store, ids.u_cand);
        let b_h = g.param(store, ids.b_cand);
        let ones = g.constant(Matrix::full(1, d, 1.0));

        let mut hidden = g.constant(Matrix::zeros(1, d));
        for &item in input {
            let x = g.gather(store, ids.items, &[item]);

            // update gate z = σ(x·W_z + h·U_z + b_z)
            let xz = g.matmul(x, w_z);
            let hz = g.matmul(hidden, u_z);
            let z_pre = g.add(xz, hz);
            let z_pre = g.add_row_broadcast(z_pre, b_z);
            let z = g.sigmoid(z_pre);

            // reset gate r = σ(x·W_r + h·U_r + b_r)
            let xr = g.matmul(x, w_r);
            let hr = g.matmul(hidden, u_r);
            let r_pre = g.add(xr, hr);
            let r_pre = g.add_row_broadcast(r_pre, b_r);
            let r = g.sigmoid(r_pre);

            // candidate state h~ = tanh(x·W_h + (r ∘ h)·U_h + b_h)
            let xh = g.matmul(x, w_h);
            let reset_hidden = g.hadamard(r, hidden);
            let hh = g.matmul(reset_hidden, u_h);
            let cand_pre = g.add(xh, hh);
            let cand_pre = g.add_row_broadcast(cand_pre, b_h);
            let candidate = g.tanh(cand_pre);

            // h' = (1 − z) ∘ h + z ∘ h~
            let one_minus_z = g.sub(ones, z);
            let keep = g.hadamard(one_minus_z, hidden);
            let write = g.hadamard(z, candidate);
            hidden = g.add(keep, write);
        }
        hidden
    }

    /// The model's configuration.
    pub fn config(&self) -> &Gru4RecConfig {
        &self.config
    }
}

/// The GRU's last hidden state is the query, scored against the shared item
/// table.
impl Scorer for Gru4Rec {
    fn candidates(&self) -> &Matrix {
        self.params.value(self.ids.items)
    }

    fn query_vector(&self, _user: usize, history: &[ItemId]) -> Vec<f32> {
        let window = fixed_window(history, self.config.seq_len);
        let mut g = Graph::new();
        let h = Self::hidden_state_node(&self.params, &mut g, &self.ids, &self.config, &window);
        g.value(h).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::synthetic::DatasetProfile;

    fn small_model() -> (Gru4Rec, Vec<Vec<usize>>) {
        let data = DatasetProfile::tiny("gru-test").generate(14);
        let cfg = Gru4RecConfig { d: 8, seq_len: 4, targets: 2 };
        let tc = BaselineTrainConfig { epochs: 1, batch_size: 64, ..Default::default() };
        (Gru4Rec::fit(&data.sequences, data.num_items, &cfg, &tc, 4), data.sequences.clone())
    }

    #[test]
    fn scores_cover_the_catalogue_and_are_finite() {
        let (model, seqs) = small_model();
        let scores = model.score_all(0, &seqs[0]);
        assert_eq!(scores.len(), model.num_items());
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(model.config().seq_len, 4);
    }

    #[test]
    fn hidden_state_depends_on_item_order() {
        // A recurrent model must distinguish [a, b] from [b, a]; pooling-based
        // models cannot — this is the defining property of the GRU baseline.
        let (model, _) = small_model();
        let forward = model.score_all(0, &[1, 2, 3, 4]);
        let reversed = model.score_all(0, &[4, 3, 2, 1]);
        assert_ne!(forward, reversed);
    }

    #[test]
    fn short_histories_are_padded() {
        let (model, _) = small_model();
        assert_eq!(model.score_all(0, &[7]).len(), model.num_items());
    }

    #[test]
    fn gru_training_reduces_the_loss() {
        let data = DatasetProfile::tiny("gru-loss").generate(15);
        let cfg = Gru4RecConfig { d: 8, seq_len: 4, targets: 2 };
        let mut rng = StdRng::seed_from_u64(1);
        let d = cfg.d;
        let mut params = ParamStore::new();
        let items = params.add_embedding("E", Matrix::xavier_uniform(data.num_items, d, &mut rng));
        let ids = GruParams {
            items,
            w_update: params.add_dense("W_z", Matrix::xavier_uniform(d, d, &mut rng)),
            u_update: params.add_dense("U_z", Matrix::xavier_uniform(d, d, &mut rng)),
            b_update: params.add_dense("b_z", Matrix::zeros(1, d)),
            w_reset: params.add_dense("W_r", Matrix::xavier_uniform(d, d, &mut rng)),
            u_reset: params.add_dense("U_r", Matrix::xavier_uniform(d, d, &mut rng)),
            b_reset: params.add_dense("b_r", Matrix::zeros(1, d)),
            w_cand: params.add_dense("W_h", Matrix::xavier_uniform(d, d, &mut rng)),
            u_cand: params.add_dense("U_h", Matrix::xavier_uniform(d, d, &mut rng)),
            b_cand: params.add_dense("b_h", Matrix::zeros(1, d)),
        };
        let tc = BaselineTrainConfig { epochs: 3, batch_size: 64, ..Default::default() };
        let losses =
            train_bpr(&mut params, &data.sequences, data.num_items, cfg.seq_len, cfg.targets, &tc, 8, |s, g, inst| {
                let q = Gru4Rec::hidden_state_node(s, g, &ids, &cfg, &inst.input);
                bpr_pairwise_loss(g, s, ids.items, q, inst)
            });
        assert!(losses.last().unwrap() < losses.first().unwrap(), "GRU4Rec loss should decrease: {losses:?}");
    }
}
