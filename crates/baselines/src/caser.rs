//! Caser — Convolutional Sequence Embedding Recommendation (Tang & Wang,
//! WSDM'18).
//!
//! Caser treats the embedding matrix of the `L` most recent items as an
//! "image" and applies
//!
//! * **horizontal filters** of every height `h ∈ 1..=L` spanning the full
//!   embedding width, max-pooled over the sliding positions, capturing
//!   union-level sequential patterns, and
//! * **vertical filters** that form weighted sums over the `L` item
//!   embeddings per dimension,
//!
//! concatenates both outputs through a fully-connected layer into a sequence
//! representation `z`, and scores candidates against `[z ; p_u]` where `p_u`
//! is the user's long-term embedding.

use crate::common::{bpr_pairwise_loss, fixed_window, train_bpr, BaselineTrainConfig};
use ham_autograd::{Graph, ParamId, ParamStore, VarId};
use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`Caser`] (Table A2 reports `d`, `L`, `T`, `n_v`, `n_h`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaserConfig {
    /// Embedding dimension.
    pub d: usize,
    /// Length of the recent-item window (`L`).
    pub seq_len: usize,
    /// Number of target items per training window (`T`).
    pub targets: usize,
    /// Number of vertical filters (`n_v`).
    pub vertical_filters: usize,
    /// Number of horizontal filters per height (`n_h`).
    pub horizontal_filters: usize,
}

impl Default for CaserConfig {
    fn default() -> Self {
        Self { d: 64, seq_len: 5, targets: 3, vertical_filters: 2, horizontal_filters: 4 }
    }
}

/// Identifiers of all Caser parameters (shared between training closure and
/// inference).
#[derive(Debug, Clone)]
struct CaserParams {
    users: ParamId,
    items_in: ParamId,
    items_out: ParamId,
    /// `horizontal[h - 1]` holds the filters of height `h`.
    horizontal: Vec<Vec<ParamId>>,
    vertical: ParamId,
    fc_weight: ParamId,
    fc_bias: ParamId,
}

/// The convolutional sequence embedding recommender.
#[derive(Debug)]
pub struct Caser {
    config: CaserConfig,
    params: ParamStore,
    ids: CaserParams,
}

impl Caser {
    /// Trains Caser on per-user training sequences.
    pub fn fit(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        config: &CaserConfig,
        train_config: &BaselineTrainConfig,
        seed: u64,
    ) -> Self {
        assert!(config.seq_len > 0, "Caser: seq_len must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d;
        let mut params = ParamStore::new();
        let users = params.add_embedding("P", Matrix::xavier_uniform(train_sequences.len(), d, &mut rng));
        let items_in = params.add_embedding("Q", Matrix::xavier_uniform(num_items, d, &mut rng));
        let items_out = params.add_embedding("W", Matrix::xavier_uniform(num_items, 2 * d, &mut rng));
        let mut horizontal = Vec::with_capacity(config.seq_len);
        for h in 1..=config.seq_len {
            let filters = (0..config.horizontal_filters)
                .map(|f| params.add_dense(format!("F_h{h}_{f}"), Matrix::xavier_uniform(h, d, &mut rng)))
                .collect();
            horizontal.push(filters);
        }
        let vertical =
            params.add_dense("F_v", Matrix::xavier_uniform(config.vertical_filters, config.seq_len, &mut rng));
        let horizontal_out = config.seq_len * config.horizontal_filters;
        let vertical_out = config.vertical_filters * d;
        let fc_weight = params.add_dense("W_fc", Matrix::xavier_uniform(horizontal_out + vertical_out, d, &mut rng));
        let fc_bias = params.add_dense("b_fc", Matrix::zeros(1, d));

        let ids = CaserParams { users, items_in, items_out, horizontal, vertical, fc_weight, fc_bias };
        let loss_ids = ids.clone();
        let cfg = *config;
        train_bpr(
            &mut params,
            train_sequences,
            num_items,
            config.seq_len,
            config.targets,
            train_config,
            seed,
            move |store, g, inst| {
                let q = Self::query_node(store, g, &loss_ids, &cfg, inst.user, &inst.input);
                bpr_pairwise_loss(g, store, loss_ids.items_out, q, inst)
            },
        );

        Self { config: *config, params, ids }
    }

    /// Builds the `[z ; p_u]` query representation on the tape.
    fn query_node(
        store: &ParamStore,
        g: &mut Graph,
        ids: &CaserParams,
        config: &CaserConfig,
        user: usize,
        input: &[ItemId],
    ) -> VarId {
        debug_assert_eq!(input.len(), config.seq_len, "Caser input must have length L");
        let window = g.gather(store, ids.items_in, input);

        // Horizontal convolutions: relu(conv) max-pooled over positions.
        let mut horizontal_outputs: Vec<VarId> = Vec::new();
        for filters in &ids.horizontal {
            for &filter in filters {
                let f = g.param(store, filter);
                let conv = g.conv_full_width(window, f);
                let act = g.relu(conv);
                let pooled = g.max_rows(act);
                horizontal_outputs.push(pooled);
            }
        }
        let o_h = g.concat_cols(&horizontal_outputs);

        // Vertical convolutions: weighted sums of the L embeddings.
        let fv = g.param(store, ids.vertical);
        let o_v_mat = g.matmul(fv, window);
        let o_v = g.reshape(o_v_mat, 1, config.vertical_filters * config.d);

        // Fully-connected layer into the sequence representation z.
        let concat = g.concat_cols(&[o_h, o_v]);
        let w_fc = g.param(store, ids.fc_weight);
        let b_fc = g.param(store, ids.fc_bias);
        let hidden = g.matmul(concat, w_fc);
        let hidden = g.add_row_broadcast(hidden, b_fc);
        let z = g.relu(hidden);

        // Final query: [z ; p_u]
        let p_u = g.gather(store, ids.users, &[user]);
        g.concat_cols(&[z, p_u])
    }

    /// The model's configuration.
    pub fn config(&self) -> &CaserConfig {
        &self.config
    }
}

/// The tape's forward pass of `[z ; p_u]` is the query, scored against the
/// output table `W`.
impl Scorer for Caser {
    fn candidates(&self) -> &Matrix {
        self.params.value(self.ids.items_out)
    }

    fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        let window = fixed_window(history, self.config.seq_len);
        let mut g = Graph::new();
        let q = Self::query_node(&self.params, &mut g, &self.ids, &self.config, user, &window);
        g.value(q).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::synthetic::DatasetProfile;

    fn small_model() -> (Caser, Vec<Vec<usize>>) {
        let data = DatasetProfile::tiny("caser-test").generate(6);
        let cfg = CaserConfig { d: 8, seq_len: 4, targets: 2, vertical_filters: 2, horizontal_filters: 2 };
        let tc = BaselineTrainConfig { epochs: 1, batch_size: 64, ..Default::default() };
        (Caser::fit(&data.sequences, data.num_items, &cfg, &tc, 5), data.sequences.clone())
    }

    #[test]
    fn scores_cover_the_catalogue_and_are_finite() {
        let (model, seqs) = small_model();
        let scores = model.score_all(1, &seqs[1]);
        assert_eq!(scores.len(), model.num_items());
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(model.config().horizontal_filters, 2);
    }

    #[test]
    fn query_depends_on_the_sequence_and_the_user() {
        let (model, _) = small_model();
        let a = model.score_all(0, &[1, 2, 3, 4]);
        let b = model.score_all(0, &[5, 6, 7, 8]);
        let c = model.score_all(1, &[1, 2, 3, 4]);
        assert_ne!(a, b, "different histories must give different scores");
        assert_ne!(a, c, "different users must give different scores");
    }

    #[test]
    fn short_histories_are_padded() {
        let (model, _) = small_model();
        let scores = model.score_all(0, &[2]);
        assert_eq!(scores.len(), model.num_items());
    }

    #[test]
    fn training_reduces_the_loss() {
        let data = DatasetProfile::tiny("caser-loss").generate(9);
        let cfg = CaserConfig { d: 8, seq_len: 4, targets: 2, vertical_filters: 1, horizontal_filters: 1 };
        let tc = BaselineTrainConfig { epochs: 3, batch_size: 64, ..Default::default() };
        // Re-run the internal harness to observe the loss trajectory.
        let mut rng = StdRng::seed_from_u64(1);
        let d = cfg.d;
        let mut params = ParamStore::new();
        let users = params.add_embedding("P", Matrix::xavier_uniform(data.num_users(), d, &mut rng));
        let items_in = params.add_embedding("Q", Matrix::xavier_uniform(data.num_items, d, &mut rng));
        let items_out = params.add_embedding("W", Matrix::xavier_uniform(data.num_items, 2 * d, &mut rng));
        let horizontal = (1..=cfg.seq_len)
            .map(|h| vec![params.add_dense(format!("F_h{h}"), Matrix::xavier_uniform(h, d, &mut rng))])
            .collect();
        let vertical = params.add_dense("F_v", Matrix::xavier_uniform(1, cfg.seq_len, &mut rng));
        let fc_weight = params.add_dense("W_fc", Matrix::xavier_uniform(cfg.seq_len + d, d, &mut rng));
        let fc_bias = params.add_dense("b_fc", Matrix::zeros(1, d));
        let ids = CaserParams { users, items_in, items_out, horizontal, vertical, fc_weight, fc_bias };
        let losses =
            train_bpr(&mut params, &data.sequences, data.num_items, cfg.seq_len, cfg.targets, &tc, 2, |s, g, inst| {
                let q = Caser::query_node(s, g, &ids, &cfg, inst.user, &inst.input);
                bpr_pairwise_loss(g, s, ids.items_out, q, inst)
            });
        assert!(losses.last().unwrap() < losses.first().unwrap(), "Caser loss should decrease: {losses:?}");
    }
}
