//! Shared infrastructure for the baselines: the generic BPR training loop,
//! its pairwise loss and the inference-time window convention. Scoring goes
//! through `ham_core::Scorer`, which every baseline implements.

use ham_autograd::{Adam, AdamConfig, Graph, ParamStore, VarId};
use ham_data::dataset::ItemId;
use ham_data::negative::NegativeSampler;
use ham_data::window::WindowStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters shared by all baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineTrainConfig {
    /// Number of passes over the sliding windows.
    pub epochs: usize,
    /// Windows per Adam step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
}

impl Default for BaselineTrainConfig {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 128, learning_rate: 1e-3, weight_decay: 1e-3 }
    }
}

/// One training window with sampled negatives, shared by every baseline.
#[derive(Debug, Clone)]
pub struct TrainInstance {
    /// Dense user id.
    pub user: usize,
    /// The `L` input items (chronological).
    pub input: Vec<ItemId>,
    /// The `T` positive targets.
    pub targets: Vec<ItemId>,
    /// One sampled negative per target.
    pub negatives: Vec<ItemId>,
}

/// Generic BPR training loop over sliding windows.
///
/// `build_loss` appends the loss of one instance to the tape and returns its
/// `1 x 1` node; the harness batches instances, averages their losses, runs
/// the backward pass and applies sparse Adam — exactly the protocol used for
/// the HAM models, so method comparisons share the data path.
#[allow(clippy::too_many_arguments)]
pub fn train_bpr(
    store: &mut ParamStore,
    train_sequences: &[Vec<ItemId>],
    num_items: usize,
    seq_len: usize,
    targets: usize,
    config: &BaselineTrainConfig,
    seed: u64,
    build_loss: impl Fn(&ParamStore, &mut Graph, &TrainInstance) -> VarId,
) -> Vec<f32> {
    assert!(!train_sequences.is_empty(), "train_bpr: need at least one user sequence");
    // Every user's windows, saturated ones included: they stay in the shuffle
    // and are skipped when a batch is packed.
    let windows = WindowStore::new(train_sequences, seq_len, targets, |_| true);
    let samplers: Vec<Option<NegativeSampler>> =
        train_sequences.iter().map(|seq| NegativeSampler::try_new(num_items, seq.iter().copied())).collect();

    let mut adam = Adam::new(AdamConfig {
        learning_rate: config.learning_rate,
        weight_decay: config.weight_decay,
        ..AdamConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E_11E5);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<TrainInstance> = chunk
                .iter()
                .filter_map(|&idx| {
                    let user = windows.user(idx);
                    let sampler = samplers[user].as_ref()?;
                    Some(TrainInstance {
                        user,
                        input: windows.input(idx).to_vec(),
                        targets: windows.targets(idx).to_vec(),
                        negatives: sampler.sample_many(targets, &mut rng),
                    })
                })
                .collect();
            if batch.is_empty() {
                continue;
            }
            let mut g = Graph::new();
            let losses: Vec<VarId> = batch.iter().map(|inst| build_loss(store, &mut g, inst)).collect();
            let stacked = g.concat_rows(&losses);
            let batch_loss = g.mean_all(stacked);
            epoch_loss += g.value(batch_loss).get(0, 0) as f64;
            batches += 1;
            let grads = g.backward(batch_loss);
            adam.step(store, &grads);
        }
        epoch_losses.push(if batches > 0 { (epoch_loss / batches as f64) as f32 } else { 0.0 });
    }
    epoch_losses
}

/// Builds the standard BPR loss `mean_t softplus(-(q·w_pos - q·w_neg))` for a
/// query vector node `q` and candidate-embedding parameter `w`, shared by the
/// baselines.
pub fn bpr_pairwise_loss(
    g: &mut Graph,
    store: &ParamStore,
    candidate_param: ham_autograd::ParamId,
    query: VarId,
    instance: &TrainInstance,
) -> VarId {
    let w_pos = g.gather(store, candidate_param, &instance.targets);
    let w_neg = g.gather(store, candidate_param, &instance.negatives);
    let pos = g.matmul_transposed(query, w_pos);
    let neg = g.matmul_transposed(query, w_neg);
    let margin = g.sub(pos, neg);
    let neg_margin = g.neg(margin);
    let sp = g.softplus(neg_margin);
    g.mean_all(sp)
}

/// Pads or truncates a history to exactly `len` items (front-padding by
/// repeating the earliest item), the input convention shared by the sequence
/// baselines at inference time.
pub fn fixed_window(sequence: &[ItemId], len: usize) -> Vec<ItemId> {
    ham_data::window::recent_window(sequence, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_tensor::Matrix;
    use rand::SeedableRng;

    #[test]
    fn train_bpr_reduces_loss_for_a_simple_mf_objective() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let users = store.add_embedding("U", Matrix::xavier_uniform(10, 8, &mut rng));
        let items = store.add_embedding("I", Matrix::xavier_uniform(30, 8, &mut rng));

        // simple structured data: user u prefers items u*3..u*3+3
        let seqs: Vec<Vec<usize>> = (0..10).map(|u| (0..12).map(|t| (u * 3 + t % 3) % 30).collect()).collect();
        let cfg = BaselineTrainConfig { epochs: 8, batch_size: 8, learning_rate: 2e-2, ..Default::default() };
        let losses = train_bpr(&mut store, &seqs, 30, 3, 2, &cfg, 5, |store, g, inst| {
            let u = g.gather(store, users, &[inst.user]);
            bpr_pairwise_loss(g, store, items, u, inst)
        });
        assert_eq!(losses.len(), 8);
        assert!(losses.last().unwrap() < losses.first().unwrap(), "loss should decrease: {losses:?}");
    }

    #[test]
    fn fixed_window_pads_and_truncates() {
        assert_eq!(fixed_window(&[1, 2, 3, 4], 2), vec![3, 4]);
        assert_eq!(fixed_window(&[5], 3), vec![5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_training_data_panics() {
        let mut store = ParamStore::new();
        let _ = train_bpr(&mut store, &[], 5, 2, 1, &BaselineTrainConfig::default(), 1, |_, g, _| {
            g.constant(Matrix::full(1, 1, 0.0))
        });
    }
}
