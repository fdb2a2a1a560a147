//! Mini-batched BPR training of HAM models (Section 4.4 of the paper).
//!
//! The training pipeline is batched end to end: a
//! [`ham_data::batch::BatchSampler`] shuffles the sliding windows and packs
//! them — negatives included — into fixed-size mini-batches from one seeded
//! RNG stream (the instance stream is independent of the batch size), each
//! batch is split into fixed gradient blocks (`MANUAL_BLOCK` instances)
//! whose gradients are computed analytically, and one sparse-row Adam step
//! applies the merged, duplicate-row-coalesced gradients per batch. With
//! `TrainConfig::num_threads > 1` the blocks of a batch are computed in
//! parallel on the shared work-stealing pool and merged in block order, so
//! the result is bit-identical to the single-threaded run. Adam reads the
//! batch's `W` and `V` rows where the blocks summed them (the sparse store
//! keeps the user term). A run keeps its gradient buffers — the batch's
//! sparse store, one [`manual`] block workspace per lane, one store per
//! later block and every block's rows — from batch to batch, so from the
//! second batch on a training step allocates nothing; a
//! [`TrainerState`] keeps them from round to round.
//!
//! The gradients are [`manual`]'s: closed-form gradients of the BPR
//! objective, Eq. 5's synergies and Eq. 6's latent cross included, for every
//! HAM variant. The same objective expressed on the [`ham_autograd::Graph`]
//! tape, one subgraph per instance (`autograd_ref`, compiled for tests
//! only), is their oracle on every variant and synergy order.
//!
//! [`resume::TrainerState`] wraps the same pipeline in a resumable handle —
//! parameters and Adam moments kept alive across training rounds, tables
//! grown row-wise — for the online trainer (`ham-online`).
//!
//! A batch of **one** instance takes the exact per-instance path, so `batch_size = 1` reproduces instance-at-a-time training bit for
//! bit — pinned, together with blocked-vs-reference agreement at every batch
//! size, by the batch-size-invariance proptests below.

#[cfg(test)]
mod autograd_ref;
pub mod manual;
pub mod resume;

pub use resume::TrainerState;

use crate::config::{HamConfig, TrainConfig};
use crate::model::HamModel;
use ham_autograd::{Adam, AdamConfig, GradStore, ParamId, ParamStore, RowSet};
use ham_data::batch::BatchSampler;
pub(crate) use ham_data::batch::PreparedInstance;
use ham_data::dataset::ItemId;
use ham_telemetry::{Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Instances per gradient block: the span over which candidate and window
/// rows coalesce into dense gradient matrices before the sparse `GradStore`
/// sees them, and the unit of work the threaded trainer schedules. Fixed
/// (rather than derived from the batch or thread count) so results never
/// depend on either.
pub(crate) const MANUAL_BLOCK: usize = 256;

/// Per-epoch and per-step training metrics, resolved from the process-global
/// [`ham_telemetry`] handle ([`ham_telemetry::global`]). `None` when no
/// enabled handle is installed — recording then costs nothing. Resolved per
/// training call rather than cached so a handle installed between runs is
/// picked up.
pub(crate) struct TrainMetrics {
    pairs_total: Counter,
    epochs_total: Counter,
    epoch_pairs_per_sec: Histogram,
    optimizer_step_nanos: Histogram,
    block_gradient_nanos: Histogram,
    batch_assembly_nanos: Histogram,
}

impl TrainMetrics {
    fn resolve() -> Option<Self> {
        let telemetry = ham_telemetry::global();
        let registry = telemetry.registry()?;
        Some(Self {
            pairs_total: registry.counter("train_pairs_total"),
            epochs_total: registry.counter("train_epochs_total"),
            epoch_pairs_per_sec: registry.histogram("train_epoch_pairs_per_sec"),
            optimizer_step_nanos: registry.histogram("train_optimizer_step_nanos"),
            block_gradient_nanos: registry.histogram("train_block_gradient_nanos"),
            batch_assembly_nanos: registry.histogram("train_batch_assembly_nanos"),
        })
    }

    /// Packs `sampler`'s next batch, recording the wall time of each call
    /// that yields one in `train_batch_assembly_nanos` when `metrics` is
    /// enabled (no clock read otherwise).
    fn timed_next_batch<'s>(metrics: Option<&Self>, sampler: &'s mut BatchSampler) -> Option<&'s [PreparedInstance]> {
        let started = metrics.map(|_| Instant::now());
        let batch = sampler.next_batch();
        if let (Some(metrics), Some(started), Some(_)) = (metrics, started, batch) {
            metrics.batch_assembly_nanos.record(started.elapsed().as_nanos() as u64);
        }
        batch
    }

    /// Runs one gradient block, recording its wall time in
    /// `train_block_gradient_nanos` when `metrics` is enabled (no clock read
    /// otherwise). Safe to call from pool tasks: the histogram is sharded.
    fn timed_block<T>(metrics: Option<&Self>, block: impl FnOnce() -> T) -> T {
        let started = metrics.map(|_| Instant::now());
        let out = block();
        if let (Some(metrics), Some(started)) = (metrics, started) {
            metrics.block_gradient_nanos.record(started.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Applies one batch's gradients — the store and the row sets — with
    /// `adam`, recording the whole step's wall time in
    /// `train_optimizer_step_nanos` when `metrics` is enabled (no clock read
    /// otherwise).
    fn timed_step(
        metrics: Option<&Self>,
        adam: &mut Adam,
        store: &mut ParamStore,
        grads: &GradStore,
        row_sets: &[RowSet<'_>],
    ) {
        let started = metrics.map(|_| Instant::now());
        adam.step_with_rows(store, grads, row_sets);
        if let (Some(metrics), Some(started)) = (metrics, started) {
            metrics.optimizer_step_nanos.record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Records one finished epoch: its BPR pair count and throughput.
    fn record_epoch(&self, pairs: usize, pairs_per_sec: f64) {
        self.epochs_total.inc();
        self.pairs_total.add(pairs as u64);
        self.epoch_pairs_per_sec.record(pairs_per_sec as u64);
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (starting at 1).
    pub epoch: usize,
    /// Mean BPR loss over all training pairs in the epoch.
    pub mean_loss: f32,
    /// Number of sliding-window instances processed.
    pub num_instances: usize,
    /// The mini-batch size the epoch trained with.
    pub batch_size: usize,
    /// Training throughput: (positive, negative) BPR pairs per second over
    /// the epoch's wall time.
    pub pairs_per_sec: f64,
}

/// The model parameters registered in a [`ParamStore`] for training.
pub(crate) struct HamParams {
    pub(crate) store: ParamStore,
    pub(crate) u: ParamId,
    pub(crate) v: ParamId,
    pub(crate) w: ParamId,
}

impl HamParams {
    fn from_model(model: &HamModel) -> Self {
        let mut store = ParamStore::new();
        let u = store.add_embedding("U", model.user_emb.clone());
        let v = store.add_embedding("V", model.item_emb_in.clone());
        let w = store.add_embedding("W", (*model.item_emb_out).clone());
        Self { store, u, v, w }
    }

    fn write_back(&self, model: &mut HamModel) {
        model.user_emb = self.store.value(self.u).clone();
        model.item_emb_in = self.store.value(self.v).clone();
        model.item_emb_out = Arc::new(self.store.value(self.w).clone());
    }
}

/// Whether every instance of the batch has the same window/target widths (the
/// precondition of the blocked path; always true for batches from
/// [`BatchSampler`]).
pub(crate) fn uniform_shapes(batch: &[PreparedInstance]) -> bool {
    let Some(first) = batch.first() else { return false };
    batch.iter().all(|i| {
        i.input.len() == first.input.len()
            && i.low.len() == first.low.len()
            && i.targets.len() == first.targets.len()
            && i.negatives.len() == i.targets.len()
            && !i.targets.is_empty()
    })
}

/// Trains a HAM model on per-user training sequences and returns it.
///
/// `train_sequences[u]` is the chronological training sequence of user `u`
/// (e.g. [`ham_data::split::DataSplit::train`] or
/// [`ham_data::split::DataSplit::train_with_val`]).
pub fn train(
    train_sequences: &[Vec<ItemId>],
    num_items: usize,
    config: &HamConfig,
    train_config: &TrainConfig,
    seed: u64,
) -> HamModel {
    train_with_history(train_sequences, num_items, config, train_config, seed).0
}

/// Like [`train`], additionally returning per-epoch loss statistics.
pub fn train_with_history(
    train_sequences: &[Vec<ItemId>],
    num_items: usize,
    config: &HamConfig,
    train_config: &TrainConfig,
    seed: u64,
) -> (HamModel, Vec<EpochStats>) {
    train_impl(train_sequences, num_items, config, train_config, seed, false)
}

/// The training pipeline; `force_reference` swaps the blocked gradients for
/// the per-instance reference loop (the batch-size-invariance tests train
/// both ways and compare the resulting models).
pub(crate) fn train_impl(
    train_sequences: &[Vec<ItemId>],
    num_items: usize,
    config: &HamConfig,
    train_config: &TrainConfig,
    seed: u64,
    force_reference: bool,
) -> (HamModel, Vec<EpochStats>) {
    config.validate();
    assert!(!train_sequences.is_empty(), "train: need at least one user sequence");
    let num_users = train_sequences.len();
    let mut model = HamModel::new(num_users, num_items, *config, seed);
    let mut params = HamParams::from_model(&model);

    // Mix a fixed marker into the seed so training noise (shuffling, negative
    // sampling) is decoupled from the model-initialisation noise.
    let mut sampler = BatchSampler::new(
        train_sequences,
        num_items,
        config.n_h,
        config.n_p,
        config.n_l,
        train_config.batch_size.max(1),
        seed ^ 0x7A21_55ED,
    );

    let mut adam = Adam::new(AdamConfig {
        learning_rate: train_config.learning_rate,
        weight_decay: train_config.weight_decay,
        ..AdamConfig::default()
    });
    let mut workspace = GradientWorkspace::default();
    let history = train_epochs(
        &mut params,
        &mut adam,
        &mut sampler,
        train_config.epochs,
        config,
        train_config,
        force_reference,
        &mut workspace,
    );
    params.write_back(&mut model);
    (model, history)
}

/// The epoch loop of [`train`] and [`TrainerState::train_round`]: `epochs`
/// passes of `sampler`'s batches, each batch's gradients from
/// [`compute_batch_gradients`] applied with one sparse Adam step, continuing
/// from `params` and `adam`'s moments. The buffers come from `workspace`,
/// which the caller keeps: for one run ([`train`]) or across rounds
/// ([`TrainerState`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_epochs(
    params: &mut HamParams,
    adam: &mut Adam,
    sampler: &mut BatchSampler,
    epochs: usize,
    config: &HamConfig,
    train_config: &TrainConfig,
    force_reference: bool,
    workspace: &mut GradientWorkspace,
) -> Vec<EpochStats> {
    let metrics = TrainMetrics::resolve();
    let mut history = Vec::with_capacity(epochs);
    // ham-lint: hot-path
    for epoch in 1..=epochs {
        let started = Instant::now();
        sampler.start_epoch();
        let mut epoch_loss = 0.0f64;
        let mut instances = 0usize;
        let mut pairs = 0usize;
        while let Some(batch) = TrainMetrics::timed_next_batch(metrics.as_ref(), sampler) {
            let loss = compute_batch_gradients(
                params,
                batch,
                config,
                train_config,
                force_reference,
                metrics.as_ref(),
                workspace,
            );
            let row_sets = workspace.block_rows[0].row_sets(params);
            TrainMetrics::timed_step(metrics.as_ref(), adam, &mut params.store, &workspace.grads, &row_sets);
            epoch_loss += loss as f64 * batch.len() as f64;
            instances += batch.len();
            pairs += batch.iter().map(|i| i.targets.len()).sum::<usize>();
        }
        let seconds = started.elapsed().as_secs_f64();
        let pairs_per_sec = if seconds > 0.0 { pairs as f64 / seconds } else { 0.0 };
        if let Some(metrics) = &metrics {
            metrics.record_epoch(pairs, pairs_per_sec);
        }
        history.push(EpochStats {
            epoch,
            mean_loss: if instances > 0 { (epoch_loss / instances as f64) as f32 } else { 0.0 },
            num_instances: instances,
            batch_size: sampler.batch_size(),
            pairs_per_sec,
        });
    }
    history
}

/// The gradient buffers a training run reuses from batch to batch: the
/// batch's sparse store (the user term, or every table on the reference
/// path), one [`manual::BlockWorkspace`] per lane (lane 0 inline, one
/// per pool task when blocks run in parallel), one sparse store per block
/// after the first (block 0 writes straight into the batch store), and one
/// [`manual::BlockRows`] per block, of which block 0's becomes the batch's
/// once the later blocks have merged into it. Lanes, stores and rows are
/// added the first time a batch needs them; a workspace serves one
/// `HamConfig`. [`train`] keeps one for a run, [`TrainerState`] one for
/// all its rounds.
#[derive(Default)]
pub(crate) struct GradientWorkspace {
    lanes: Vec<manual::BlockWorkspace>,
    /// The batch's sparse gradients.
    grads: GradStore,
    /// `block_stores[b]` holds block `b + 1`'s sparse gradients until the
    /// merge.
    block_stores: Vec<GradStore>,
    /// `block_rows[b]` holds block `b`'s `W` and `V` rows; `block_rows[0]`
    /// the batch's after the merge.
    block_rows: Vec<manual::BlockRows>,
    block_losses: Vec<f64>,
}

impl GradientWorkspace {
    /// Makes sure `lanes` lanes, `blocks - 1` block stores and `blocks` row
    /// sets and loss slots exist.
    fn ensure(&mut self, config: &HamConfig, lanes: usize, blocks: usize) {
        while self.lanes.len() < lanes {
            self.lanes.push(manual::BlockWorkspace::new(config));
        }
        if self.block_stores.len() + 1 < blocks {
            self.block_stores.resize_with(blocks - 1, GradStore::new);
        }
        if self.block_rows.len() < blocks {
            self.block_rows.resize_with(blocks, manual::BlockRows::default);
        }
        if self.block_losses.len() < blocks {
            self.block_losses.resize(blocks, 0.0);
        }
    }
}

/// Gradients and mean loss of one batch, written into `ws`'s batch store
/// and batch rows (cleared first; their buffers are kept) with `ws`'s
/// buffers.
///
/// A uniform batch of more than one instance is split into fixed blocks
/// ([`MANUAL_BLOCK`] instances), computed inline or —
/// with `num_threads > 1` — on the shared worker pool, and always merged in
/// block order, so the thread count never changes the result; at most
/// `num_threads` tasks run concurrently (blocks are grouped into
/// `num_threads` contiguous spans, one pool task and one lane each). Block 0
/// accumulates straight into the batch store and rows; every later block
/// into a store and rows of its own, merged into the batch's in block order
/// — the same sums in the same order as merging every block into an empty
/// store. A batch of one instance, a non-uniform batch and every
/// `force_reference` batch take the per-instance reference path as a single
/// block, all of it in the store. Each block is timed into
/// `train_block_gradient_nanos` when `metrics` is enabled.
pub(crate) fn compute_batch_gradients(
    params: &HamParams,
    batch: &[PreparedInstance],
    config: &HamConfig,
    train_config: &TrainConfig,
    force_reference: bool,
    metrics: Option<&TrainMetrics>,
    ws: &mut GradientWorkspace,
) -> f32 {
    assert!(!batch.is_empty(), "batch_gradients: batch must not be empty");
    ws.grads.clear();
    if force_reference || batch.len() == 1 || !uniform_shapes(batch) {
        ws.ensure(config, 1, 1);
        ws.block_rows[0].clear();
        let GradientWorkspace { lanes, grads: out, .. } = ws;
        return TrainMetrics::timed_block(metrics, || {
            manual::reserve_rows(params, config, batch.len(), out);
            let batch_scale = 1.0f32 / batch.len() as f32;
            manual::reference_into(params, batch, config, batch_scale, &mut lanes[0], out) as f32
        });
    }
    let blocks = batch.len().div_ceil(MANUAL_BLOCK);
    let threads = train_config.num_threads.max(1).min(blocks);
    ws.ensure(config, threads, blocks);
    let batch_scale = 1.0f32 / batch.len() as f32;
    let block_gradients =
        |lane: &mut manual::BlockWorkspace, block: &[PreparedInstance], (grads, rows): BlockTarget<'_>| {
            TrainMetrics::timed_block(metrics, || {
                manual::block_gradients_into(params, block, config, batch_scale, lane, grads, rows)
            })
        };
    let GradientWorkspace { lanes, grads: out, block_stores, block_rows, block_losses } = ws;
    let (stores, losses) = (&mut block_stores[..blocks - 1], &mut block_losses[..blocks]);
    let (batch_rows, later_rows) = block_rows[..blocks].split_at_mut(1);
    let batch_rows = &mut batch_rows[0];
    if threads > 1 {
        // One pool task per contiguous group of blocks bounds concurrency at
        // `num_threads`; the grouping cannot affect results because every
        // block is computed independently and merged by batch position.
        let group = blocks.div_ceil(threads);
        stores.iter_mut().for_each(GradStore::clear);
        let (first_stores, later_stores) = stores.split_at_mut(group - 1);
        let (first_rows, later_group_rows) = later_rows.split_at_mut(group - 1);
        let mut group_targets = std::iter::once((first_stores, first_rows))
            .chain(later_stores.chunks_mut(group).zip(later_group_rows.chunks_mut(group)));
        let block_gradients = &block_gradients;
        let mut first = Some((&mut *out, &mut *batch_rows));
        ham_tensor::pool::global_pool().scope(|scope| {
            let tasks = batch.chunks(group * MANUAL_BLOCK).zip(lanes.iter_mut()).zip(losses.chunks_mut(group));
            for ((group_batch, lane), losses) in tasks {
                let (first, (stores, rows)) = (first.take(), group_targets.next().expect("one target group per task"));
                scope.spawn(move || {
                    // Block 0 of the batch (group 0's first) goes to the batch
                    // store and rows, every other block to its own.
                    let mut targets = first.into_iter().chain(stores.iter_mut().zip(rows.iter_mut()));
                    for (block, loss) in group_batch.chunks(MANUAL_BLOCK).zip(losses.iter_mut()) {
                        *loss = block_gradients(lane, block, targets.next().expect("one target per block"));
                    }
                });
            }
        });
        for store in stores.iter() {
            out.merge_from(store);
        }
    } else {
        let lane = &mut lanes[0];
        for (b, (block, loss)) in batch.chunks(MANUAL_BLOCK).zip(losses.iter_mut()).enumerate() {
            if b == 0 {
                *loss = block_gradients(lane, block, (out, batch_rows));
            } else {
                let store = &mut stores[b - 1];
                store.clear();
                *loss = block_gradients(lane, block, (store, &mut later_rows[b - 1]));
                out.merge_from(store);
            }
        }
    }
    manual::merge_block_rows(&mut lanes[0], params, config, batch.len(), batch_rows, later_rows);
    losses.iter().fold(0.0f64, |sum, &loss| sum + loss) as f32
}

/// Where one block's gradients go: its sparse store and its `W`/`V` rows.
type BlockTarget<'a> = (&'a mut GradStore, &'a mut manual::BlockRows);

/// [`compute_batch_gradients`] with a fresh workspace, the batch rows folded
/// into the returned store.
#[cfg(test)]
pub(crate) fn fresh_batch_gradients(
    params: &HamParams,
    batch: &[PreparedInstance],
    config: &HamConfig,
    train_config: &TrainConfig,
) -> (GradStore, f32) {
    let mut ws = GradientWorkspace::default();
    let loss = compute_batch_gradients(params, batch, config, train_config, false, None, &mut ws);
    let mut out = std::mem::take(&mut ws.grads);
    ws.block_rows[0].fold_into(params, &mut out);
    (out, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HamVariant;
    use ham_data::synthetic::DatasetProfile;
    use proptest::prelude::*;

    fn tiny_training_setup() -> (Vec<Vec<ItemId>>, usize) {
        let data = DatasetProfile::tiny("train-test").generate(5);
        (data.sequences.clone(), data.num_items)
    }

    fn all_variants() -> [HamVariant; 6] {
        [
            HamVariant::HamX,
            HamVariant::HamM,
            HamVariant::HamSX,
            HamVariant::HamSM,
            HamVariant::HamSMNoLowOrder,
            HamVariant::HamSMNoUser,
        ]
    }

    fn variant_config(variant: HamVariant) -> HamConfig {
        let base = HamConfig::for_variant(variant);
        let order = base.synergy_order.min(2);
        let mut config = base.with_dimensions(8, 4, base.n_l.min(2), 2, order);
        if matches!(variant, HamVariant::HamSMNoLowOrder) {
            config.n_l = 0;
        }
        config
    }

    fn max_model_diff(a: &HamModel, b: &HamModel) -> f32 {
        let mut diff = 0.0f32;
        for (x, y) in
            [(&a.user_emb, &b.user_emb), (&a.item_emb_in, &b.item_emb_in), (&*a.item_emb_out, &*b.item_emb_out)]
        {
            for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                diff = diff.max((p - q).abs());
            }
        }
        diff
    }

    fn models_bit_identical(a: &HamModel, b: &HamModel) -> bool {
        [(&a.user_emb, &b.user_emb), (&a.item_emb_in, &b.item_emb_in), (&*a.item_emb_out, &*b.item_emb_out)]
            .iter()
            .all(|(x, y)| x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits()))
    }

    #[test]
    fn training_reduces_bpr_loss() {
        let (seqs, num_items) = tiny_training_setup();
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(16, 4, 2, 2, 1);
        let tc = TrainConfig { epochs: 5, batch_size: 128, ..TrainConfig::default() };
        let (_, history) = train_with_history(&seqs, num_items, &config, &tc, 11);
        assert_eq!(history.len(), 5);
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(last < first, "loss should decrease: first {first}, last {last}");
    }

    #[test]
    fn epoch_stats_report_throughput_and_batch_size() {
        let (seqs, num_items) = tiny_training_setup();
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
        let tc = TrainConfig { epochs: 1, batch_size: 32, ..TrainConfig::default() };
        let (_, history) = train_with_history(&seqs, num_items, &config, &tc, 7);
        let stats = history[0];
        assert_eq!(stats.batch_size, 32);
        assert!(stats.num_instances > 0);
        assert!(stats.pairs_per_sec > 0.0, "throughput must be positive: {stats:?}");
    }

    #[test]
    fn epoch_stats_serde_round_trip() {
        let stats =
            EpochStats { epoch: 3, mean_loss: 0.451, num_instances: 1234, batch_size: 64, pairs_per_sec: 98765.4321 };
        let json = serde_json::to_string(&stats).expect("serialize EpochStats");
        for field in ["epoch", "mean_loss", "num_instances", "batch_size", "pairs_per_sec"] {
            assert!(json.contains(field), "serialized stats must contain {field}: {json}");
        }
        let back: EpochStats = serde_json::from_str(&json).expect("deserialize EpochStats");
        assert_eq!(stats, back);
    }

    #[test]
    fn synergy_variant_trains_analytically_and_stays_finite() {
        let (seqs, num_items) = tiny_training_setup();
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 1, 2, 2);
        let tc = TrainConfig { epochs: 2, batch_size: 64, ..TrainConfig::default() };
        let model = train(&seqs, num_items, &config, &tc, 3);
        assert!(model.is_finite());
        let scores = model.score_all(0, &seqs[0]);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn batch_size_one_training_bit_matches_the_reference_pipeline() {
        let (seqs, num_items) = tiny_training_setup();
        for variant in [HamVariant::HamM, HamVariant::HamSM] {
            let config = variant_config(variant);
            let tc = TrainConfig { epochs: 1, batch_size: 1, ..TrainConfig::default() };
            let (fast, _) = train_impl(&seqs, num_items, &config, &tc, 13, false);
            let (reference, _) = train_impl(&seqs, num_items, &config, &tc, 13, true);
            assert!(
                models_bit_identical(&fast, &reference),
                "{variant:?}: batch_size=1 must reproduce the per-instance path bit for bit"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_trained_model() {
        let (seqs, num_items) = tiny_training_setup();
        for variant in [HamVariant::HamM, HamVariant::HamSM] {
            let config = variant_config(variant);
            // The batch must span several gradient blocks (MANUAL_BLOCK
            // instances each) or the threaded branch silently runs inline.
            let batch_size = MANUAL_BLOCK + 44;
            let windows = BatchSampler::new(&seqs, num_items, config.n_h, config.n_p, config.n_l, 1, 0).num_instances();
            assert!(windows > batch_size, "dataset too small to exercise the threaded path");
            let single = TrainConfig { epochs: 1, batch_size, ..TrainConfig::default() };
            let threaded = TrainConfig { num_threads: 3, ..single };
            let (a, _) = train_with_history(&seqs, num_items, &config, &single, 5);
            let (b, _) = train_with_history(&seqs, num_items, &config, &threaded, 5);
            assert!(models_bit_identical(&a, &b), "{variant:?}: threading must be bit-deterministic");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Batch-size invariance: for any batch size, one epoch through the
        /// blocked pipeline lands within 1e-5 of one epoch through the
        /// per-instance reference loop, for every
        /// HAM variant (identical instance stream by the sampler's
        /// determinism contract; batch_size = 1 is additionally bit-exact —
        /// see `batch_size_one_training_bit_matches_the_reference_pipeline`).
        #[test]
        fn any_batch_size_matches_the_reference_pipeline(batch_size in 1usize..80, variant_idx in 0usize..6, seed in 0u64..32) {
            let (seqs, num_items) = tiny_training_setup();
            let variant = all_variants()[variant_idx];
            let config = variant_config(variant);
            let tc = TrainConfig { epochs: 1, batch_size, ..TrainConfig::default() };
            let (fast, _) = train_impl(&seqs, num_items, &config, &tc, seed, false);
            let (reference, _) = train_impl(&seqs, num_items, &config, &tc, seed, true);
            let diff = max_model_diff(&fast, &reference);
            prop_assert!(diff <= 1e-5, "{variant:?} batch_size={batch_size} seed={seed}: diff {diff}");
            if batch_size == 1 {
                prop_assert!(models_bit_identical(&fast, &reference), "{variant:?}: batch_size=1 must be bit-exact");
            }
        }
    }

    #[test]
    fn trained_model_beats_untrained_on_next_item_ranking() {
        let (seqs, num_items) = tiny_training_setup();
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(16, 4, 2, 2, 1);
        let tc = TrainConfig { epochs: 12, batch_size: 32, ..TrainConfig::default() };
        let trained = train(&seqs, num_items, &config, &tc, 21);
        let untrained = HamModel::new(seqs.len(), num_items, config, 999);

        // Evaluate: the true next item should rank better (lower mean rank)
        // after training than under random embeddings.
        let mean_rank = |m: &HamModel| {
            let mut total_rank = 0usize;
            let mut count = 0usize;
            for (u, seq) in seqs.iter().enumerate().take(40) {
                if seq.len() < 6 {
                    continue;
                }
                let (hist, next) = seq.split_at(seq.len() - 1);
                let scores = m.score_all(u, hist);
                let target = scores[next[0]];
                total_rank += scores.iter().filter(|&&s| s > target).count();
                count += 1;
            }
            total_rank as f64 / count as f64
        };
        let trained_rank = mean_rank(&trained);
        let untrained_rank = mean_rank(&untrained);
        assert!(
            trained_rank < untrained_rank,
            "training should improve the mean rank of the next item \
             (trained {trained_rank:.1} vs untrained {untrained_rank:.1})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_training_set_panics() {
        let config = HamConfig::default();
        let _ = train(&[], 10, &config, &TrainConfig::default(), 1);
    }
}
