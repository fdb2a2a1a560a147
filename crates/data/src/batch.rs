//! Mini-batch assembly for BPR training: shuffling, negative sampling and
//! packing of sliding-window instances into fixed-size batches.
//!
//! [`BatchSampler`] owns everything the training loop needs per epoch — the
//! sliding windows, one [`NegativeSampler`] per user and one seeded RNG
//! stream — and packs [`PreparedInstance`]s into reusable buffers, so batch
//! assembly performs **no per-instance allocation** after the first epoch
//! (negatives are drawn through [`NegativeSampler::sample_batch`] into the
//! retained buffers).
//!
//! ## Determinism contract
//!
//! For a fixed seed the shuffled instance order and the negative-sample
//! stream are drawn once per epoch, in instance order, independent of the
//! batch size: changing `batch_size` only regroups the same instance stream
//! into different batches. That is what makes batch-size-invariance testable
//! — `batch_size = 1` and `batch_size = 256` train on identical
//! (window, negatives) sequences.

use crate::append::DeltaView;
use crate::dataset::ItemId;
use crate::negative::NegativeSampler;
use crate::window::{sliding_windows, TrainingInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// One sliding-window instance with its low-order sub-window and sampled
/// negatives, ready for a gradient step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreparedInstance {
    /// Dense user id.
    pub user: usize,
    /// The `n_h` input items.
    pub input: Vec<ItemId>,
    /// The last `n_l` input items (empty when the low-order term is ablated).
    pub low: Vec<ItemId>,
    /// The `n_p` positive target items.
    pub targets: Vec<ItemId>,
    /// One sampled negative per target.
    pub negatives: Vec<ItemId>,
}

/// Shuffles sliding-window instances and packs them into fixed-size
/// mini-batches with freshly sampled negatives.
///
/// Users who interacted with the whole catalogue (no negative exists) are
/// excluded at construction; all remaining windows are visited exactly once
/// per epoch.
#[derive(Debug)]
pub struct BatchSampler {
    windows: Vec<TrainingInstance>,
    /// Per-user negative samplers, indexed by dense user id; `None` for
    /// users whose windows were excluded.
    samplers: Vec<Option<NegativeSampler>>,
    n_l: usize,
    batch_size: usize,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
    /// Reused instance buffers (capacity `batch_size`).
    batch: Vec<PreparedInstance>,
    /// Maps the (possibly compacted) window user index to the user id the
    /// emitted instances carry. `None` = identity (the common full-dataset
    /// case); `Some` for delta views, whose sequences are compacted to the
    /// users with fresh windows.
    user_ids: Option<Vec<usize>>,
}

impl BatchSampler {
    /// Creates a sampler over the sliding windows of `train_sequences`
    /// (window sizes `n_h`/`n_p`, low-order sub-window `n_l`), drawing
    /// shuffle order and negatives from one RNG stream seeded with `seed`.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`, `n_h == 0`, `n_p == 0`, `n_l > n_h` or
    /// `num_items == 0`.
    pub fn new(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        n_h: usize,
        n_p: usize,
        n_l: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Self::with_parts(train_sequences, None, None, num_items, n_h, n_p, n_l, batch_size, seed)
    }

    /// Creates a sampler over the fresh windows of a
    /// [`DeltaView`]: windows come from the
    /// compacted delta sub-sequences, negatives are drawn against each
    /// user's **full** seen set, and the emitted instances carry the real
    /// (global) user ids — so an incremental trainer indexes the same
    /// embedding rows a full retrain would.
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn over_delta(
        delta: &DeltaView,
        num_items: usize,
        n_h: usize,
        n_p: usize,
        n_l: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Self::with_parts(
            &delta.sequences,
            Some(&delta.seen),
            Some(delta.users.clone()),
            num_items,
            n_h,
            n_p,
            n_l,
            batch_size,
            seed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn with_parts(
        train_sequences: &[Vec<ItemId>],
        seen_override: Option<&[Vec<ItemId>]>,
        user_ids: Option<Vec<usize>>,
        num_items: usize,
        n_h: usize,
        n_p: usize,
        n_l: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "BatchSampler: batch_size must be positive");
        assert!(n_l <= n_h, "BatchSampler: n_l ({n_l}) must not exceed n_h ({n_h})");
        assert!(num_items > 0, "BatchSampler: num_items must be positive");
        let seen_sequences = seen_override.unwrap_or(train_sequences);
        assert_eq!(seen_sequences.len(), train_sequences.len(), "BatchSampler: one seen set per sequence");
        let samplers: Vec<Option<NegativeSampler>> = seen_sequences
            .iter()
            .map(|seq| {
                let distinct: HashSet<ItemId> = seq.iter().copied().collect();
                (distinct.len() < num_items).then(|| NegativeSampler::new(num_items, distinct))
            })
            .collect();
        let windows: Vec<TrainingInstance> =
            sliding_windows(train_sequences, n_h, n_p).into_iter().filter(|w| samplers[w.user].is_some()).collect();
        let order: Vec<usize> = (0..windows.len()).collect();
        Self {
            windows,
            samplers,
            n_l,
            batch_size,
            rng: StdRng::seed_from_u64(seed),
            order,
            cursor: 0,
            batch: Vec::new(),
            user_ids,
        }
    }

    /// Number of training instances per epoch.
    pub fn num_instances(&self) -> usize {
        self.windows.len()
    }

    /// Number of batches per epoch (the last batch may be smaller).
    pub fn num_batches(&self) -> usize {
        self.windows.len().div_ceil(self.batch_size)
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Reshuffles the instance order and rewinds to the first batch.
    pub fn start_epoch(&mut self) {
        self.order.shuffle(&mut self.rng);
        self.cursor = 0;
    }

    /// Packs the next mini-batch into the reused buffers and returns it, or
    /// `None` when the epoch is exhausted.
    pub fn next_batch(&mut self) -> Option<&[PreparedInstance]> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let take = self.batch_size.min(self.order.len() - self.cursor);
        while self.batch.len() < take {
            self.batch.push(PreparedInstance::default());
        }
        for (slot, &idx) in self.batch.iter_mut().zip(&self.order[self.cursor..self.cursor + take]) {
            let window = &self.windows[idx];
            let sampler = self.samplers[window.user].as_ref().expect("samplerless windows are filtered out");
            slot.user = self.user_ids.as_ref().map_or(window.user, |ids| ids[window.user]);
            slot.input.clear();
            slot.input.extend_from_slice(&window.input);
            slot.low.clear();
            if self.n_l > 0 {
                slot.low.extend_from_slice(&window.input[window.input.len() - self.n_l..]);
            }
            slot.targets.clear();
            slot.targets.extend_from_slice(&window.targets);
            slot.negatives.resize(window.targets.len(), 0);
            sampler.sample_batch(&mut slot.negatives, &mut self.rng);
        }
        self.cursor += take;
        Some(&self.batch[..take])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequences() -> Vec<Vec<ItemId>> {
        vec![(0..9).collect(), (3..12).collect(), vec![0, 5, 2, 7, 4, 9, 6], vec![1, 2]]
    }

    fn collect_epoch(sampler: &mut BatchSampler) -> Vec<PreparedInstance> {
        sampler.start_epoch();
        let mut all = Vec::new();
        while let Some(batch) = sampler.next_batch() {
            all.extend_from_slice(batch);
        }
        all
    }

    #[test]
    fn epoch_visits_every_window_exactly_once() {
        let mut sampler = BatchSampler::new(&sequences(), 12, 4, 2, 2, 5, 9);
        let expected = sampler.num_instances();
        let all = collect_epoch(&mut sampler);
        assert_eq!(all.len(), expected);
        assert_eq!(sampler.num_batches(), expected.div_ceil(5));
        // instances carry the right shapes
        for inst in &all {
            assert_eq!(inst.input.len(), 4);
            assert_eq!(inst.low, inst.input[2..].to_vec());
            assert_eq!(inst.targets.len(), 2);
            assert_eq!(inst.negatives.len(), 2);
        }
    }

    #[test]
    fn negatives_are_never_seen_items() {
        let seqs = sequences();
        let mut sampler = BatchSampler::new(&seqs, 12, 4, 2, 2, 3, 11);
        for inst in collect_epoch(&mut sampler) {
            let seen: HashSet<ItemId> = seqs[inst.user].iter().copied().collect();
            for &n in &inst.negatives {
                assert!(!seen.contains(&n), "user {} drew seen negative {n}", inst.user);
            }
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_batches() {
        let mut a = BatchSampler::new(&sequences(), 12, 4, 2, 2, 4, 77);
        let mut b = BatchSampler::new(&sequences(), 12, 4, 2, 2, 4, 77);
        assert_eq!(collect_epoch(&mut a), collect_epoch(&mut b));
        // and the second epoch reshuffles but still matches across samplers
        assert_eq!(collect_epoch(&mut a), collect_epoch(&mut b));
    }

    #[test]
    fn instance_stream_is_independent_of_batch_size() {
        let mut small = BatchSampler::new(&sequences(), 12, 4, 2, 1, 1, 5);
        let mut large = BatchSampler::new(&sequences(), 12, 4, 2, 1, 7, 5);
        assert_eq!(collect_epoch(&mut small), collect_epoch(&mut large));
    }

    #[test]
    fn saturated_users_are_excluded() {
        // user 0 interacted with every item: no negatives exist
        let seqs = vec![vec![0, 1, 2, 0, 1, 2], vec![0, 1, 0, 1, 0]];
        let sampler = BatchSampler::new(&seqs, 3, 2, 1, 1, 2, 1);
        assert!(sampler.num_instances() > 0);
        let mut sampler = sampler;
        for inst in collect_epoch(&mut sampler) {
            assert_eq!(inst.user, 1);
        }
    }

    #[test]
    fn low_order_window_is_empty_when_ablated() {
        let mut sampler = BatchSampler::new(&sequences(), 12, 4, 2, 0, 4, 3);
        for inst in collect_epoch(&mut sampler) {
            assert!(inst.low.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        let _ = BatchSampler::new(&sequences(), 12, 4, 2, 2, 0, 1);
    }

    #[test]
    fn delta_sampler_emits_global_user_ids_and_only_fresh_windows() {
        let mut data = crate::append::AppendableDataset::from_sequences(sequences(), 12);
        data.mark_trained();
        // user 2 gains two fresh interactions; everyone else is untouched
        data.append(2, 10);
        data.append(2, 11);
        let delta = data.delta_view(4, 2);
        let mut sampler = BatchSampler::over_delta(&delta, data.num_items(), 4, 2, 2, 3, 17);
        assert_eq!(sampler.num_instances(), 2, "one fresh window per appended interaction");
        let all = collect_epoch(&mut sampler);
        let seen: HashSet<ItemId> = data.sequences()[2].iter().copied().collect();
        for inst in &all {
            assert_eq!(inst.user, 2, "compact indices must map back to the global user id");
            assert!(inst.targets.iter().any(|t| *t >= 10), "every fresh window ends past the watermark");
            for n in &inst.negatives {
                assert!(!seen.contains(n), "negatives must respect the FULL history, not just the delta");
            }
        }
    }

    #[test]
    fn delta_sampler_over_everything_fresh_matches_the_full_sampler() {
        let data = crate::append::AppendableDataset::from_sequences(sequences(), 12);
        let delta = data.delta_view(4, 2);
        let mut full = BatchSampler::new(&sequences(), 12, 4, 2, 2, 5, 9);
        let mut fresh = BatchSampler::over_delta(&delta, 12, 4, 2, 2, 5, 9);
        assert_eq!(collect_epoch(&mut full), collect_epoch(&mut fresh));
    }
}
