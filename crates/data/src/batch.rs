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
//! ## Layout
//!
//! The windows live in a [`WindowStore`]: every kept user's sequence once,
//! front-padded, in one flat `ItemId` buffer, and each window as a
//! `(user, start)` pair of `u32`s into it. The epoch order is a `Vec<u32>`
//! of window indices, and each user's seen set is a sorted slice inside its
//! [`NegativeSampler`]. With `n_h = 5`, `n_p = 3` and 8-byte item ids a
//! window costs 8 B of offsets, 4 B of order and its share of the flat
//! buffer (one item per window plus a window's worth per user, ≈ 9 B on
//! ML-1M): ≈ 21 B. It used to cost ≈ 144 B: a 56-byte `TrainingInstance`
//! holding two heap `Vec`s (40 and 24 bytes, 48 and 32 with the allocator's
//! headers) and an 8-byte order slot, beside a SipHash `HashSet` per user.
//! On the ML-1M profile (416,626 windows, 371,576 distinct user-item
//! pairs) the sampler holds ≈ 11.8 MB where it held ≈ 65 MB, and the
//! measured resident growth of [`BatchSampler::new`] fell from 61.5 MB to
//! 8.8 MB (the large buffers partly reuse pages freed before).
//! Construction makes a fixed number of allocations plus one or two per
//! user (the seen set), none per window.
//!
//! ## Pipelined packing
//!
//! Every read of a slot is a random one: the window's `(user, start)` entry,
//! its items in the flat buffer, the user's sampler and the seen set the
//! rejection test searches. Packed one after the other, each waits for
//! memory. The epoch order is known ahead, so [`BatchSampler::next_batch`]
//! prefetches in two stages ([`ham_tensor::prefetch`]): the window entry 16
//! slots ahead, then — that entry cached by now — the window's items and
//! its user's seen set 8 slots ahead ([`NegativeSampler::prefetch_seen`]
//! bounds a long set to the lines a binary search probes first). The
//! look-ahead runs on into the next batch. A prefetch changes no value, so
//! the instance stream stays bit for bit what it was.
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
use crate::window::WindowStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Slots ahead of the one being packed whose window entry is prefetched.
const ENTRY_AHEAD: usize = 16;

/// Slots ahead of the one being packed whose items and seen set are
/// prefetched. With `ENTRY_AHEAD` twice this, the entry read here was asked
/// for eight slots earlier. A scratch sweep of (entry, items) = (8, 4),
/// (16, 8) and (32, 16), 3 epochs of HAMs_m on the ML-1M profile on a
/// 2-vCPU AVX-512 host, read all three within run-to-run noise (assembly
/// 0.29–0.44 s per run); the middle pair is kept.
const ITEMS_AHEAD: usize = 8;

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
    /// The windows of every non-saturated user.
    windows: WindowStore,
    /// Per-user negative samplers, indexed by dense user id; `None` for
    /// users whose windows were excluded.
    samplers: Vec<Option<NegativeSampler>>,
    n_l: usize,
    batch_size: usize,
    rng: StdRng,
    /// This epoch's window order (indices into `windows`).
    order: Vec<u32>,
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
        let samplers: Vec<Option<NegativeSampler>> =
            seen_sequences.iter().map(|seq| NegativeSampler::try_new(num_items, seq.iter().copied())).collect();
        let windows = WindowStore::new(train_sequences, n_h, n_p, |user| samplers[user].is_some());
        let num_windows = u32::try_from(windows.len()).expect("BatchSampler: window count exceeds u32");
        let order: Vec<u32> = (0..num_windows).collect();
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
    // ham-lint: hot-path
    pub fn next_batch(&mut self) -> Option<&[PreparedInstance]> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let take = self.batch_size.min(self.order.len() - self.cursor);
        while self.batch.len() < take {
            // ham-lint: allow(alloc, "grow-once: the slots and their buffers are reused from the second batch on")
            self.batch.push(PreparedInstance::default());
        }
        for (j, slot) in self.batch[..take].iter_mut().enumerate() {
            // The epoch order is known ahead: bring in the window entry
            // `ENTRY_AHEAD` slots early, then (its entry cached by now) the
            // window's items, its user's sampler and seen set `ITEMS_AHEAD`
            // slots early — so the slot below finds its reads in cache. The
            // look-ahead runs on into the next batch's windows.
            let position = self.cursor + j;
            if let Some(&ahead) = self.order.get(position + ENTRY_AHEAD) {
                self.windows.prefetch_entry(ahead as usize);
            }
            if let Some(&ahead) = self.order.get(position + ITEMS_AHEAD) {
                let ahead = ahead as usize;
                self.windows.prefetch_items(ahead);
                if let Some(sampler) = &self.samplers[self.windows.user(ahead)] {
                    sampler.prefetch_seen();
                }
            }
            let window = self.order[position] as usize;
            let user = self.windows.user(window);
            let sampler = self.samplers[user].as_ref().expect("samplerless windows are filtered out");
            slot.user = self.user_ids.as_ref().map_or(user, |ids| ids[user]);
            let input = self.windows.input(window);
            slot.input.clear();
            slot.input.extend_from_slice(input);
            slot.low.clear();
            slot.low.extend_from_slice(&input[input.len() - self.n_l..]);
            let targets = self.windows.targets(window);
            slot.targets.clear();
            slot.targets.extend_from_slice(targets);
            slot.negatives.resize(targets.len(), 0);
            sampler.sample_batch(&mut slot.negatives, &mut self.rng);
        }
        self.cursor += take;
        Some(&self.batch[..take])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{sliding_windows, TrainingInstance};
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashSet;

    /// The sampler as it stood before the window store: one
    /// `TrainingInstance` (two heap `Vec`s) per window and a `HashSet` seen
    /// set per user, drawing negatives by the same rejection loop. The
    /// reference the store and the sorted seen sets are held to.
    struct ReferenceSampler {
        windows: Vec<TrainingInstance>,
        seen: Vec<Option<HashSet<ItemId>>>,
        num_items: usize,
        n_l: usize,
        rng: StdRng,
        order: Vec<usize>,
        user_ids: Option<Vec<usize>>,
    }

    impl ReferenceSampler {
        #[allow(clippy::too_many_arguments)]
        fn new(
            train_sequences: &[Vec<ItemId>],
            seen_override: Option<&[Vec<ItemId>]>,
            user_ids: Option<Vec<usize>>,
            num_items: usize,
            n_h: usize,
            n_p: usize,
            n_l: usize,
            seed: u64,
        ) -> Self {
            let seen: Vec<Option<HashSet<ItemId>>> = seen_override
                .unwrap_or(train_sequences)
                .iter()
                .map(|seq| {
                    let distinct: HashSet<ItemId> = seq.iter().copied().collect();
                    (distinct.len() < num_items).then_some(distinct)
                })
                .collect();
            let windows: Vec<TrainingInstance> =
                sliding_windows(train_sequences, n_h, n_p).into_iter().filter(|w| seen[w.user].is_some()).collect();
            let order = (0..windows.len()).collect();
            Self { windows, seen, num_items, n_l, rng: StdRng::seed_from_u64(seed), order, user_ids }
        }

        fn sample(&mut self, seen: &HashSet<ItemId>) -> ItemId {
            for _ in 0..64 {
                let candidate = self.rng.gen_range(0..self.num_items);
                if !seen.contains(&candidate) {
                    return candidate;
                }
            }
            (0..self.num_items).find(|i| !seen.contains(i)).expect("a negative exists")
        }

        fn epoch(&mut self) -> Vec<PreparedInstance> {
            self.order.shuffle(&mut self.rng);
            let mut out = Vec::new();
            for position in 0..self.order.len() {
                let window = self.windows[self.order[position]].clone();
                let seen = self.seen[window.user].take().expect("saturated users are filtered out");
                let negatives = window.targets.iter().map(|_| self.sample(&seen)).collect();
                self.seen[window.user] = Some(seen);
                out.push(PreparedInstance {
                    user: self.user_ids.as_ref().map_or(window.user, |ids| ids[window.user]),
                    low: window.input[window.input.len() - self.n_l..].to_vec(),
                    input: window.input,
                    targets: window.targets,
                    negatives,
                });
            }
            out
        }
    }

    /// FNV-1a over the integer instance stream of `epochs` epochs.
    fn stream_hash(sampler: &mut BatchSampler, epochs: usize) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |x: usize| {
            for byte in (x as u64).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..epochs {
            for inst in collect_epoch(sampler) {
                feed(inst.user);
                for &item in inst.input.iter().chain(&inst.low).chain(&inst.targets).chain(&inst.negatives) {
                    feed(item);
                }
            }
        }
        hash
    }

    /// Two epochs of `sampler`, checking every batch's length on the way.
    fn two_epochs(sampler: &mut BatchSampler) -> Vec<PreparedInstance> {
        let (mut all, batch_size) = (Vec::new(), sampler.batch_size());
        for _ in 0..2 {
            sampler.start_epoch();
            let mut left = sampler.num_instances();
            while let Some(batch) = sampler.next_batch() {
                assert_eq!(batch.len(), batch_size.min(left));
                left -= batch.len();
                all.extend_from_slice(batch);
            }
            assert_eq!(left, 0);
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_window_store_replays_the_reference_instance_stream(
            num_items in 2usize..9,
            sequences in proptest::collection::vec(proptest::collection::vec(0usize..num_items, 0..24), 1..7),
            appended in proptest::collection::vec(0usize..num_items + 2, 0..12),
            n_h in 1usize..5,
            n_l in 0usize..n_h + 1,
            n_p in 1usize..4,
            batch_choice in 0usize..3,
            seed in 0u64..1000,
        ) {
            let batch_size = [1, 7, 10_000][batch_choice];
            let mut sampler = BatchSampler::new(&sequences, num_items, n_h, n_p, n_l, batch_size, seed);
            let mut reference = ReferenceSampler::new(&sequences, None, None, num_items, n_h, n_p, n_l, seed);
            prop_assert_eq!(sampler.num_instances(), reference.windows.len());
            let mut expected = reference.epoch();
            expected.extend(reference.epoch());
            prop_assert_eq!(two_epochs(&mut sampler), expected);

            // The delta path: fresh appends spread over the users (and one
            // past them), negatives drawn against the full histories.
            let mut data = crate::append::AppendableDataset::from_sequences(sequences.clone(), num_items);
            data.mark_trained();
            for (k, &item) in appended.iter().enumerate() {
                data.append((k * 5 + item) % (sequences.len() + 1), item);
            }
            let delta = data.delta_view(n_h, n_p);
            let mut sampler = BatchSampler::over_delta(&delta, data.num_items(), n_h, n_p, n_l, batch_size, seed);
            let mut reference = ReferenceSampler::new(
                &delta.sequences,
                Some(&delta.seen),
                Some(delta.users.clone()),
                data.num_items(),
                n_h,
                n_p,
                n_l,
                seed,
            );
            let mut expected = reference.epoch();
            expected.extend(reference.epoch());
            prop_assert_eq!(two_epochs(&mut sampler), expected);
        }
    }

    #[test]
    fn the_instance_stream_matches_its_golden_hash() {
        // Taken from the sampler that stored one `TrainingInstance` per
        // window and a `HashSet` per user; integers only, so the same on
        // every kernel tier.
        let data = crate::synthetic::DatasetProfile::tiny("instance-stream").generate(7);
        for (n_h, n_p, n_l, batch_size, golden) in
            [(5, 3, 2, 64, 0x004e_f8cd_3f91_a90c_u64), (4, 2, 0, 1, 0x6660_38c7_4687_745a)]
        {
            let mut sampler = BatchSampler::new(&data.sequences, data.num_items, n_h, n_p, n_l, batch_size, 11);
            assert_eq!(stream_hash(&mut sampler, 2), golden, "n_h {n_h}, n_p {n_p}, n_l {n_l}, batch {batch_size}");
        }
    }

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
