//! Sliding-window training instances (Fig. 1 / Fig. 2 of the paper).
//!
//! During training each user sequence is swept with a window of size
//! `n_h + n_p`: the first `n_h` items are the model input and the following
//! `n_p` items are the prediction targets. Windows slide item by item and
//! therefore overlap.
//!
//! [`WindowStore`] is how training holds the windows: every sequence once,
//! and each window as a `(user, start)` pair of `u32`s into it.
//! [`sliding_windows`] materialises the same windows as one
//! [`TrainingInstance`] (two heap `Vec`s) each; it is the reference the store
//! is tested against.

use crate::dataset::ItemId;

/// The sliding windows of a set of per-user sequences, held without a heap
/// allocation per window.
///
/// One flat buffer holds every kept user's sequence back to back, each
/// front-padded to `n_h + n_p` items the way [`user_windows`] pads it; a
/// window is the `(user, start)` offset pair of its first input item. Window
/// `i`'s input is `items[start..start + n_h]` and its targets are the `n_p`
/// items after that. Windows are ordered by user, then by start — the order
/// [`sliding_windows`] emits them in.
#[derive(Debug, Clone)]
pub struct WindowStore {
    n_h: usize,
    n_p: usize,
    items: Vec<ItemId>,
    windows: Vec<(u32, u32)>,
}

impl WindowStore {
    /// The windows of every user `u` of `sequences` for which `keep(u)`
    /// holds (windows of `n_h` input and `n_p` target items). Builds the two
    /// buffers at their exact sizes, so the allocation count does not depend
    /// on the number of windows.
    ///
    /// # Panics
    /// Panics if `n_h == 0`, `n_p == 0`, or a user index or buffer offset
    /// does not fit in a `u32`.
    pub fn new(sequences: &[Vec<ItemId>], n_h: usize, n_p: usize, keep: impl Fn(usize) -> bool) -> Self {
        assert!(n_h > 0, "WindowStore: n_h must be positive");
        assert!(n_p > 0, "WindowStore: n_p must be positive");
        let window = n_h + n_p;
        // A sequence needs one input item and `n_p` targets to form a window;
        // a shorter-than-window one is front-padded to exactly one window.
        let padded_len = |user: usize, seq: &[ItemId]| (seq.len() > n_p && keep(user)).then(|| seq.len().max(window));
        let (mut num_items, mut num_windows) = (0, 0);
        for (user, seq) in sequences.iter().enumerate() {
            if let Some(len) = padded_len(user, seq) {
                num_items += len;
                num_windows += len - window + 1;
            }
        }
        // Every user index and start offset narrows to `u32` below.
        u32::try_from(sequences.len()).expect("WindowStore: user count exceeds u32");
        u32::try_from(num_items).expect("WindowStore: padded item count exceeds u32");
        let mut items = Vec::with_capacity(num_items);
        let mut windows = Vec::with_capacity(num_windows);
        for (user, seq) in sequences.iter().enumerate() {
            let Some(len) = padded_len(user, seq) else { continue };
            let offset = items.len();
            items.resize(offset + len - seq.len(), seq[0]);
            items.extend_from_slice(seq);
            windows.extend((offset..=offset + len - window).map(|start| (user as u32, start as u32)));
        }
        Self { n_h, n_p, items, windows }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether there are no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The user (index into the sequences the store was built from) of
    /// window `index`.
    pub fn user(&self, index: usize) -> usize {
        self.windows[index].0 as usize
    }

    /// The `n_h` input items of window `index` (chronological order).
    pub fn input(&self, index: usize) -> &[ItemId] {
        let start = self.windows[index].1 as usize;
        &self.items[start..start + self.n_h]
    }

    /// The `n_p` target items of window `index`.
    pub fn targets(&self, index: usize) -> &[ItemId] {
        let start = self.windows[index].1 as usize + self.n_h;
        &self.items[start..start + self.n_p]
    }

    /// Starts loading window `index`'s `(user, start)` entry into the cache
    /// (a hint; see [`ham_tensor::prefetch`]).
    pub fn prefetch_entry(&self, index: usize) {
        ham_tensor::prefetch::slice(&self.windows[index..=index]);
    }

    /// Starts loading window `index`'s `n_h + n_p` items into the cache.
    /// Reads the window's entry, so it pays once [`Self::prefetch_entry`]
    /// has brought that in.
    pub fn prefetch_items(&self, index: usize) {
        let start = self.windows[index].1 as usize;
        ham_tensor::prefetch::slice(&self.items[start..start + self.n_h + self.n_p]);
    }
}

/// One training instance: a user, the `n_h` input items and the `n_p` target
/// items immediately following them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainingInstance {
    /// Dense user id.
    pub user: usize,
    /// The `n_h` most recent items before the targets (chronological order).
    pub input: Vec<ItemId>,
    /// The `n_p` items to be predicted.
    pub targets: Vec<ItemId>,
}

/// Generates all sliding-window training instances from per-user training
/// sequences, one heap-allocated [`TrainingInstance`] per window (training
/// reads the same windows from a [`WindowStore`]).
///
/// Users whose training sequence is shorter than `n_h + n_p` are padded by
/// repeating their earliest item, mirroring the zero-padding used by the
/// reference implementations (repeating the earliest item keeps every padded
/// position a valid item id so no special-case embedding is needed).
pub fn sliding_windows(train: &[Vec<ItemId>], n_h: usize, n_p: usize) -> Vec<TrainingInstance> {
    assert!(n_h > 0, "sliding_windows: n_h must be positive");
    assert!(n_p > 0, "sliding_windows: n_p must be positive");
    let mut out = Vec::new();
    for (user, seq) in train.iter().enumerate() {
        out.extend(user_windows(user, seq, n_h, n_p));
    }
    out
}

/// Sliding windows for a single user (see [`sliding_windows`]).
pub fn user_windows(user: usize, seq: &[ItemId], n_h: usize, n_p: usize) -> Vec<TrainingInstance> {
    let window = n_h + n_p;
    if seq.is_empty() || seq.len() < n_p + 1 {
        // Need at least one input item and n_p targets to form an instance.
        return Vec::new();
    }
    let padded: Vec<ItemId> = if seq.len() < window {
        let mut p = vec![seq[0]; window - seq.len()];
        p.extend_from_slice(seq);
        p
    } else {
        seq.to_vec()
    };
    let mut out = Vec::new();
    for start in 0..=(padded.len() - window) {
        out.push(TrainingInstance {
            user,
            input: padded[start..start + n_h].to_vec(),
            targets: padded[start + n_h..start + window].to_vec(),
        });
    }
    out
}

/// The most recent `n_h` items of a sequence, padded at the front by
/// repeating the earliest item when the sequence is shorter than `n_h`.
/// This is the inference-time input window.
pub fn recent_window(seq: &[ItemId], n_h: usize) -> Vec<ItemId> {
    assert!(n_h > 0, "recent_window: n_h must be positive");
    if seq.is_empty() {
        return Vec::new();
    }
    if seq.len() >= n_h {
        seq[seq.len() - n_h..].to_vec()
    } else {
        let mut out = vec![seq[0]; n_h - seq.len()];
        out.extend_from_slice(seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_slide_item_by_item() {
        let seq: Vec<usize> = (0..6).collect();
        let w = user_windows(0, &seq, 3, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].input, vec![0, 1, 2]);
        assert_eq!(w[0].targets, vec![3, 4]);
        assert_eq!(w[1].input, vec![1, 2, 3]);
        assert_eq!(w[1].targets, vec![4, 5]);
    }

    #[test]
    fn short_sequences_are_front_padded() {
        let seq = vec![7, 8, 9];
        let w = user_windows(3, &seq, 4, 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].user, 3);
        assert_eq!(w[0].input, vec![7, 7, 7, 7]);
        assert_eq!(w[0].targets, vec![8, 9]);
    }

    #[test]
    fn too_short_sequences_produce_no_instances() {
        assert!(user_windows(0, &[1, 2], 3, 2).is_empty());
        assert!(user_windows(0, &[], 3, 2).is_empty());
    }

    #[test]
    fn sliding_windows_aggregates_all_users() {
        let train = vec![(0..6).collect::<Vec<_>>(), (0..4).collect(), vec![]];
        let w = sliding_windows(&train, 3, 2);
        let users: Vec<usize> = w.iter().map(|i| i.user).collect();
        assert!(users.contains(&0) && users.contains(&1));
        assert!(!users.contains(&2));
    }

    #[test]
    fn instance_count_matches_formula_for_long_sequences() {
        let seq: Vec<usize> = (0..50).collect();
        let (n_h, n_p) = (5, 3);
        let w = user_windows(0, &seq, n_h, n_p);
        assert_eq!(w.len(), 50 - (n_h + n_p) + 1);
    }

    #[test]
    fn the_store_holds_the_materialised_windows_of_its_kept_users() {
        let train = vec![(0..9).collect::<Vec<_>>(), vec![4], vec![7, 8, 9], (20..26).collect(), vec![], vec![1, 2]];
        for (n_h, n_p) in [(3, 2), (4, 2), (1, 1), (2, 3)] {
            let keep = |user: usize| user != 3;
            let store = WindowStore::new(&train, n_h, n_p, keep);
            let expected: Vec<TrainingInstance> =
                sliding_windows(&train, n_h, n_p).into_iter().filter(|w| keep(w.user)).collect();
            assert_eq!(store.len(), expected.len());
            for (i, w) in expected.iter().enumerate() {
                assert_eq!((store.user(i), store.input(i), store.targets(i)), (w.user, &w.input[..], &w.targets[..]));
            }
        }
        assert!(WindowStore::new(&train, 3, 2, |_| false).is_empty());
    }

    #[test]
    fn recent_window_takes_suffix_and_pads() {
        assert_eq!(recent_window(&[1, 2, 3, 4, 5], 3), vec![3, 4, 5]);
        assert_eq!(recent_window(&[9, 8], 4), vec![9, 9, 9, 8]);
        assert!(recent_window(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "n_h must be positive")]
    fn zero_window_panics() {
        let _ = sliding_windows(&[vec![1, 2, 3]], 0, 1);
    }
}
