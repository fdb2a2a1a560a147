//! Negative sampling for the BPR objective.
//!
//! Following the paper (Section 4.4) and the reference implementations of HGN
//! and Caser, one negative item is sampled uniformly for every positive
//! target item, rejecting items that appear anywhere in the user's training
//! sequence.
//!
//! A user's seen set is one sorted, deduplicated slice tested with a binary
//! search: one allocation per user, `size_of::<ItemId>()` bytes per distinct
//! item, and no hashing on the rejection test.

use crate::dataset::ItemId;
use rand::Rng;

/// Cache lines up to which [`NegativeSampler::prefetch_seen`] loads a whole
/// seen set (64 items of 8 bytes).
const SEEN_PREFETCH_LINES: usize = 8;

/// Samples negative items for a user, rejecting items the user has already
/// interacted with.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    num_items: usize,
    /// The user's distinct items, ascending.
    seen: Box<[ItemId]>,
}

impl NegativeSampler {
    /// Creates a sampler for a user whose interaction history is `seen`
    /// (duplicates and order do not matter).
    ///
    /// # Panics
    /// Panics if `num_items == 0` or the user has interacted with every item
    /// (no negative exists).
    pub fn new(num_items: usize, seen: impl IntoIterator<Item = ItemId>) -> Self {
        Self::try_new(num_items, seen)
            .unwrap_or_else(|| panic!("NegativeSampler: the user interacted with every item; no negatives exist"))
    }

    /// [`Self::new`], or `None` when the user has interacted with every item
    /// (a saturated user: no negative exists).
    ///
    /// # Panics
    /// Panics if `num_items == 0`.
    pub fn try_new(num_items: usize, seen: impl IntoIterator<Item = ItemId>) -> Option<Self> {
        assert!(num_items > 0, "NegativeSampler: num_items must be positive");
        let mut seen: Vec<ItemId> = seen.into_iter().collect();
        seen.sort_unstable();
        seen.dedup();
        (seen.len() < num_items).then(|| Self { num_items, seen: seen.into_boxed_slice() })
    }

    /// Samples one item the user has not interacted with.
    pub fn sample(&self, rng: &mut impl Rng) -> ItemId {
        // Rejection sampling: the seen set is tiny compared to the catalogue
        // in every recommendation dataset, so this terminates almost surely
        // after one or two draws; a safety fallback scans linearly.
        for _ in 0..64 {
            let candidate = rng.gen_range(0..self.num_items);
            if !self.is_seen(candidate) {
                return candidate;
            }
        }
        (0..self.num_items).find(|&i| !self.is_seen(i)).expect("at least one negative exists by construction")
    }

    /// Samples `k` negatives (with replacement across draws).
    pub fn sample_many(&self, k: usize, rng: &mut impl Rng) -> Vec<ItemId> {
        (0..k).map(|_| self.sample(rng)).collect()
    }

    /// Fills a caller-provided buffer with one negative per slot (with
    /// replacement across draws). The allocation-free form of
    /// [`Self::sample_many`]: batch assembly reuses one buffer per instance
    /// slot instead of allocating a fresh `Vec` per training window.
    ///
    /// Draws items from the same stream as [`Self::sample`], so filling a
    /// buffer of `k` slots consumes exactly the randomness of `k` single
    /// draws.
    pub fn sample_batch(&self, out: &mut [ItemId], rng: &mut impl Rng) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Whether the user has interacted with `item`.
    fn is_seen(&self, item: ItemId) -> bool {
        self.seen.binary_search(&item).is_ok()
    }

    /// Starts loading the lines of the seen set a rejection test reads
    /// first into the cache (a hint; see [`ham_tensor::prefetch`]): the
    /// whole set when it spans at most 8 cache lines,
    /// else the elements the first three levels of a binary search probe
    /// (at 1/2, 1/4 and 3/4, then the eighths), so a heavy user's long set
    /// costs seven lines, not all of them.
    pub fn prefetch_seen(&self) {
        let seen = &self.seen[..];
        if std::mem::size_of_val(seen) <= SEEN_PREFETCH_LINES * 64 {
            ham_tensor::prefetch::slice(seen);
            return;
        }
        for eighths in [4, 2, 6, 1, 3, 5, 7] {
            ham_tensor::prefetch::slice(&seen[seen.len() * eighths / 8..][..1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_items_are_never_seen() {
        let sampler = NegativeSampler::new(50, vec![1, 2, 3, 4, 5]);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let s = sampler.sample(&mut rng);
            assert!(!sampler.is_seen(s));
            assert!(s < 50);
        }
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let sampler = NegativeSampler::new(10, vec![0]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sampler.sample_many(7, &mut rng).len(), 7);
    }

    #[test]
    fn sample_batch_fills_buffer_from_the_same_stream() {
        let sampler = NegativeSampler::new(50, vec![1, 2, 3, 4, 5]);
        let mut buf = [0usize; 7];
        let mut rng = StdRng::seed_from_u64(3);
        sampler.sample_batch(&mut buf, &mut rng);
        assert!(buf.iter().all(|&s| !sampler.is_seen(s) && s < 50));
        // identical stream to sample_many under the same seed
        let mut rng2 = StdRng::seed_from_u64(3);
        assert_eq!(buf.to_vec(), sampler.sample_many(7, &mut rng2));
    }

    #[test]
    fn works_when_almost_everything_is_seen() {
        // only item 7 is unseen; the fallback path must find it
        let sampler = NegativeSampler::new(8, (0..8).filter(|&i| i != 7));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            assert_eq!(sampler.sample(&mut rng), 7);
        }
    }

    #[test]
    fn duplicates_and_order_do_not_change_the_seen_set() {
        let sampler = NegativeSampler::new(10, vec![7, 2, 7, 0, 2]);
        assert_eq!(sampler.seen.len(), 3);
        assert!([0, 2, 7].iter().all(|&i| sampler.is_seen(i)));
        assert!([1, 3, 9].iter().all(|&i| !sampler.is_seen(i)));
    }

    #[test]
    fn try_new_refuses_a_saturated_user() {
        assert!(NegativeSampler::try_new(3, vec![2, 0, 1, 0]).is_none());
        assert!(NegativeSampler::try_new(3, vec![2, 0]).is_some());
    }

    #[test]
    #[should_panic(expected = "no negatives exist")]
    fn all_items_seen_panics() {
        let _ = NegativeSampler::new(3, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "num_items must be positive")]
    fn zero_items_panics() {
        let _ = NegativeSampler::new(0, Vec::<usize>::new());
    }
}
