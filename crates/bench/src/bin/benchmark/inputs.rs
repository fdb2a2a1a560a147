//! Seeded input generation: everything a workload feeds the system derives
//! from `--seed` here, and the system only ever sees the generated values.
//!
//! The generator is a local SplitMix64 rather than the workspace's vendored
//! `rand`, so a change to that stand-in can never silently change what the
//! benchmark sends.

use ham_data::dataset::{ItemId, SequenceDataset, UserId};
use ham_serve::RecommendRequest;

/// Top-k depth of every request and every oracle ranking.
pub const K: usize = 10;

/// SplitMix64: small, seedable, and good enough to draw users and items.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        for i in (1..values.len()).rev() {
            values.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent stream seed for one purpose (`salt`) from the run
/// seed, so adding a consumer never shifts what the others draw.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// The serving request stream: one request per user `0..num_users`, in a
/// seeded order, each with a uniformly drawn `history_len`-item history.
pub fn request_stream(seed: u64, num_users: usize, num_items: usize, history_len: usize) -> Vec<RecommendRequest> {
    let mut rng = SplitMix64::new(derive_seed(seed, 1));
    let mut users: Vec<usize> = (0..num_users).collect();
    rng.shuffle(&mut users);
    users
        .into_iter()
        .map(|user| {
            let history: Vec<ItemId> = (0..history_len).map(|_| rng.below(num_items)).collect();
            RecommendRequest::new(user, history, K)
        })
        .collect()
}

/// `count` distinct indices of `0..n` in ascending order (all of them when
/// `count >= n`) — the seeded sample of the stream the oracle re-ranks.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    SplitMix64::new(derive_seed(seed, 2)).shuffle(&mut indices);
    indices.truncate(count);
    indices.sort_unstable();
    indices
}

/// The online workload's view of a dataset: what the trainer bootstraps on,
/// what is streamed in afterwards, and the held-out probes the client asks
/// about.
pub struct OnlineStream {
    /// First half of every user's sequence.
    pub initial: SequenceDataset,
    /// `(user, item)` appends: the second halves minus each user's final
    /// item, interleaved round-robin over a seeded user order.
    pub ingest: Vec<(UserId, ItemId)>,
    /// One request per user with at least three interactions, in a seeded
    /// order: the full sequence minus the final item as history, paired with
    /// that final item — which is never ingested, so it stays unseen by every
    /// published version.
    pub probes: Vec<(RecommendRequest, ItemId)>,
}

/// Splits `data` for the online workload (see [`OnlineStream`]).
pub fn online_stream(seed: u64, data: &SequenceDataset) -> OnlineStream {
    let mut rng = SplitMix64::new(derive_seed(seed, 3));
    let mut order: Vec<usize> = (0..data.num_users()).collect();
    rng.shuffle(&mut order);

    let mut initial = Vec::with_capacity(data.num_users());
    let mut fresh: Vec<&[ItemId]> = Vec::with_capacity(data.num_users());
    for seq in &data.sequences {
        let half = seq.len().div_ceil(2);
        let held_out = usize::from(seq.len() >= 3);
        initial.push(seq[..half].to_vec());
        fresh.push(&seq[half..seq.len() - held_out]);
    }

    let longest = fresh.iter().map(|f| f.len()).max().unwrap_or(0);
    let mut ingest = Vec::with_capacity(fresh.iter().map(|f| f.len()).sum());
    for position in 0..longest {
        for &user in &order {
            if let Some(&item) = fresh[user].get(position) {
                ingest.push((user, item));
            }
        }
    }

    let mut probes: Vec<(RecommendRequest, ItemId)> = order
        .iter()
        .filter(|&&user| data.sequences[user].len() >= 3)
        .map(|&user| {
            let (history, target) = data.sequences[user].split_at(data.sequences[user].len() - 1);
            (RecommendRequest::new(user, history.to_vec(), K), target[0])
        })
        .collect();
    rng.shuffle(&mut probes);

    OnlineStream { initial: SequenceDataset::new("online-initial", initial, data.num_items), ingest, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::synthetic::DatasetProfile;

    fn stream_bytes(requests: &[RecommendRequest]) -> Vec<u8> {
        format!("{requests:?}").into_bytes()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_stream_and_another_seed_does_not() {
        let a = request_stream(7, 50, 300, 12);
        let b = request_stream(7, 50, 300, 12);
        let c = request_stream(8, 50, 300, 12);
        assert_eq!(stream_bytes(&a), stream_bytes(&b));
        assert_ne!(stream_bytes(&a), stream_bytes(&c));
        let mut users: Vec<usize> = a.iter().map(|r| r.user).collect();
        users.sort_unstable();
        assert_eq!(users, (0..50).collect::<Vec<_>>(), "every user asks exactly once per pass");
        assert!(a.iter().all(|r| r.history.len() == 12 && r.k == K && r.exclude_seen));
    }

    #[test]
    fn same_seed_gives_identical_ingest_order_and_another_seed_does_not() {
        let data = DatasetProfile::tiny("inputs").generate(3);
        let a = online_stream(11, &data);
        let b = online_stream(11, &data);
        let c = online_stream(12, &data);
        assert_eq!(a.ingest, b.ingest);
        assert_ne!(a.ingest, c.ingest);
        assert_eq!(format!("{:?}", a.probes), format!("{:?}", b.probes));
    }

    #[test]
    fn online_stream_partitions_every_sequence_and_never_ingests_the_probe_target() {
        let data = DatasetProfile::tiny("inputs").generate(5);
        let stream = online_stream(1, &data);
        let mut rebuilt: Vec<Vec<ItemId>> = stream.initial.sequences.clone();
        for &(user, item) in &stream.ingest {
            rebuilt[user].push(item);
        }
        for (request, target) in &stream.probes {
            assert_eq!(rebuilt[request.user], request.history, "history = initial half + everything ingested");
            rebuilt[request.user].push(*target);
        }
        assert_eq!(rebuilt, data.sequences);
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_capped() {
        let sample = sample_indices(4, 100, 30);
        assert_eq!(sample.len(), 30);
        assert!(sample.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(4, 10, 30), (0..10).collect::<Vec<_>>());
    }
}
