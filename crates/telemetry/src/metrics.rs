//! The lock-free metric primitives: counters, gauges and sharded
//! log2-bucketed histograms.
//!
//! Every record path is wait-free — a relaxed atomic RMW, nothing else. The
//! histogram additionally shards its buckets per recording thread (threads
//! are assigned round-robin to a small set of cache-line-padded shards on
//! first record), so concurrent recorders on the serving and training hot
//! paths never contend on one cache line. Reads merge the shards by plain
//! `u64` addition, which is commutative and associative — a quiesced
//! histogram's snapshot is a pure function of the recorded multiset of
//! values, independent of which thread recorded what (pinned by the
//! determinism proptest in `tests/metrics_core.rs`).

use serde::{field, DeError, Deserialize, Serialize, Value};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count (wait-free, relaxed atomics).
///
/// Clones share the underlying cell, so a component can hold the handle it
/// resolved at construction while the registry serves snapshots of the same
/// value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value — queue depths, staleness seconds
/// (wait-free, relaxed atomics). Clones share the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Buckets per histogram: bucket 0 holds exact zeros, bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`. 64 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Recording shards per histogram (power of two; threads are assigned
/// round-robin). Eight shards bound the worst case on this workspace's
/// pool sizes while keeping snapshots an 8×64 add.
const SHARDS: usize = 8;

/// One thread-sharded slice of a histogram's state, padded to its own cache
/// lines so recorders on different shards never false-share.
#[repr(align(128))]
struct HistogramShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramShard {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Round-robin assignment of recording threads to histogram shards: the
/// first record from a thread draws the process-wide next index. One index
/// serves every histogram — the point is spreading *threads*, not values.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD.with(|slot| {
        let cached = slot.get();
        if cached != usize::MAX {
            return cached;
        }
        let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
        slot.set(assigned);
        assigned
    })
}

/// The log2 bucket of a value: 0 for 0, otherwise `64 − leading_zeros`, so
/// bucket `b` spans `[2^(b-1), 2^b)` and the top bucket absorbs everything
/// from `2^62` up.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper edge of a bucket (`u64::MAX` for the top bucket,
/// which also catches values whose log2 bucket would exceed the array).
fn bucket_upper_edge(bucket: usize) -> u64 {
    if bucket >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// micro/nanoseconds, batch sizes, row counts).
///
/// Recording is a handful of relaxed `fetch_add`s into the recording
/// thread's shard; reading merges the shards deterministically (see the
/// module docs). Quantiles come from the bucket edges, so they are exact to
/// within one power of two and clamped to the observed maximum.
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<[HistogramShard]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| HistogramShard::new()).collect() }
    }

    /// Records one sample (wait-free).
    #[inline]
    // ham-lint: hot-path
    pub fn record(&self, value: u64) {
        let shard = &self.shards[thread_shard()];
        shard.buckets[bucket_of(value).min(HISTOGRAM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges the shards into an owned snapshot. Concurrent records may or
    /// may not be included (each whole sample eventually is); once recorders
    /// quiesce, the snapshot depends only on the recorded values.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            for (merged, bucket) in buckets.iter_mut().zip(&shard.buckets) {
                *merged += bucket.load(Ordering::Relaxed);
            }
            count += shard.count.load(Ordering::Relaxed);
            sum += shard.sum.load(Ordering::Relaxed);
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        HistogramSnapshot { count, sum, max, buckets }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram").field("count", &snap.count).field("sum", &snap.sum).field("max", &snap.max).finish()
    }
}

/// An owned, merged view of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
    /// Per-bucket counts; bucket 0 is exact zeros, bucket `b` spans
    /// `[2^(b-1), 2^b)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile at `per_mille`/1000 (e.g. 500 = p50,
    /// 999 = p99.9), resolved to the containing bucket's inclusive upper
    /// edge and clamped to the observed maximum. Zero when empty.
    ///
    /// Uses the same exact integer rank math as `LatencyStats`:
    /// rank = `⌈count · per_mille / 1000⌉`.
    pub fn quantile_per_mille(&self, per_mille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * per_mille.min(1000)).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_edge(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution, see [`Self::quantile_per_mille`]).
    fn p50(&self) -> u64 {
        self.quantile_per_mille(500)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile_per_mille(990)
    }

    /// 99.9th percentile (bucket-resolution).
    fn p999(&self) -> u64 {
        self.quantile_per_mille(999)
    }

    /// Combines two measurement windows (counts and buckets add, maxima
    /// take the larger).
    pub fn merge(&self, other: &Self) -> Self {
        let mut buckets = self.buckets.clone();
        buckets.resize(buckets.len().max(other.buckets.len()), 0);
        for (merged, &n) in buckets.iter_mut().zip(&other.buckets) {
            *merged += n;
        }
        Self { count: self.count + other.count, sum: self.sum + other.sum, max: self.max.max(other.max), buckets }
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        // Buckets are serialized sparsely as (bucket, count) pairs: almost
        // every histogram occupies a handful of its 64 buckets.
        let sparse: Vec<(u64, u64)> =
            self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(b, &n)| (b as u64, n)).collect();
        Value::Object(vec![
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("max".to_string(), self.max.to_value()),
            ("p50".to_string(), self.p50().to_value()),
            ("p99".to_string(), self.p99().to_value()),
            ("p999".to_string(), self.p999().to_value()),
            ("buckets".to_string(), sparse.to_value()),
        ])
    }
}

impl Deserialize for HistogramSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::new("HistogramSnapshot: expected object"))?;
        let sparse: Vec<(u64, u64)> = field(obj, "buckets")?;
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for (bucket, n) in sparse {
            let bucket = bucket as usize;
            if bucket >= buckets.len() {
                return Err(DeError::new(format!("HistogramSnapshot: bucket {bucket} out of range")));
            }
            buckets[bucket] = n;
        }
        Ok(Self { count: field(obj, "count")?, sum: field(obj, "sum")?, max: field(obj, "max")?, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(10), 1023);
        assert_eq!(bucket_upper_edge(63), u64::MAX);
    }

    #[test]
    fn histogram_counts_sums_and_maxima() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 700, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1_000_711);
        assert_eq!(snap.max, 1_000_000);
        assert_eq!(snap.buckets[0], 1, "exact zero lands in bucket 0");
        assert_eq!(snap.buckets[bucket_of(5)], 2);
    }

    #[test]
    fn quantiles_resolve_to_bucket_edges_clamped_to_max() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(9_000); // bucket [8192, 16384)
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 127, "p50 is the [64,128) bucket's upper edge");
        assert_eq!(snap.p99(), 127, "rank 99 still falls in the low bucket");
        assert_eq!(snap.p999(), 9_000, "the top sample clamps to the observed max");
        assert_eq!(snap.quantile_per_mille(1000), 9_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!((snap.count, snap.sum, snap.max, snap.p50(), snap.p999()), (0, 0, 0, 0, 0));
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn snapshot_merge_adds_windows() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [10u64, 20] {
            b.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 36);
        assert_eq!(merged.max, 20);

        let all = Histogram::new();
        for v in [1u64, 2, 3, 10, 20] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot(), "merging windows equals recording everything into one");
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 43, "clones share the cell");

        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_snapshot_serde_round_trip() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 900, 1 << 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: HistogramSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snap, back);
    }
}
