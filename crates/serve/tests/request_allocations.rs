//! A served request's allocation count, counted by a global allocator (a
//! test binary of its own: the allocator is process-wide, and the binary
//! holds a single test so that no sibling test allocates while a request is
//! counted).
//!
//! The request is a lone `recommend_with` call on a reused `ServeScratch`,
//! its shard tasks in turn on the caller, at 1 and 4 shards, for a HAM
//! snapshot and a baseline's. The count covers the whole call: the query
//! vector the model builds, the one-row query matrix, the shard selects and
//! their merge, and the returned list. The request itself is built outside
//! the count, and a first call per snapshot warms the scratch (its tiles grow
//! once, to the shard) and the thread's one-time state. Under
//! `HAM_RETRIEVAL=ivf` every snapshot is clustered, which selects per
//! cluster and has a count of its own.
//!
//! The HAM and the baseline snapshot differ by a constant 6 per request:
//! HAMs_m's query (windows, pooling, synergy terms) allocates more than
//! BPR-MF's copied factor row.

use ham_baselines::common::BaselineTrainConfig;
use ham_baselines::{BprMf, BprMfConfig};
use ham_core::{HamConfig, HamModel, HamVariant};
use ham_data::synthetic::DatasetProfile;
use ham_serve::{IvfConfig, RecommendRequest, ServeScratch, ServingModel, PROBE_ALL};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations (fresh or resizing) made by any thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic
// increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of each warmed `recommend_with` call over `requests`, summed.
/// The count depends on the request (how far a history's items reach into
/// the shard selects), not on the call: a second pass counts the same.
fn allocations(serving: &ServingModel, requests: &[RecommendRequest]) -> u64 {
    let mut scratch = ServeScratch::new();
    serving.recommend_with(&requests[0], &mut scratch);
    let mut pass = || -> Vec<u64> {
        requests
            .iter()
            .map(|request| {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let served = serving.recommend_with(request, &mut scratch);
                let after = ALLOCATIONS.load(Ordering::Relaxed);
                assert_eq!(served.len(), request.k);
                after - before
            })
            .collect()
    };
    let (first, second) = (pass(), pass());
    assert_eq!(first, second, "{}: a request's count moved between passes", serving.name());
    first.iter().sum()
}

#[test]
fn a_served_request_allocates_a_fixed_number_of_times() {
    let data = DatasetProfile::tiny("request-allocations").generate(5);
    let (users, items) = (data.sequences.len(), data.num_items);
    let ham = Arc::new(HamModel::new(
        users,
        items,
        HamConfig::for_variant(HamVariant::HamSM).with_dimensions(16, 5, 2, 3, 2),
        3,
    ));
    let train = BaselineTrainConfig { epochs: 1, ..BaselineTrainConfig::default() };
    let mf = Arc::new(BprMf::fit(&data.sequences, items, &BprMfConfig { d: 16, ..Default::default() }, &train, 4));
    let requests: Vec<RecommendRequest> =
        (0..8).map(|u| RecommendRequest::new(u, data.sequences[u].clone(), 10)).collect();

    // `(shards, HAM's count, BPR-MF's count)` over the eight requests, flat
    // and clustered. A probe narrowed by `HAM_IVF_NPROBE` scans fewer
    // clusters, which changes the count; that setting has none pinned.
    let expected: [(usize, u64, u64); 2] = match IvfConfig::from_env() {
        None => [(1, 175, 127), (4, 273, 225)],
        Some(config) if config.nprobe == PROBE_ALL => [(1, 319, 271), (4, 657, 609)],
        Some(_) => return,
    };
    for (shards, want_ham, want_mf) in expected {
        let ham_serving = ServingModel::from_scorer("ham", Arc::clone(&ham), shards).expect("a snapshot");
        let mf_serving = ServingModel::from_scorer("bpr-mf", Arc::clone(&mf), shards).expect("a snapshot");
        let (got_ham, got_mf) = (allocations(&ham_serving, &requests), allocations(&mf_serving, &requests));
        assert_eq!(got_ham, want_ham, "HAM at {shards} shard(s)");
        assert_eq!(got_mf, want_mf, "BPR-MF at {shards} shard(s)");
    }
}
