//! The training step's allocation budget, counted by a global allocator (a
//! test binary of its own: the allocator is process-wide). The trainer keeps
//! its gradient buffers for the whole run, so a run of 4 epochs allocates
//! exactly as often as a run of 2 — nothing per batch — inline with one
//! gradient block per batch and inline with three (the lane store merged
//! into the batch store). With the blocks on two pool threads the only
//! difference is the pool's own cost of each fan-out (its scope state and
//! boxed tasks), measured here on empty tasks.
//!
//! The count is process-wide, not per thread: on the threaded path the lanes
//! run on pool workers, and which thread first grows a lane's buffers is up
//! to the scheduler. The binary holds a single test so that no sibling test
//! allocates while a run is counted.
//!
//! The online trainer's rounds keep their buffers too: on one sampler, a
//! `TrainerState` round after the first allocates exactly as often as the
//! one before it — only the returned epoch history.

use ham_core::{train_with_history, HamConfig, HamVariant, TrainConfig, TrainerState};
use ham_data::batch::BatchSampler;
use ham_data::synthetic::DatasetProfile;
use ham_tensor::pool::global_pool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Runs `f`, returning its result and the allocations made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Instances per analytic gradient block (the trainer's `MANUAL_BLOCK`).
const ANALYTIC_BLOCK: usize = 256;

/// Pool tasks a batch of `len` instances fans out to on `threads` threads:
/// none when its blocks run inline, else one per contiguous group of blocks.
fn pool_tasks(len: usize, threads: usize) -> usize {
    let blocks = len.div_ceil(ANALYTIC_BLOCK);
    if len == 1 || threads < 2 || blocks < 2 {
        return 0;
    }
    blocks.div_ceil(blocks.div_ceil(threads))
}

/// What one pool scope of `tasks` empty tasks allocates — the fan-out's own
/// cost (scope state, boxed tasks), which the trainer does not control.
fn scope_allocations(tasks: usize) -> u64 {
    let run = || {
        global_pool().scope(|scope| {
            for _ in 0..tasks {
                scope.spawn(|| {});
            }
        })
    };
    run();
    counted(run).1
}

/// Allocations of the second and the third `TrainerState` round of one
/// epoch each on one sampler.
fn later_round_allocations(data: &ham_data::dataset::SequenceDataset, config: &HamConfig) -> (u64, u64) {
    let tc = TrainConfig { batch_size: 256, ..TrainConfig::default() };
    let mut state = TrainerState::new(data.sequences.len(), data.num_items, config, &tc, 3);
    let mut sampler =
        BatchSampler::new(&data.sequences, data.num_items, config.n_h, config.n_p, config.n_l, tc.batch_size, 4);
    state.train_round(&mut sampler, 1);
    let (_, second) = counted(|| state.train_round(&mut sampler, 1));
    let (_, third) = counted(|| state.train_round(&mut sampler, 1));
    (second, third)
}

#[test]
fn training_allocates_nothing_per_batch() {
    let data = DatasetProfile::tiny("train-allocations").generate(6);
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(16, 5, 2, 3, 2);
    let cases = [(256, 1), (600, 1), (600, 2)];
    for (batch_size, num_threads) in cases {
        let run = |epochs: usize| {
            let tc = TrainConfig { epochs, batch_size, num_threads, ..TrainConfig::default() };
            counted(|| train_with_history(&data.sequences, data.num_items, &config, &tc, 3))
        };
        // A first run pays the process's one-time costs (the pool's
        // workers, per-thread kernel counters).
        run(1);
        let ((_, short), short_allocations) = run(2);
        let ((_, long), long_allocations) = run(4);
        let instances = short[0].num_instances;
        assert!(instances > batch_size, "every case needs more than one batch per epoch");
        assert!(long.iter().all(|epoch| epoch.num_instances == instances));
        // The pool's own per-scope allocations over the two extra epochs.
        let batches = (0..instances).step_by(batch_size).map(|start| (instances - start).min(batch_size));
        let per_epoch_fan_out: u64 = batches
            .map(|len| match pool_tasks(len, num_threads) {
                0 => 0,
                tasks => scope_allocations(tasks),
            })
            .sum();
        assert_eq!(per_epoch_fan_out > 0, num_threads > 1, "the threaded case fans its blocks out");
        assert_eq!(
            long_allocations,
            short_allocations + 2 * per_epoch_fan_out,
            "batch {batch_size} on {num_threads} thread(s): two more epochs allocated {} times beyond the pool's \
             {} per epoch",
            long_allocations.saturating_sub(short_allocations),
            per_epoch_fan_out,
        );
    }

    // The rounds of an online trainer: the third allocates as often as the
    // second, and that is once — the returned history.
    let (second, third) = later_round_allocations(&data, &config);
    assert_eq!(third, second, "a later round allocated {third} times where the one before allocated {second}");
    assert_eq!(second, 1, "a round after the first allocates only its epoch history, not {second} times");
}
