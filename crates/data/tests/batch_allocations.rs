//! Batch assembly's allocation budget, counted by a global allocator (a test
//! binary of its own: the allocator is process-wide). The `batch` module
//! promises no per-instance allocation after the first epoch, and the window
//! store promises no allocation per window at construction.

use ham_data::batch::BatchSampler;
use ham_data::dataset::ItemId;
use ham_data::synthetic::DatasetProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (fresh or resizing) made by this thread. A `const`
    /// `Cell<u64>` has no destructor and never allocates when touched.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's `alloc`, `alloc_zeroed` and
/// `realloc` calls.
struct CountingAllocator;

fn count_one() {
    // `try_with` so an allocation made while the thread tears down its
    // locals is served, just not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Runs `f`, returning its result and the allocations this thread made in it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Drains one epoch, returning the number of instances it packed.
fn drain_epoch(sampler: &mut BatchSampler) -> usize {
    sampler.start_epoch();
    let mut instances = 0;
    while let Some(batch) = sampler.next_batch() {
        instances += batch.len();
    }
    instances
}

#[test]
fn the_second_epoch_allocates_nothing() {
    let data = DatasetProfile::tiny("batch-allocations").generate(3);
    for (n_l, batch_size) in [(2, 1), (0, 7), (2, 64), (1, 1 << 20)] {
        let mut sampler = BatchSampler::new(&data.sequences, data.num_items, 4, 3, n_l, batch_size, 5);
        let first = drain_epoch(&mut sampler);
        let (second, allocations) = counted(|| drain_epoch(&mut sampler));
        assert!(second > 0 && second == first, "both epochs visit every window");
        assert_eq!(allocations, 0, "epoch 2 at n_l {n_l}, batch {batch_size} allocated");
    }
}

#[test]
fn construction_allocates_per_user_not_per_window() {
    // Every sequence repeats an item, so each user's seen set shrinks after
    // deduplication on both sides; user 3 is too short for a window and user
    // 4 saw the whole catalogue.
    let num_items = 40;
    let base: Vec<Vec<ItemId>> = vec![
        vec![1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11],
        vec![12, 13, 12, 14, 15, 16, 17, 18, 19, 20],
        vec![21, 22, 23, 24, 25, 26, 21, 27, 28],
        vec![30, 30],
        (0..num_items).chain([0]).collect(),
    ];
    // The same users with the same seen sets and four times the sequence.
    let longer: Vec<Vec<ItemId>> = base.iter().map(|seq| seq.repeat(4)).collect();
    let build = |sequences: &[Vec<ItemId>]| counted(|| BatchSampler::new(sequences, num_items, 3, 2, 1, 16, 9));
    let (short, short_allocations) = build(&base);
    let (long, long_allocations) = build(&longer);
    assert!(long.num_instances() >= 4 * short.num_instances(), "the longer dataset has 4x the windows");
    assert_eq!(long_allocations, short_allocations, "construction allocations grew with the window count");
}
