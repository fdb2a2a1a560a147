//! Per-tier kernel dispatch accounting.
//!
//! Every kernel call notes (tier, effective operand bytes) here, so which
//! tier actually served traffic is a runtime fact readable from a snapshot —
//! not an assumption derived from `HAM_KERNEL_TIER`. The counters live in
//! this crate (not `ham-telemetry`) so the kernel layer stays dependency-
//! free; the telemetry snapshot pulls them in via its `push_counter` hook at
//! exposition time.
//!
//! Accounting is per thread: each recording thread leases a cache-line-
//! padded cell of its own from a registry the first time it notes a call,
//! and is that cell's only writer, so a note is a thread-local lookup plus a
//! relaxed load and store per counter — no lock-prefixed add on the path
//! every `dot` and `axpy` takes. Reads sum the registered cells and a
//! retired total: a thread that exits folds its counts into the retired
//! total and hands its cell back for the next new thread, so short-lived
//! threads do not grow the registry. The totals are exact once callers
//! quiesce.

use super::KernelTier;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const TIERS: usize = 3;

/// `[calls, bytes]` per tier.
type Counts = [[AtomicU64; 2]; TIERS];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_PAIR: [AtomicU64; 2] = [ZERO; 2];
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNTS: Counts = [ZERO_PAIR; TIERS];

/// One thread's counts, on a line of its own.
#[repr(align(128))]
struct Cell {
    counts: Counts,
}

/// The cells handed out to threads and the counts of threads that exited.
struct Registry {
    cells: Mutex<Cells>,
    retired: Counts,
}

struct Cells {
    /// Cells leased by live threads.
    live: Vec<&'static Cell>,
    /// Cells returned by exited threads, zeroed, ready to lease again.
    free: Vec<&'static Cell>,
}

impl Registry {
    const fn new() -> Self {
        Self { cells: Mutex::new(Cells { live: Vec::new(), free: Vec::new() }), retired: ZERO_COUNTS }
    }

    fn lock(&self) -> MutexGuard<'_, Cells> {
        // The lock guards two lists of `'static` references, which no panic
        // can leave inconsistent, so a poisoned lock is still usable.
        self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A zeroed cell for the calling thread: a returned one if any, else a
    /// new one (leaked — cells are recycled, never freed).
    fn lease(&'static self) -> Lease {
        let mut cells = self.lock();
        let cell = match cells.free.pop() {
            Some(cell) => cell,
            None => Box::leak(Box::new(Cell { counts: ZERO_COUNTS })),
        };
        cells.live.push(cell);
        Lease { registry: self, cell }
    }

    /// Adds `bytes` and one call to `counts[tier]` from a thread that holds
    /// no cell (one noting while its thread-locals are torn down).
    fn note_retired(&self, tier: usize, bytes: u64) {
        let [calls, total] = &self.retired[tier];
        // ordering: Relaxed — a counter needs only the add to be atomic;
        // readers take no other data from it.
        calls.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed, as above.
        total.fetch_add(bytes, Ordering::Relaxed);
    }

    /// `(calls, bytes)` of `tier`: the live cells plus the retired total.
    fn totals(&self, tier: usize) -> (u64, u64) {
        let cells = self.lock();
        let sum = |counts: &Counts| {
            let [calls, bytes] = &counts[tier];
            // ordering: Relaxed — each counter is read on its own; a
            // snapshot taken while threads still note may miss their latest
            // calls, and is exact once they quiesce.
            (calls.load(Ordering::Relaxed), bytes.load(Ordering::Relaxed))
        };
        cells.live.iter().map(|cell| sum(&cell.counts)).fold(sum(&self.retired), |(c, b), (dc, db)| (c + dc, b + db))
    }

    /// Zeroes every live cell and the retired total.
    fn reset(&self) {
        let cells = self.lock();
        for counts in cells.live.iter().map(|cell| &cell.counts).chain([&self.retired]) {
            for counter in counts.iter().flatten() {
                // ordering: Relaxed — a reset is exact only when recorders
                // are quiescent (a concurrent note may store its old count
                // back over the zero), which no ordering would change.
                counter.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A thread's claim on one [`Cell`]; dropping it (the thread exiting)
/// retires the counts and returns the cell.
struct Lease {
    registry: &'static Registry,
    cell: &'static Cell,
}

impl Lease {
    /// Adds one call and `bytes` to `tier` in this thread's cell.
    #[inline]
    fn note(&self, tier: usize, bytes: u64) {
        let [calls, total] = &self.cell.counts[tier];
        // ordering: Relaxed — this thread is the cell's only writer, so a
        // load and a store replace an atomic add; readers need each value
        // to be some value the writer stored, nothing more.
        calls.store(calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // ordering: Relaxed, single writer as above.
        total.store(total.load(Ordering::Relaxed) + bytes, Ordering::Relaxed);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Under the lock, so a snapshot sees the counts either in the cell
        // or in the retired total, never in both or neither.
        let mut cells = self.registry.lock();
        for (cell, retired) in self.cell.counts.iter().flatten().zip(self.registry.retired.iter().flatten()) {
            // ordering: Relaxed — the registry lock orders this fold against
            // snapshots and resets; the cell's writer is this exiting thread.
            retired.fetch_add(cell.load(Ordering::Relaxed), Ordering::Relaxed);
            // ordering: Relaxed, as above.
            cell.store(0, Ordering::Relaxed);
        }
        cells.live.retain(|&cell| !std::ptr::eq(cell, self.cell));
        cells.free.push(self.cell);
    }
}

static REGISTRY: Registry = Registry::new();

thread_local! {
    static LEASE: Lease = REGISTRY.lease();
}

#[inline]
fn tier_index(tier: KernelTier) -> usize {
    match tier {
        KernelTier::Portable => 0,
        KernelTier::Avx2 => 1,
        KernelTier::Avx512 => 2,
    }
}

/// Notes one kernel invocation on `tier` touching `bytes` of operand data.
/// Called by every `*_impl` dispatch body; a relaxed load and store per
/// counter in this thread's cell.
#[inline]
pub(super) fn note(tier: KernelTier, bytes: u64) {
    let tier = tier_index(tier);
    if LEASE.try_with(|lease| lease.note(tier, bytes)).is_err() {
        REGISTRY.note_retired(tier, bytes);
    }
}

/// One tier's accumulated dispatch totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierCounters {
    /// The tier these totals belong to.
    pub tier: KernelTier,
    /// Kernel invocations dispatched to this tier.
    pub calls: u64,
    /// Effective operand bytes those invocations touched (inputs + outputs,
    /// quantized payloads at 1 byte/element).
    pub bytes: u64,
}

/// Current totals for every tier (zero entries included, portable first).
pub fn snapshot() -> [TierCounters; TIERS] {
    let read = |tier: KernelTier| {
        let (calls, bytes) = REGISTRY.totals(tier_index(tier));
        TierCounters { tier, calls, bytes }
    };
    [read(KernelTier::Portable), read(KernelTier::Avx2), read(KernelTier::Avx512)]
}

/// Zeroes every counter (benchmark setup). A call noted concurrently may
/// survive the reset; quiesce callers first for exact zeros.
pub fn reset() {
    REGISTRY.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry of the test's own: the process-global one is noted by
    /// every kernel call of every sibling test.
    static PRIVATE: Registry = Registry::new();

    thread_local! {
        static PRIVATE_LEASE: Lease = PRIVATE.lease();
    }

    fn note_private(tier: usize, bytes: u64) {
        PRIVATE_LEASE.with(|lease| lease.note(tier, bytes));
    }

    #[test]
    fn notes_from_exited_threads_are_retired_exactly_and_cells_are_reused() {
        // The exact totals go through the same cells, leases and sums as the
        // global path, on threads that exit (and retire) before the read.
        for round in 1..=2u64 {
            // Joined by handle: a join waits for the thread to exit, which
            // drops its lease; the scope alone does not wait that long.
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            for _ in 0..100 {
                                note_private(0, 64);
                            }
                        })
                    })
                    .collect();
                threads.into_iter().for_each(|thread| thread.join().expect("noting thread"));
            });
            assert_eq!(PRIVATE.totals(0), (round * 400, round * 400 * 64));
            assert_eq!(PRIVATE.totals(1), (0, 0));
            let cells = PRIVATE.lock();
            assert!(cells.live.is_empty(), "every exited thread returned its cell");
            assert!(cells.free.len() <= 4, "the second round reuses the first round's cells");
        }
        // A live thread's cell is summed too, and reset zeroes both parts.
        note_private(2, 8);
        assert_eq!(PRIVATE.totals(2), (1, 8));
        PRIVATE.reset();
        assert_eq!(PRIVATE.totals(0), (0, 0));
        assert_eq!(PRIVATE.totals(2), (0, 0));
    }

    #[test]
    fn the_global_counters_are_monotone_under_note() {
        let before = snapshot()[tier_index(KernelTier::Portable)];
        note(KernelTier::Portable, 64);
        let after = snapshot()[tier_index(KernelTier::Portable)];
        assert!(after.calls > before.calls && after.bytes >= before.bytes + 64);
        assert_eq!(after.tier, KernelTier::Portable);
    }
}
