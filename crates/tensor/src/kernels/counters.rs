//! Per-tier kernel dispatch accounting.
//!
//! Every kernel call notes (tier, effective operand bytes) here, so which
//! tier actually served traffic is a runtime fact readable from a snapshot —
//! not an assumption derived from `HAM_KERNEL_TIER`. The counters live in
//! this crate (not `ham-telemetry`) so the kernel layer stays dependency-
//! free; the telemetry snapshot pulls them in via its `push_counter` hook at
//! exposition time.
//!
//! Accounting is wait-free and striped: each tier owns a small set of
//! cache-line-padded slots and recording threads are spread across them
//! round-robin (same scheme as the telemetry histogram shards), so pool
//! workers hammering the GEMM inside a parallel shard scan never contend on
//! one line. Reads sum the stripes — the totals are exact once callers
//! quiesce.

use super::KernelTier;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const TIERS: usize = 3;
const STRIPES: usize = 8;

#[repr(align(128))]
#[derive(Default)]
struct Stripe {
    calls: AtomicU64,
    bytes: AtomicU64,
}

struct TierCells {
    stripes: [Stripe; STRIPES],
}

impl TierCells {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const STRIPE: Stripe = Stripe { calls: AtomicU64::new(0), bytes: AtomicU64::new(0) };
        Self { stripes: [STRIPE; STRIPES] }
    }

    /// Two relaxed adds on the calling thread's stripe.
    #[inline]
    fn note(&self, bytes: u64) {
        let stripe = &self.stripes[thread_stripe()];
        stripe.calls.fetch_add(1, Ordering::Relaxed);
        stripe.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// `(calls, bytes)` summed over the stripes.
    fn totals(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(calls, bytes), stripe| {
            (calls + stripe.calls.load(Ordering::Relaxed), bytes + stripe.bytes.load(Ordering::Relaxed))
        })
    }
}

static CELLS: [TierCells; TIERS] = [TierCells::new(), TierCells::new(), TierCells::new()];

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn thread_stripe() -> usize {
    THREAD_STRIPE.with(|slot| {
        let cached = slot.get();
        if cached != usize::MAX {
            return cached;
        }
        let assigned = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
        slot.set(assigned);
        assigned
    })
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
/// Called by every `*_impl` dispatch body; two relaxed adds on this thread's
/// stripe.
#[inline]
pub(super) fn note(tier: KernelTier, bytes: u64) {
    CELLS[tier_index(tier)].note(bytes);
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
        let (calls, bytes) = CELLS[tier_index(tier)].totals();
        TierCounters { tier, calls, bytes }
    };
    [read(KernelTier::Portable), read(KernelTier::Avx2), read(KernelTier::Avx512)]
}

/// Zeroes every stripe (benchmark setup). Concurrent recorders may land
/// adds on either side of the sweep; quiesce callers first for exact zeros.
pub fn reset() {
    for cells in &CELLS {
        for stripe in &cells.stripes {
            stripe.calls.store(0, Ordering::Relaxed);
            stripe.bytes.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates_and_snapshot_sums_stripes() {
        // The process-global cells are noted by every kernel call of every
        // sibling test, so the exact totals are asserted on cells of this
        // test's own — the same type, note and sum the globals go through.
        let cells = TierCells::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        cells.note(64);
                    }
                });
            }
        });
        let (calls, bytes) = cells.totals();
        assert_eq!(calls, 400);
        assert_eq!(bytes, 400 * 64);
        // The global path: tiers in snapshot order, and monotone under note.
        let before = snapshot()[tier_index(KernelTier::Portable)];
        note(KernelTier::Portable, 64);
        let after = snapshot()[tier_index(KernelTier::Portable)];
        assert!(after.calls > before.calls && after.bytes >= before.bytes + 64);
        assert_eq!(after.tier, KernelTier::Portable);
    }
}
