//! Software prefetch: a hint that starts loading a slice's cache lines
//! before the code reads them.
//!
//! The training loops read rows at random (embedding rows of the next
//! instance, the next window's items, the next Adam row), so each read
//! waits for memory unless it was asked for ahead of time. [`slice()`] issues
//! one `prefetcht0` per 64-byte line the slice touches. A prefetch changes
//! no value and never faults, so calling it at a wrong distance, on a stale
//! row or not at all can only change speed, never a result. Off x86_64 it
//! compiles to nothing.

/// Bytes per cache line on every x86_64 part this crate targets.
const LINE: usize = 64;

/// Hints the CPU to load every cache line `data` touches into all cache
/// levels. Reads nothing and returns at once; an empty slice issues no hint.
#[inline(always)]
pub fn slice<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(data);
        if bytes == 0 {
            return;
        }
        let start = data.as_ptr().cast::<i8>();
        // From the start of the line holding the first byte to the line
        // holding the last one.
        let mut offset = -((start as usize % LINE) as isize);
        while offset < bytes as isize {
            // SAFETY: `prefetcht0` is part of SSE, which every x86_64 CPU
            // has; it performs no architectural memory access, cannot fault
            // and reads nothing back, so any address is sound. The address
            // stays within the slice's first and last cache lines anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_offset(offset)) };
            offset += LINE as isize;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A prefetch leaves every value as it was, on aligned, unaligned,
    /// empty and zero-sized slices.
    #[test]
    fn prefetching_changes_nothing() {
        let values: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let before = values.clone();
        for start in 0..5 {
            for len in [0, 1, 15, 16, 17, 33, 95 - start] {
                slice(&values[start..start + len]);
            }
        }
        slice::<()>(&[(); 8]);
        slice::<u8>(&[]);
        assert_eq!(values, before);
    }
}
