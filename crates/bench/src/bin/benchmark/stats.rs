//! Summaries of timing samples: nearest-rank percentiles, the rule for which
//! tail percentile a sample of a given size can support, and means over
//! slices of a window.
//!
//! The reference host is a shared machine that alternates between two speeds,
//! 30–45% apart, staying at one for anything from a second to minutes. A
//! window is cut into slices of consecutive calls, each slice is summarised
//! on its own (its p50, its p90), and the value reported is the **mean** of
//! the slice values. A quantile of the slice values — the median was gated
//! first — sits on a cliff: a window that is 45% slow reports the fast speed,
//! one that is 55% slow the slow speed, and ten runs of the same code spread
//! by the whole gap (25–26% for `batch_120k`'s median latency on the driver's
//! host, which refused the benchmark for it). The mean moves in proportion to
//! the share of slow slices, so it has no cliff, and it hides nothing: a
//! stall that hits one slice in ten still shows as a tenth of its size. The
//! median over slices is printed beside it and gates nothing.

/// The percentile ladder, in per-mille: p50, p90, p99, p99.9.
pub const LADDER_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is set by a handful of outliers and does
/// not repeat between runs.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The gated tail is p90, taken per slice of consecutive calls.
///
/// Why not p99, which every window but `batch_120k`'s has the samples for:
/// measured over ten 15 s runs per workload, whole-window p99 spread 15.6% on
/// `serve_solo_10k` and per-slice p99 still 8.9%, against 2.0% for per-slice
/// p90; and on `online_rounds` about 1% of requests collide with a publish,
/// so p99 sits on a cliff — 530 µs in one set of ten runs, 2930 µs in the
/// next. The whole-window p99, p99.9 and max are printed with every run.
pub const TAIL_PER_MILLE: usize = 900;

/// Calls per latency slice: ten samples beyond p90 in every slice, and a
/// slice that is short in time (0.04–0.2 s at 0.4–2 ms a call).
pub const TAIL_SLICE: usize = 100;

/// Calls per latency slice for `batch_120k`, whose calls take ~33 ms: a
/// hundred of them would span 3 s and a window would hold five slices. The
/// p90 of 20 has two samples beyond it, which no single slice could carry;
/// the mean over the window's twenty-odd slices does.
pub const SLOW_CALL_SLICE: usize = 20;

/// Nearest-rank percentile of an ascending-sorted sample: the
/// `⌈n · per_mille / 1000⌉`-th smallest value (integer rank math, no float
/// rounding). `None` for an empty sample.
pub fn percentile(sorted: &[u64], per_mille: usize) -> Option<u64> {
    let rank = (sorted.len() * per_mille).div_ceil(1000);
    sorted.get(rank.checked_sub(1)?).copied()
}

/// How many samples lie strictly beyond the nearest-rank position of
/// `per_mille` in a sample of `n`.
pub fn samples_beyond(n: usize, per_mille: usize) -> usize {
    n - (n * per_mille).div_ceil(1000)
}

/// The highest rung of [`LADDER_PER_MILLE`] that still has
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or the median when none has.
pub fn supported_tail_per_mille(n: usize) -> usize {
    LADDER_PER_MILLE
        .into_iter()
        .rev()
        .find(|&per_mille| samples_beyond(n, per_mille) >= MIN_SAMPLES_BEYOND)
        .unwrap_or(LADDER_PER_MILLE[0])
}

/// Summary of one window's latency samples: p50 and p90 are taken per slice
/// of consecutive calls, and the mean over slices is reported (see the module
/// docs); the median over slices and the whole-window percentiles ride along
/// for the printout.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    /// Mean over full slices of each slice's p50 / p90; the whole-sample
    /// percentile when there is no full slice.
    pub p50_ns: f64,
    pub p90_ns: f64,
    /// Full slices behind the two, and their length.
    pub slices: usize,
    pub slice_len: usize,
    /// Median over the same slices (printed, not gated).
    pub median_p50_ns: u64,
    pub median_p90_ns: u64,
    /// Whole-sample percentiles (printed, not gated).
    pub whole_p50_ns: u64,
    pub whole_p90_ns: u64,
    pub p99_ns: u64,
    pub p99_9_ns: u64,
    pub max_ns: u64,
}

impl Summary {
    /// Summarises `samples`, given in call order (they are sorted in place
    /// on the way); `None` when empty.
    pub fn of(samples: &mut [u64], slice_len: usize) -> Option<Self> {
        let (mut slice_p50, mut slice_p90) = (Vec::new(), Vec::new());
        for slice in samples.chunks_exact_mut(slice_len.max(1)) {
            slice.sort_unstable();
            slice_p50.extend(percentile(slice, 500));
            slice_p90.extend(percentile(slice, TAIL_PER_MILLE));
        }
        slice_p50.sort_unstable();
        slice_p90.sort_unstable();
        samples.sort_unstable();
        let whole_p50_ns = percentile(samples, 500)?;
        let whole_p90_ns = percentile(samples, TAIL_PER_MILLE)?;
        let mean_ns = |slice_values: &[u64], whole: u64| {
            let as_floats: Vec<f64> = slice_values.iter().map(|&ns| ns as f64).collect();
            mean(&as_floats).unwrap_or(whole as f64)
        };
        Some(Self {
            count: samples.len(),
            p50_ns: mean_ns(&slice_p50, whole_p50_ns),
            p90_ns: mean_ns(&slice_p90, whole_p90_ns),
            slices: slice_p50.len(),
            slice_len,
            median_p50_ns: percentile(&slice_p50, 500).unwrap_or(whole_p50_ns),
            median_p90_ns: percentile(&slice_p90, 500).unwrap_or(whole_p90_ns),
            whole_p50_ns,
            whole_p90_ns,
            p99_ns: percentile(samples, 990)?,
            p99_9_ns: percentile(samples, 999)?,
            max_ns: *samples.last()?,
        })
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns / 1e3
    }

    pub fn p90_us(&self) -> f64 {
        self.p90_ns / 1e3
    }

    /// One printable line: the two gated values, the median over the same
    /// slices, then the whole-window percentiles, each marked when fewer
    /// than ten samples lie beyond it.
    pub fn describe(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let weak =
            |per_mille| if samples_beyond(self.count, per_mille) < MIN_SAMPLES_BEYOND { "(<10 beyond)" } else { "" };
        format!(
            "n={} p50={:.1}us p90={:.1}us (mean of {} slices of {}; median slice p50={:.1}us p90={:.1}us) | whole window: p50={:.1}us p90={:.1}us{} p99={:.1}us{} p99.9={:.1}us{} max={:.1}us; highest percentile with >={MIN_SAMPLES_BEYOND} samples beyond it: p{}",
            self.count,
            self.p50_us(),
            self.p90_us(),
            self.slices,
            self.slice_len,
            us(self.median_p50_ns),
            us(self.median_p90_ns),
            us(self.whole_p50_ns),
            us(self.whole_p90_ns),
            weak(900),
            us(self.p99_ns),
            weak(990),
            us(self.p99_9_ns),
            weak(999),
            us(self.max_ns),
            supported_tail_per_mille(self.count) as f64 / 10.0,
        )
    }
}

/// Mean of a float sample; `None` when empty or when any value is NaN.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Median of a float sample (mean of the two middle values for even sizes);
/// `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Median of nanosecond samples, in microseconds (0 for an empty sample —
/// callers only pass non-empty replay timings).
pub fn median_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 500).map_or(0.0, |ns| ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 500), Some(50));
        assert_eq!(percentile(&hundred, 900), Some(90));
        assert_eq!(percentile(&hundred, 990), Some(99));
        assert_eq!(percentile(&hundred, 999), Some(100));
        assert_eq!(percentile(&[7], 500), Some(7));
        assert_eq!(percentile(&[10, 30], 500), Some(10));
        assert_eq!(percentile(&[10, 20, 30], 500), Some(20));
        assert_eq!(percentile(&[], 500), None);
        // 20 samples: rank(95%) = 19, not 20
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 950), Some(19));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(supported_tail_per_mille(1000), 990);
        // one sample fewer and p99 has only 9 beyond: fall back to p90
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(supported_tail_per_mille(999), 900);
        // p99.9 needs 10_000 samples
        assert_eq!(supported_tail_per_mille(9_999), 990);
        assert_eq!(supported_tail_per_mille(10_000), 999);
        // p90 needs 100; below that only the median is supported
        assert_eq!(supported_tail_per_mille(100), 900);
        assert_eq!(supported_tail_per_mille(99), 500);
        assert_eq!(supported_tail_per_mille(0), 500);
    }

    #[test]
    fn summary_reports_the_mean_of_slice_percentiles() {
        // 5 slices of 100 calls; two are hit by bursts that triple their
        // slowest 60%, three are left alone.
        let slice = |burst: bool| (1..=100u64).map(move |v| if burst && v > 40 { 3 * v } else { v });
        let mut samples: Vec<u64> = [true, false, false, true, false].into_iter().flat_map(slice).collect();
        let summary = Summary::of(&mut samples, TAIL_SLICE).unwrap();
        assert_eq!((summary.count, summary.slices, summary.slice_len), (500, 5, 100));
        // slice p50s are 50, 50, 50, 150, 150 and slice p90s 90, 90, 90, 270, 270
        assert_eq!((summary.p50_ns, summary.p90_ns), (90.0, 162.0), "two slow slices in five weigh two fifths");
        assert_eq!((summary.median_p50_ns, summary.median_p90_ns), (50, 90), "and leave the median where it was");
        assert_eq!((summary.whole_p50_ns, summary.whole_p90_ns), (57, 225));
        assert_eq!(summary.max_ns, 300);
        // one more slow slice moves the mean by a fifth of the gap, and the
        // median by all of it: the cliff the gated value must not sit on
        let mut samples: Vec<u64> = [true, false, true, true, false].into_iter().flat_map(slice).collect();
        let stalled = Summary::of(&mut samples, TAIL_SLICE).unwrap();
        assert_eq!((stalled.p50_ns, stalled.p90_ns), (110.0, 198.0));
        assert_eq!((stalled.median_p50_ns, stalled.median_p90_ns), (150, 270));
        let line = summary.describe();
        assert!(line.contains("p50=0.1us p90=0.2us (mean of 5 slices of 100; median slice p50=0.1us"), "{line}");
        assert!(line.contains("p99=0.3us(<10 beyond)"), "{line}");
        assert!(line.ends_with("beyond it: p90"), "{line}");
        // the gated tail has its ten samples in every slice
        assert_eq!(samples_beyond(TAIL_SLICE, TAIL_PER_MILLE), MIN_SAMPLES_BEYOND);
    }

    #[test]
    fn summary_falls_back_to_the_whole_sample_below_one_slice() {
        let mut samples: Vec<u64> = (1..=60).rev().collect();
        let small = Summary::of(&mut samples, TAIL_SLICE).unwrap();
        assert_eq!((small.slices, small.p90_ns, small.p50_ns, small.max_ns), (0, 54.0, 30.0, 60));
        assert!(small.describe().contains("p90=0.1us(<10 beyond)"));
        assert!(Summary::of(&mut [], TAIL_SLICE).is_none());
    }

    #[test]
    fn mean_and_median_of_floats() {
        assert_eq!(mean(&[3.0, 1.0, 5.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
        assert_eq!(median_us(&mut [3000, 1000, 2000]), 2.0);
    }
}
