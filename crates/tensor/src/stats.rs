//! Small descriptive-statistics helpers used by the evaluation crate and the
//! dataset-statistics experiments (Table 2, Figure 3, Figure 4 of the paper).

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `q`-th percentile (0.0..=1.0) using linear interpolation between
/// closest ranks. Returns 0.0 for an empty slice. Values are ordered by
/// `f64::total_cmp`, so a NaN input cannot panic the sort (a positive NaN
/// sorts above `+inf`, a negative one below `-inf`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!((0.0..=1.0).contains(&q), "percentile: q must be in [0, 1], got {q}");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A fixed-width histogram over `[min, max]` with `bins` buckets, returning
/// the fraction of values falling in each bucket. Values outside the range
/// are clamped into the first / last bucket. Used to reproduce the weight- and
/// frequency-distribution figures (Fig. 3 and Fig. 4).
pub fn histogram(values: &[f64], min: f64, max: f64, bins: usize) -> Vec<f64> {
    assert!(bins > 0, "histogram: bins must be > 0");
    assert!(max > min, "histogram: max must be > min");
    let mut counts = vec![0usize; bins];
    for &v in values {
        let t = ((v - min) / (max - min)).clamp(0.0, 1.0);
        let mut b = (t * bins as f64) as usize;
        if b == bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    let total = values.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known_value() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    /// The probe `most_similar_rows` panicked on, for the same comparator:
    /// random inputs of 64–2 063 values with about 10% NaN must not panic
    /// the sort.
    #[test]
    fn percentile_does_not_panic_on_nan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..1000 {
            let n = rng.gen_range(64..2064);
            let values: Vec<f64> =
                (0..n).map(|_| if rng.gen_bool(0.1) { f64::NAN } else { rng.gen_range(-1.0..1.0) }).collect();
            for q in [0.0, 0.5, 0.9, 1.0] {
                let _ = percentile(&values, q);
            }
        }
        assert_eq!(percentile(&[3.0, f64::NAN, 1.0, 2.0], 0.0), 1.0);
        assert!(percentile(&[3.0, f64::NAN, 1.0, 2.0], 1.0).is_nan(), "a positive NaN sorts last");
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let v = [0.05, 0.15, 0.15, 0.95, 1.5, -0.5];
        let h = histogram(&v, 0.0, 1.0, 10);
        assert_eq!(h.len(), 10);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // out-of-range values are clamped into first / last buckets
        assert!(h[0] > 0.0 && h[9] > 0.0);
        assert!((h[1] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bins must be > 0")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }
}
