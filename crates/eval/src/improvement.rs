//! Percentage-improvement summaries (the `imp%` columns of Tables 3–8 and the
//! whole of Table 9).

/// Percentage improvement of `ours` over `baseline`
/// (`(ours − baseline) / baseline · 100`). Returns 0.0 when the baseline is 0.
fn percent_improvement(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (ours - baseline) / baseline * 100.0
}

/// The `imp%` column of Tables 3–8: the improvement of the best HAM variant
/// over the best non-HAM baseline on one dataset/metric.
pub fn best_vs_best_improvement(ham_values: &[f64], baseline_values: &[f64]) -> f64 {
    let best_ham = ham_values.iter().cloned().fold(f64::MIN, f64::max);
    let best_baseline = baseline_values.iter().cloned().fold(f64::MIN, f64::max);
    if ham_values.is_empty() || baseline_values.is_empty() {
        return 0.0;
    }
    percent_improvement(best_ham, best_baseline)
}

/// The Table 9 aggregation: the mean percentage improvement of one method
/// over another across datasets (each pair `(ours, theirs)` is one dataset).
pub fn mean_improvement(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().map(|&(ours, theirs)| percent_improvement(ours, theirs)).sum::<f64>() / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_percentages() {
        assert!((percent_improvement(0.11, 0.10) - 10.0).abs() < 1e-9);
        assert!((percent_improvement(0.09, 0.10) + 10.0).abs() < 1e-9);
        assert_eq!(percent_improvement(0.5, 0.0), 0.0);
    }

    #[test]
    fn best_vs_best_uses_maxima_of_both_groups() {
        let ham = [0.10, 0.12, 0.11];
        let baselines = [0.08, 0.10];
        assert!((best_vs_best_improvement(&ham, &baselines) - 20.0).abs() < 1e-9);
        assert_eq!(best_vs_best_improvement(&[], &baselines), 0.0);
    }

    #[test]
    fn mean_improvement_averages_across_datasets() {
        let pairs = [(0.11, 0.10), (0.22, 0.20), (0.10, 0.10)];
        assert!((mean_improvement(&pairs) - (10.0 + 10.0 + 0.0) / 3.0).abs() < 1e-9);
        assert_eq!(mean_improvement(&[]), 0.0);
    }
}
