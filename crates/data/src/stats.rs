//! Dataset statistics (Table 2 of the paper) and the item-frequency
//! distribution used by Figure 3.

use crate::dataset::SequenceDataset;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a dataset, matching the columns of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Number of interactions.
    pub num_interactions: usize,
    /// Average interactions per user (`#intrns/u`).
    pub interactions_per_user: f64,
    /// Average interactions per item (`#u/i`).
    pub interactions_per_item: f64,
    /// Density of the interaction matrix.
    pub density: f64,
}

impl DatasetStats {
    /// Computes the statistics of a dataset.
    pub fn compute(dataset: &SequenceDataset) -> Self {
        Self {
            name: dataset.name.clone(),
            num_users: dataset.num_users(),
            num_items: dataset.num_items,
            num_interactions: dataset.num_interactions(),
            interactions_per_user: dataset.interactions_per_user(),
            interactions_per_item: dataset.interactions_per_item(),
            density: dataset.density(),
        }
    }

    /// Formats the statistics as one row of a Table 2-style report.
    pub fn table_row(&self) -> String {
        format!(
            "{:<10} {:>8} {:>8} {:>10} {:>10.1} {:>8.1}",
            self.name,
            self.num_users,
            self.num_items,
            self.num_interactions,
            self.interactions_per_user,
            self.interactions_per_item
        )
    }
}

/// The Figure 3 study: item frequencies, log-transformed and expressed as
/// percentiles, bucketed into a histogram of item fractions.
///
/// Returns `(percentile grid in [0, 1], fraction of items at each grid cell)`.
pub fn item_frequency_distribution(dataset: &SequenceDataset, bins: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(bins > 0, "item_frequency_distribution: bins must be positive");
    let freqs = dataset.item_frequencies();
    let logs: Vec<f64> = freqs.iter().filter(|&&f| f > 0).map(|&f| (f as f64).ln()).collect();
    if logs.is_empty() {
        return ((0..bins).map(|b| b as f64 / bins as f64).collect(), vec![0.0; bins]);
    }
    let max = logs.iter().cloned().fold(f64::MIN, f64::max);
    let min = logs.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let normalized: Vec<f64> = logs.iter().map(|&l| (l - min) / span).collect();
    let hist = ham_tensor::stats::histogram(&normalized, 0.0, 1.0, bins);
    let grid = (0..bins).map(|b| (b as f64 + 0.5) / bins as f64).collect();
    (grid, hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SequenceDataset {
        SequenceDataset::new("toy", vec![vec![0, 1, 2, 0], vec![0, 3], vec![0, 0, 1]], 4)
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = DatasetStats::compute(&toy());
        assert_eq!(s.num_users, 3);
        assert_eq!(s.num_items, 4);
        assert_eq!(s.num_interactions, 9);
        assert!((s.interactions_per_user - 3.0).abs() < 1e-12);
        assert!((s.interactions_per_item - 2.25).abs() < 1e-12);
        assert!(s.table_row().contains("toy"));
    }

    #[test]
    fn frequency_distribution_sums_to_one() {
        let (grid, hist) = item_frequency_distribution(&toy(), 10);
        assert_eq!(grid.len(), 10);
        assert!((hist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_distribution_on_empty_dataset() {
        let empty = SequenceDataset::new("e", vec![], 0);
        let (_, hist) = item_frequency_distribution(&empty, 5);
        assert_eq!(hist, vec![0.0; 5]);
    }
}
