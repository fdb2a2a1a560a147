//! Per-dataset generation profiles matching Table 2 of the paper.

use super::generate;
use crate::dataset::SequenceDataset;
use serde::{Deserialize, Serialize};

/// Parameters describing one synthetic benchmark dataset.
///
/// The six constructors ([`DatasetProfile::cds`] …) reproduce the user/item
/// counts and mean sequence lengths of Table 2; [`DatasetProfile::with_scale`]
/// shrinks the user and item counts proportionally so the full experiment
/// suite can run on a laptop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name as used in the paper's tables.
    pub name: String,
    /// Number of users at scale 1.0.
    pub num_users: usize,
    /// Number of items at scale 1.0.
    pub num_items: usize,
    /// Mean interactions per user (`#intrns/u` in Table 2).
    pub mean_seq_len: f64,
    /// Minimum interactions per user (the preprocessing keeps users with at
    /// least 10 interactions).
    pub min_seq_len: usize,
    /// Number of latent item clusters used by the generator.
    pub num_clusters: usize,
    /// Zipf exponent of item popularity inside a cluster (larger → more
    /// head-heavy, i.e. the frequent items dominate).
    pub zipf_exponent: f64,
    /// Probability that an interaction is uniform noise rather than
    /// structure-driven.
    pub noise_prob: f64,
    /// Mixture weight of the user's long-term cluster preference.
    pub weight_user: f64,
    /// Mixture weight of the first-order (last item) association.
    pub weight_order1: f64,
    /// Mixture weight of the second-order (two items back) association.
    pub weight_order2: f64,
    /// Additional boost applied when a synergy pair is present in the recent
    /// window.
    pub weight_synergy: f64,
    /// Number of cluster pairs that act as synergy triggers.
    pub num_synergy_pairs: usize,
    /// Scale factor applied to `num_users` and `num_items`.
    pub scale: f64,
}

impl DatasetProfile {
    fn base(
        name: &str,
        num_users: usize,
        num_items: usize,
        mean_seq_len: f64,
        noise_prob: f64,
        zipf_exponent: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            num_users,
            num_items,
            mean_seq_len,
            min_seq_len: 10,
            num_clusters: 32,
            zipf_exponent,
            noise_prob,
            weight_user: 0.35,
            weight_order1: 0.35,
            weight_order2: 0.15,
            weight_synergy: 0.15,
            num_synergy_pairs: 16,
            scale: 1.0,
        }
    }

    /// Amazon-CDs: the sparsest dataset (27.7 interactions/user).
    pub fn cds() -> Self {
        Self::base("CDs", 17_052, 35_118, 27.7, 0.30, 1.05)
    }

    /// Amazon-Books (35.4 interactions/user); users have strong long-term
    /// preferences, mirroring the paper's observation that SASRec does well
    /// on Books.
    fn books() -> Self {
        let mut p = Self::base("Books", 52_406, 41_264, 35.4, 0.25, 1.1);
        p.weight_user = 0.5;
        p.weight_order1 = 0.25;
        p.weight_order2 = 0.1;
        p
    }

    /// Goodreads-Children (57.6 interactions/user), moderately sparse.
    pub fn children() -> Self {
        Self::base("Children", 48_296, 32_871, 57.6, 0.20, 1.1)
    }

    /// Goodreads-Comics (70.0 interactions/user), moderately sparse with
    /// strong sequential structure (series are read in order).
    pub fn comics() -> Self {
        let mut p = Self::base("Comics", 34_445, 33_121, 70.0, 0.15, 1.1);
        p.weight_user = 0.25;
        p.weight_order1 = 0.40;
        p.weight_order2 = 0.20;
        p
    }

    /// MovieLens-20M: dense, popularity-dominated.
    fn ml_20m() -> Self {
        Self::base("ML-20M", 129_780, 13_663, 76.5, 0.20, 1.3)
    }

    /// MovieLens-1M: the densest dataset (96.4 interactions/user).
    pub fn ml_1m() -> Self {
        Self::base("ML-1M", 5_950, 3_125, 96.4, 0.15, 1.25)
    }

    /// All six benchmark profiles in the order used by the paper's tables.
    pub fn all() -> Vec<Self> {
        vec![Self::cds(), Self::books(), Self::children(), Self::comics(), Self::ml_20m(), Self::ml_1m()]
    }

    /// A tiny profile used by unit/integration tests across the workspace.
    pub fn tiny(name: &str) -> Self {
        let mut p = Self::base(name, 60, 120, 30.0, 0.2, 1.1);
        p.num_clusters = 8;
        p.num_synergy_pairs = 4;
        p
    }

    /// Returns a copy with the user and item counts scaled by `scale`
    /// (clamped so at least 20 users and 40 items remain).
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "with_scale: scale must be positive");
        self.scale = scale;
        self
    }

    /// Number of users after applying the scale factor.
    pub fn scaled_users(&self) -> usize {
        ((self.num_users as f64 * self.scale).round() as usize).max(20)
    }

    /// Number of items after applying the scale factor.
    pub fn scaled_items(&self) -> usize {
        ((self.num_items as f64 * self.scale).round() as usize).max(40)
    }

    /// Generates the synthetic dataset for this profile with the given seed.
    pub fn generate(&self, seed: u64) -> SequenceDataset {
        generate(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_table2_counts() {
        assert_eq!(DatasetProfile::cds().num_users, 17_052);
        assert_eq!(DatasetProfile::ml_1m().num_items, 3_125);
        assert_eq!(DatasetProfile::all().len(), 6);
        let names: Vec<String> = DatasetProfile::all().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["CDs", "Books", "Children", "Comics", "ML-20M", "ML-1M"]);
    }

    #[test]
    fn scaling_shrinks_counts_with_floor() {
        let p = DatasetProfile::cds().with_scale(0.01);
        assert_eq!(p.scaled_users(), 171);
        assert_eq!(p.scaled_items(), 351);
        let tiny = DatasetProfile::cds().with_scale(1e-9);
        assert_eq!(tiny.scaled_users(), 20);
        assert_eq!(tiny.scaled_items(), 40);
    }

    #[test]
    fn mixture_weights_are_a_distribution_up_to_synergy() {
        for p in DatasetProfile::all() {
            let total = p.weight_user + p.weight_order1 + p.weight_order2 + p.weight_synergy;
            assert!((total - 1.0).abs() < 1e-9, "{}: weights sum to {total}", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = DatasetProfile::cds().with_scale(0.0);
    }
}
