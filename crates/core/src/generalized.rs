//! Generalized multi-window HAM (the extension sketched in Section 4.2 of the
//! paper: "HAM can be a general framework, in which arbitrary numbers of
//! various-order associations can be incorporated").
//!
//! Instead of exactly one high-order window `n_h` and one low-order window
//! `n_l`, a [`GeneralizedHamModel`] pools the most recent `w` items for every
//! window size `w` in its configuration and sums all the resulting
//! association terms into the query vector:
//!
//! ```text
//! r_ij = u_i·w_j + Σ_{w ∈ windows} pool(V[last w items])·w_j   (+ synergies on the largest window)
//! ```
//!
//! Setting `windows = [n_h, n_l]` recovers the paper's HAM exactly (verified
//! in the tests below), while longer lists add intermediate-order
//! associations.

use crate::config::{HamConfig, TrainConfig};
use crate::model::HamModel;
use crate::scorer::Scorer;
use crate::synergy::WindowAssociation;
use crate::trainer::train as train_base;
use ham_data::dataset::ItemId;
use ham_data::window::recent_window;
use ham_tensor::{Matrix, Pooling};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a multi-window HAM model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneralizedHamConfig {
    /// Embedding dimension.
    pub d: usize,
    /// The association window sizes, e.g. `[6, 3, 1]`. Must be non-empty and
    /// sorted in decreasing order; the largest window drives the training
    /// sliding window and carries the synergy term.
    pub windows: Vec<usize>,
    /// Number of target items per training window.
    pub n_p: usize,
    /// Synergy order applied to the largest window (`1` disables synergies).
    pub synergy_order: usize,
    /// Pooling mechanism shared by all windows.
    pub pooling: Pooling,
    /// Whether the user general-preference term is used.
    pub use_user_term: bool,
}

impl Default for GeneralizedHamConfig {
    fn default() -> Self {
        Self { d: 64, windows: vec![5, 2], n_p: 3, synergy_order: 2, pooling: Pooling::Mean, use_user_term: true }
    }
}

impl GeneralizedHamConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if the window list is empty, not strictly decreasing, or the
    /// synergy order exceeds the largest window.
    pub fn validate(&self) {
        assert!(!self.windows.is_empty(), "GeneralizedHamConfig: need at least one window");
        assert!(self.d > 0 && self.n_p > 0, "GeneralizedHamConfig: d and n_p must be positive");
        for pair in self.windows.windows(2) {
            assert!(
                pair[0] > pair[1],
                "GeneralizedHamConfig: windows must be strictly decreasing, got {:?}",
                self.windows
            );
        }
        assert!(*self.windows.last().unwrap() >= 1, "GeneralizedHamConfig: windows must be >= 1");
        assert!(
            self.synergy_order >= 1 && self.synergy_order <= self.windows[0],
            "GeneralizedHamConfig: synergy order must be in 1..=largest window"
        );
    }

    /// The equivalent two-window [`HamConfig`] used to drive training
    /// (largest window as `n_h`, second largest as `n_l` when present).
    fn base_config(&self) -> HamConfig {
        HamConfig {
            d: self.d,
            n_h: self.windows[0],
            n_l: self.windows.get(1).copied().unwrap_or(0),
            n_p: self.n_p,
            synergy_order: self.synergy_order,
            pooling: self.pooling,
            use_user_term: self.use_user_term,
        }
    }
}

/// A HAM model with an arbitrary set of association window sizes.
///
/// The first two windows are trained exactly like the paper's HAM (reusing the
/// BPR trainer); additional windows reuse the same input item embeddings at
/// inference time, which keeps the model training-compatible while exposing
/// the richer multi-order scoring of the framework extension.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralizedHamModel {
    config: GeneralizedHamConfig,
    base: HamModel,
}

impl GeneralizedHamModel {
    /// Trains a multi-window HAM model.
    pub fn train(
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        config: &GeneralizedHamConfig,
        train_config: &TrainConfig,
        seed: u64,
    ) -> Self {
        config.validate();
        let base = train_base(train_sequences, num_items, &config.base_config(), train_config, seed);
        Self { config: config.clone(), base }
    }

    /// Wraps an already-trained two-window model, adding extra windows at
    /// inference time.
    pub fn from_base(base: HamModel, windows: Vec<usize>) -> Self {
        let config = GeneralizedHamConfig {
            d: base.config().d,
            windows,
            n_p: base.config().n_p,
            synergy_order: base.config().synergy_order,
            pooling: base.config().pooling,
            use_user_term: base.config().use_user_term,
        };
        config.validate();
        Self { config, base }
    }

    /// The model's configuration.
    pub fn config(&self) -> &GeneralizedHamConfig {
        &self.config
    }

    /// The underlying two-window HAM model.
    pub fn base(&self) -> &HamModel {
        &self.base
    }
}

/// The multi-window query `q` (every window's association summed, plus the
/// user term) against the base model's `W`, which a serving snapshot shares.
impl Scorer for GeneralizedHamModel {
    fn candidates(&self) -> &Matrix {
        self.base.candidate_item_embeddings()
    }

    fn query_vector(&self, user: usize, sequence: &[ItemId]) -> Vec<f32> {
        assert!(!sequence.is_empty(), "query_vector: the user's sequence must not be empty");
        let v = self.base.input_item_embeddings();
        let mut q = vec![0.0f32; self.config.d];
        let mut term = vec![0.0f32; self.config.d];

        for (rank, &window_len) in self.config.windows.iter().enumerate() {
            let window = recent_window(sequence, window_len);
            let order = if rank == 0 { self.config.synergy_order } else { 1 };
            let mut association = WindowAssociation::new(self.config.d, self.config.pooling, order);
            association.compute(v, &window);
            association.association_into(&mut term);
            for (qi, ti) in q.iter_mut().zip(&term) {
                *qi += ti;
            }
        }
        if self.config.use_user_term {
            for (qi, ui) in q.iter_mut().zip(self.base.user_embeddings().row(user)) {
                *qi += ui;
            }
        }
        q
    }

    fn shared_candidates(&self) -> Option<Arc<Matrix>> {
        self.base.shared_candidates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HamVariant;
    use ham_data::synthetic::DatasetProfile;

    fn tiny_data() -> (Vec<Vec<usize>>, usize) {
        let data = DatasetProfile::tiny("generalized").generate(3);
        (data.sequences.clone(), data.num_items)
    }

    #[test]
    fn two_window_configuration_recovers_plain_ham() {
        let (seqs, num_items) = tiny_data();
        let config = GeneralizedHamConfig {
            d: 8,
            windows: vec![4, 2],
            n_p: 2,
            synergy_order: 2,
            pooling: Pooling::Mean,
            use_user_term: true,
        };
        let tc = TrainConfig { epochs: 1, batch_size: 64, ..TrainConfig::default() };
        let generalized = GeneralizedHamModel::train(&seqs, num_items, &config, &tc, 5);

        // A plain HAMs_m trained identically must give identical scores.
        let plain_cfg = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let plain = train_base(&seqs, num_items, &plain_cfg, &tc, 5);
        let history = &seqs[0];
        let a = generalized.score_all(0, history);
        let b = plain.score_all(0, history);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "generalized two-window model must match plain HAM: {x} vs {y}");
        }
    }

    #[test]
    fn extra_windows_change_the_scores() {
        let (seqs, num_items) = tiny_data();
        let tc = TrainConfig { epochs: 1, batch_size: 64, ..TrainConfig::default() };
        let plain_cfg = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 6, 2, 2, 2);
        let base = train_base(&seqs, num_items, &plain_cfg, &tc, 5);
        let two = GeneralizedHamModel::from_base(base.clone(), vec![6, 2]);
        let three = GeneralizedHamModel::from_base(base, vec![6, 3, 1]);
        let history = &seqs[1];
        assert_ne!(two.score_all(1, history), three.score_all(1, history));
        assert_eq!(three.config().windows, vec![6, 3, 1]);
        assert_eq!(three.num_items(), num_items);
    }

    #[test]
    fn recommendations_exclude_seen_items() {
        let (seqs, num_items) = tiny_data();
        let tc = TrainConfig { epochs: 1, batch_size: 64, ..TrainConfig::default() };
        let cfg = GeneralizedHamConfig { d: 8, windows: vec![5, 3, 1], n_p: 2, ..Default::default() };
        let model = GeneralizedHamModel::train(&seqs, num_items, &cfg, &tc, 2);
        let rec = model.recommend_top_k(0, &seqs[0][..6], 10, true);
        for item in &seqs[0][..6] {
            assert!(!rec.contains(item));
        }
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn non_decreasing_windows_panic() {
        GeneralizedHamConfig { windows: vec![3, 3], ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_windows_panic() {
        GeneralizedHamConfig { windows: vec![], ..Default::default() }.validate();
    }
}
