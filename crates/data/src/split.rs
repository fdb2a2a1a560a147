//! The three experimental settings of the paper (Section 5.3) as per-user
//! train / validation / test splits.
//!
//! * **80-20-CUT** — first 70% of each user's sequence is training, next 10%
//!   validation, last 20% test.
//! * **80-3-CUT** — same training/validation prefix, but only the 3 items
//!   immediately after the validation set are tested.
//! * **3-LOS** — the last 3 items are the test set, the 3 before them the
//!   validation set, everything earlier the training set.

use crate::dataset::{ItemId, SequenceDataset};
use serde::{Deserialize, Serialize};

/// The experimental setting used to split each user sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalSetting {
    /// 80-20-cut-off: train 70%, validation 10%, test the remaining 20%.
    Cut8020,
    /// 80-3-cut-off: train 70%, validation 10%, test the next 3 items.
    Cut803,
    /// Leave-3-out: test the last 3 items, validate on the 3 before them.
    Los3,
}

impl EvalSetting {
    /// The name used in the paper and in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            EvalSetting::Cut8020 => "80-20-CUT",
            EvalSetting::Cut803 => "80-3-CUT",
            EvalSetting::Los3 => "3-LOS",
        }
    }

    /// All three settings, in the order the paper reports them.
    pub fn all() -> [EvalSetting; 3] {
        [EvalSetting::Cut8020, EvalSetting::Cut803, EvalSetting::Los3]
    }
}

/// A per-user split of the dataset into train / validation / test segments.
///
/// Per the paper's protocol, after hyper-parameter selection the final model
/// is retrained on *train + validation*; [`DataSplit::train_with_val`] returns
/// that combined sequence set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataSplit {
    /// Name of the source dataset.
    pub dataset_name: String,
    /// Setting used to produce this split.
    pub setting: EvalSetting,
    /// Number of items in the source dataset.
    pub num_items: usize,
    /// Training prefix of each user.
    pub train: Vec<Vec<ItemId>>,
    /// Validation segment of each user (may be empty for short sequences).
    pub val: Vec<Vec<ItemId>>,
    /// Test segment of each user (may be empty for short sequences).
    pub test: Vec<Vec<ItemId>>,
}

impl DataSplit {
    /// Number of users in the split.
    pub fn num_users(&self) -> usize {
        self.train.len()
    }

    /// Per-user concatenation of training and validation segments, used to
    /// retrain the final model after hyper-parameter selection.
    pub fn train_with_val(&self) -> Vec<Vec<ItemId>> {
        self.train
            .iter()
            .zip(&self.val)
            .map(|(t, v)| {
                let mut s = t.clone();
                s.extend_from_slice(v);
                s
            })
            .collect()
    }
}

/// Splits every user sequence of `dataset` according to `setting`.
pub fn split_dataset(dataset: &SequenceDataset, setting: EvalSetting) -> DataSplit {
    let mut train = Vec::with_capacity(dataset.num_users());
    let mut val = Vec::with_capacity(dataset.num_users());
    let mut test = Vec::with_capacity(dataset.num_users());

    for seq in &dataset.sequences {
        let (t, v, s) = split_sequence(seq, setting);
        train.push(t);
        val.push(v);
        test.push(s);
    }

    DataSplit { dataset_name: dataset.name.clone(), setting, num_items: dataset.num_items, train, val, test }
}

/// Splits a single user sequence. Exposed for tests and for streaming use.
pub fn split_sequence(seq: &[ItemId], setting: EvalSetting) -> (Vec<ItemId>, Vec<ItemId>, Vec<ItemId>) {
    let n = seq.len();
    match setting {
        EvalSetting::Cut8020 => {
            let train_end = (n as f64 * 0.7).round() as usize;
            let val_end = (n as f64 * 0.8).round() as usize;
            let train_end = train_end.min(n);
            let val_end = val_end.clamp(train_end, n);
            (seq[..train_end].to_vec(), seq[train_end..val_end].to_vec(), seq[val_end..].to_vec())
        }
        EvalSetting::Cut803 => {
            let train_end = (n as f64 * 0.7).round() as usize;
            let val_end = (n as f64 * 0.8).round() as usize;
            let train_end = train_end.min(n);
            let val_end = val_end.clamp(train_end, n);
            let test_end = (val_end + 3).min(n);
            (seq[..train_end].to_vec(), seq[train_end..val_end].to_vec(), seq[val_end..test_end].to_vec())
        }
        EvalSetting::Los3 => {
            if n <= 3 {
                // Too short to hold out anything: everything is training.
                return (seq.to_vec(), Vec::new(), Vec::new());
            }
            let test_start = n - 3;
            let val_start = test_start.saturating_sub(3);
            (seq[..val_start].to_vec(), seq[val_start..test_start].to_vec(), seq[test_start..].to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<ItemId> {
        (0..n).collect()
    }

    #[test]
    fn cut_8020_proportions() {
        let (t, v, s) = split_sequence(&seq(100), EvalSetting::Cut8020);
        assert_eq!(t.len(), 70);
        assert_eq!(v.len(), 10);
        assert_eq!(s.len(), 20);
        // chronological ordering is preserved
        assert_eq!(t[69], 69);
        assert_eq!(v[0], 70);
        assert_eq!(s[19], 99);
    }

    #[test]
    fn cut_803_limits_test_to_three() {
        let (t, v, s) = split_sequence(&seq(100), EvalSetting::Cut803);
        assert_eq!(t.len(), 70);
        assert_eq!(v.len(), 10);
        assert_eq!(s, vec![80, 81, 82]);
    }

    #[test]
    fn cut_803_and_8020_share_training_sets() {
        let s = seq(57);
        let (t1, v1, _) = split_sequence(&s, EvalSetting::Cut8020);
        let (t2, v2, _) = split_sequence(&s, EvalSetting::Cut803);
        assert_eq!(t1, t2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn los3_uses_last_items() {
        let (t, v, s) = split_sequence(&seq(20), EvalSetting::Los3);
        assert_eq!(s, vec![17, 18, 19]);
        assert_eq!(v, vec![14, 15, 16]);
        assert_eq!(t.len(), 14);
    }

    #[test]
    fn short_sequences_do_not_panic() {
        for n in 0..8 {
            for setting in EvalSetting::all() {
                let (t, v, s) = split_sequence(&seq(n), setting);
                assert!(t.len() + v.len() + s.len() <= n.max(t.len() + v.len() + s.len()));
                // pieces concatenate back to a prefix of the original sequence
                let mut joined = t.clone();
                joined.extend(v);
                joined.extend(s);
                assert_eq!(&joined[..], &seq(n)[..joined.len()]);
            }
        }
    }

    #[test]
    fn los3_very_short_sequence_is_all_training() {
        let (t, v, s) = split_sequence(&seq(3), EvalSetting::Los3);
        assert_eq!(t.len(), 3);
        assert!(v.is_empty() && s.is_empty());
    }

    #[test]
    fn split_dataset_covers_all_users() {
        let ds = SequenceDataset::new("t", vec![seq(30), seq(10), seq(2)], 30);
        let split = split_dataset(&ds, EvalSetting::Cut8020);
        assert_eq!(split.num_users(), 3);
        assert_eq!(split.dataset_name, "t");
        assert!(split.test.iter().filter(|t| !t.is_empty()).count() >= 2);
        let joined = split.train_with_val();
        assert_eq!(joined[0].len(), split.train[0].len() + split.val[0].len());
        assert!(split.test.iter().any(|t| !t.is_empty()));
    }

    #[test]
    fn setting_names_match_paper() {
        assert_eq!(EvalSetting::Cut8020.name(), "80-20-CUT");
        assert_eq!(EvalSetting::Cut803.name(), "80-3-CUT");
        assert_eq!(EvalSetting::Los3.name(), "3-LOS");
    }
}
