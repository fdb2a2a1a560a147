//! The SASRec parameter-sensitivity study of Appendix A (Table A1): how the
//! validation Recall of SASRec reacts to changes of its embedding dimension
//! and maximum sequence length.

use crate::runner::{prepare_dataset, ExperimentConfig};
use ham_baselines::{BaselineTrainConfig, SasRec, SasRecConfig};
use ham_core::Scorer;
use ham_data::split::{split_dataset, EvalSetting};
use ham_data::synthetic::DatasetProfile;
use ham_eval::protocol::{evaluate, EvalConfig};

/// One row of the Table A1 style study.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Which hyper-parameter this row varies (`"d"` or `"n"`).
    pub parameter: &'static str,
    /// Embedding dimension.
    pub d: usize,
    /// Maximum sequence length.
    pub n: usize,
    /// Recall@5 on the validation set.
    pub recall_at_5: f64,
    /// Recall@10 on the validation set.
    pub recall_at_10: f64,
}

/// Runs the sensitivity study on one dataset profile in the 3-LOS setting
/// (the setting of Table A1), evaluating on the validation items as the paper
/// does during tuning.
pub fn run_sasrec_sensitivity(profile: &DatasetProfile, config: &ExperimentConfig) -> Vec<SensitivityRow> {
    let dataset = prepare_dataset(profile, config);
    let split = split_dataset(&dataset, EvalSetting::Los3);

    // Validation-time protocol: train on the training prefix only and treat
    // the validation items as the "test" segment.
    let mut val_split = split.clone();
    val_split.test = split.val.clone();
    let eval_cfg =
        EvalConfig { include_validation_in_history: false, num_threads: config.eval_threads, ..EvalConfig::default() };

    let train_cfg = BaselineTrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        learning_rate: config.learning_rate,
        weight_decay: config.weight_decay,
    };

    let mut rows = Vec::new();
    let mut run_one = |parameter: &'static str, d: usize, n: usize| {
        let cfg = SasRecConfig { d, seq_len: n, targets: 2 };
        let model = SasRec::fit(&split.train, split.num_items, &cfg, &train_cfg, config.seed);
        let report = evaluate(&val_split, &eval_cfg, |user, history| model.score_all(user, history));
        rows.push(SensitivityRow {
            parameter,
            d,
            n,
            recall_at_5: report.mean.recall_at_5,
            recall_at_10: report.mean.recall_at_10,
        });
    };

    let base_d = config.d;
    let base_n = 6usize;
    for d in [base_d / 2, base_d, base_d * 2, base_d * 4] {
        run_one("d", d.max(4), base_n);
    }
    for n in [base_n / 2, base_n, base_n * 2] {
        run_one("n", base_d, n.max(2));
    }
    rows
}

/// Renders the study in the layout of Table A1.
pub fn render_sensitivity(dataset: &str, rows: &[SensitivityRow]) -> String {
    let mut out = format!("=== SASRec parameter sensitivity on {dataset} in 3-LOS (Table A1) ===\n");
    out.push_str(&format!("{:<10} {:>6} {:>6} {:>10} {:>10}\n", "parameter", "d", "n", "Recall@5", "Recall@10"));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:>6} {:>10.4} {:>10.4}\n",
            row.parameter, row.d, row.n, row.recall_at_5, row.recall_at_10
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_row() {
        let rows = vec![
            SensitivityRow { parameter: "d", d: 16, n: 6, recall_at_5: 0.1, recall_at_10: 0.2 },
            SensitivityRow { parameter: "n", d: 32, n: 12, recall_at_5: 0.05, recall_at_10: 0.1 },
        ];
        let text = render_sensitivity("Comics", &rows);
        assert!(text.contains("Comics"));
        assert!(text.contains("0.0500"));
    }

    #[test]
    fn sensitivity_end_to_end_smoke() {
        let profile = DatasetProfile::tiny("sasrec-smoke");
        let cfg = ExperimentConfig {
            scale: 1.0,
            max_users: 20,
            max_seq_len: 20,
            d: 8,
            epochs: 1,
            batch_size: 64,
            eval_threads: 1,
            ..ExperimentConfig::default()
        };
        let rows = run_sasrec_sensitivity(&profile, &cfg);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.recall_at_10.is_finite()));
        assert!(rows.iter().any(|r| r.parameter == "d"));
        assert!(rows.iter().any(|r| r.parameter == "n"));
    }
}
