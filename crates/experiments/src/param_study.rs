//! The HAMs_m parameter study (Tables 10–12): vary one hyper-parameter at a
//! time around the best configuration and report Recall@5 / Recall@10.

use crate::runner::{evaluate_trained, paper_windows, prepare_dataset, ExperimentConfig};
use ham_core::{train, HamConfig, HamVariant, TrainConfig};
use ham_data::split::{split_dataset, EvalSetting};
use ham_data::synthetic::DatasetProfile;
use ham_eval::protocol::EvalConfig;

/// One row of a parameter-study table.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamStudyRow {
    /// Which hyper-parameter this row varies (`"d"`, `"n_h"`, `"n_l"`, `"n_p"`, `"p"`).
    pub parameter: &'static str,
    /// The full configuration of the row.
    pub d: usize,
    /// High-order window.
    pub n_h: usize,
    /// Low-order window.
    pub n_l: usize,
    /// Training targets.
    pub n_p: usize,
    /// Synergy order.
    pub p: usize,
    /// Recall@5 on the test set.
    pub recall_at_5: f64,
    /// Recall@10 on the test set.
    pub recall_at_10: f64,
}

/// Runs the Tables 10–12 parameter study of HAMs_m on one dataset profile in
/// 80-20-CUT: for each studied parameter, sweep the listed values while
/// holding the others at the base configuration.
pub fn run_param_study(profile: &DatasetProfile, config: &ExperimentConfig) -> Vec<ParamStudyRow> {
    let dataset = prepare_dataset(profile, config);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let train_sequences = split.train_with_val();
    let (base_nh, base_nl, base_np, base_p) = paper_windows(&dataset.name, EvalSetting::Cut8020);
    let base_d = config.d;
    let eval_cfg = EvalConfig { num_threads: config.eval_threads, ..EvalConfig::default() };

    let mut rows = Vec::new();
    let mut run_one = |parameter: &'static str, d: usize, n_h: usize, n_l: usize, n_p: usize, p: usize| {
        let p = p.clamp(1, n_h);
        let n_l = n_l.min(n_h);
        let ham_cfg = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(d, n_h, n_l, n_p, p.max(1));
        // n_l == 0 is a legitimate study point (ablating the low-order term)
        let ham_cfg = HamConfig { n_l, ..ham_cfg };
        let train_cfg = TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            weight_decay: config.weight_decay,
            ..TrainConfig::default()
        };
        let model = train(&train_sequences, split.num_items, &ham_cfg, &train_cfg, config.seed);
        let report = evaluate_trained(&model, &split, &eval_cfg);
        rows.push(ParamStudyRow {
            parameter,
            d,
            n_h,
            n_l,
            n_p,
            p,
            recall_at_5: report.mean.recall_at_5,
            recall_at_10: report.mean.recall_at_10,
        });
    };

    // The sweeps mirror the row blocks of Tables 10–12, scaled to the smaller
    // embedding dimensions of the laptop runs.
    for d in [base_d / 2, base_d, base_d * 2] {
        run_one("d", d.max(4), base_nh, base_nl, base_np, base_p);
    }
    for n_h in [base_nh.saturating_sub(1).max(2), base_nh, base_nh + 1] {
        run_one("n_h", base_d, n_h, base_nl, base_np, base_p);
    }
    for n_l in [0, 1, base_nl, base_nl + 1] {
        run_one("n_l", base_d, base_nh, n_l, base_np, base_p);
    }
    for n_p in [base_np.saturating_sub(1).max(1), base_np, base_np + 1] {
        run_one("n_p", base_d, base_nh, base_nl, n_p, base_p);
    }
    for p in [1, 2, 3, 4] {
        run_one("p", base_d, base_nh, base_nl, base_np, p);
    }
    rows
}

/// Renders the study in the layout of Tables 10–12.
pub fn render_param_study(dataset: &str, rows: &[ParamStudyRow]) -> String {
    let mut out = format!("=== Parameter study of HAMs_m on {dataset} in 80-20-CUT ===\n");
    out.push_str(&format!(
        "{:<10} {:>5} {:>5} {:>5} {:>5} {:>3} {:>10} {:>10}\n",
        "parameter", "d", "n_h", "n_l", "n_p", "p", "Recall@5", "Recall@10"
    ));
    let mut current = "";
    for row in rows {
        if row.parameter != current {
            current = row.parameter;
            out.push_str(&format!("--- varying {current} ---\n"));
        }
        out.push_str(&format!(
            "{:<10} {:>5} {:>5} {:>5} {:>5} {:>3} {:>10.4} {:>10.4}\n",
            row.parameter, row.d, row.n_h, row.n_l, row.n_p, row.p, row.recall_at_5, row.recall_at_10
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_groups_rows_by_parameter() {
        let rows = vec![
            ParamStudyRow { parameter: "d", d: 16, n_h: 5, n_l: 2, n_p: 3, p: 2, recall_at_5: 0.1, recall_at_10: 0.2 },
            ParamStudyRow {
                parameter: "d",
                d: 32,
                n_h: 5,
                n_l: 2,
                n_p: 3,
                p: 2,
                recall_at_5: 0.12,
                recall_at_10: 0.22,
            },
            ParamStudyRow {
                parameter: "p",
                d: 32,
                n_h: 5,
                n_l: 2,
                n_p: 3,
                p: 3,
                recall_at_5: 0.13,
                recall_at_10: 0.23,
            },
        ];
        let text = render_param_study("CDs", &rows);
        assert!(text.contains("varying d"));
        assert!(text.contains("varying p"));
        assert!(text.contains("0.1300"));
    }

    /// A heavily reduced end-to-end run covering the whole sweep machinery.
    #[test]
    fn param_study_end_to_end_smoke() {
        let profile = DatasetProfile::tiny("param-smoke");
        let cfg = ExperimentConfig {
            scale: 1.0,
            max_users: 25,
            max_seq_len: 25,
            d: 8,
            epochs: 1,
            batch_size: 64,
            eval_threads: 1,
            ..ExperimentConfig::default()
        };
        let rows = run_param_study(&profile, &cfg);
        // 3 (d) + 3 (n_h) + 4 (n_l) + 3 (n_p) + 4 (p) rows
        assert_eq!(rows.len(), 17);
        assert!(rows.iter().all(|r| r.recall_at_10 >= 0.0 && r.recall_at_10 <= 1.0));
        // the p sweep must include the no-synergy configuration p = 1
        assert!(rows.iter().any(|r| r.parameter == "p" && r.p == 1));
    }
}
