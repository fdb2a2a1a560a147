//! Hyper-parameter selection on the validation set (the protocol of
//! Section 5.3.1): train candidate configurations on the training prefix,
//! pick the best by Recall@10 on the validation items, then retrain the
//! winning configuration on training + validation for the final test-set
//! evaluation.

use crate::runner::ExperimentConfig;
use ham_core::{train, HamConfig, HamModel, HamVariant, TrainConfig};
use ham_data::split::DataSplit;
use ham_eval::protocol::{evaluate, EvalConfig, EvalReport};

/// One evaluated point of the grid search.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// The candidate configuration.
    pub config: HamConfig,
    /// Recall@10 on the validation items (the paper's selection metric).
    pub validation_recall_at_10: f64,
}

/// The outcome of a grid search plus the final retrained model.
#[derive(Debug)]
pub struct TuningResult {
    /// Every evaluated grid point, in evaluation order.
    pub grid: Vec<GridPoint>,
    /// The configuration selected on the validation set.
    pub best_config: HamConfig,
    /// The model retrained on training + validation with the best
    /// configuration.
    pub final_model: HamModel,
    /// The final model's test-set report.
    pub test_report: EvalReport,
}

/// The candidate grid for a HAM variant: a small sweep over the window sizes
/// and synergy order around the defaults (the paper sweeps d, n_h, n_l, n_p
/// and p; the laptop-scale grid keeps d fixed to the experiment's `--d`).
pub fn default_grid(variant: HamVariant, d: usize) -> Vec<HamConfig> {
    let base = HamConfig::for_variant(variant);
    let mut grid = Vec::new();
    for &n_h in &[4usize, 6, 8] {
        for &n_l in &[1usize, 2] {
            for &n_p in &[2usize, 3] {
                let p = if base.uses_synergies() { 2 } else { 1 };
                let mut cfg = base.with_dimensions(d, n_h, n_l.min(n_h), n_p, p);
                if !base.uses_low_order() {
                    cfg.n_l = 0;
                }
                grid.push(cfg);
            }
        }
    }
    grid
}

/// Builds a split whose "test" segment is the validation items, used to score
/// candidate configurations during selection.
fn validation_view(split: &DataSplit) -> DataSplit {
    let mut view = split.clone();
    view.test = split.val.clone();
    view
}

/// Runs the grid search and the final retraining, following the paper's
/// protocol exactly: selection by Recall@10 on validation, final model
/// retrained on train + validation and evaluated on the untouched test set.
pub fn grid_search(split: &DataSplit, grid: &[HamConfig], config: &ExperimentConfig) -> TuningResult {
    assert!(!grid.is_empty(), "grid_search: the candidate grid must not be empty");
    let train_cfg = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        learning_rate: config.learning_rate,
        weight_decay: config.weight_decay,
        ..TrainConfig::default()
    };
    let selection_eval =
        EvalConfig { include_validation_in_history: false, num_threads: config.eval_threads, ..EvalConfig::default() };
    let val_view = validation_view(split);

    let mut points = Vec::with_capacity(grid.len());
    for candidate in grid {
        candidate.validate();
        let model = train(&split.train, split.num_items, candidate, &train_cfg, config.seed);
        let report = evaluate(&val_view, &selection_eval, |user, history| model.score_all(user, history));
        points.push(GridPoint { config: *candidate, validation_recall_at_10: report.mean.recall_at_10 });
    }

    let best = points
        .iter()
        .max_by(|a, b| a.validation_recall_at_10.total_cmp(&b.validation_recall_at_10))
        .expect("grid is non-empty")
        .config;

    // Final protocol: retrain on train + validation, evaluate on test.
    let final_model = train(&split.train_with_val(), split.num_items, &best, &train_cfg, config.seed);
    let test_eval = EvalConfig { num_threads: config.eval_threads, ..EvalConfig::default() };
    let test_report = evaluate(split, &test_eval, |user, history| final_model.score_all(user, history));

    TuningResult { grid: points, best_config: best, final_model, test_report }
}

/// Renders the grid-search outcome as a small report.
pub fn render_tuning(dataset: &str, result: &TuningResult) -> String {
    let mut out = format!("=== Validation grid search on {dataset} ===\n");
    out.push_str(&format!("{:>5} {:>5} {:>5} {:>5} {:>3} {:>16}\n", "d", "n_h", "n_l", "n_p", "p", "val Recall@10"));
    for point in &result.grid {
        let c = &point.config;
        let marker = if *c == result.best_config { " <- selected" } else { "" };
        out.push_str(&format!(
            "{:>5} {:>5} {:>5} {:>5} {:>3} {:>16.4}{}\n",
            c.d, c.n_h, c.n_l, c.n_p, c.synergy_order, point.validation_recall_at_10, marker
        ));
    }
    out.push_str(&format!(
        "\nfinal test performance: Recall@10 {:.4}, NDCG@10 {:.4} over {} users\n",
        result.test_report.mean.recall_at_10, result.test_report.mean.ndcg_at_10, result.test_report.num_evaluated
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::prepare_dataset;
    use ham_data::split::{split_dataset, EvalSetting};
    use ham_data::synthetic::DatasetProfile;

    #[test]
    fn default_grid_covers_the_sweep_dimensions() {
        let grid = default_grid(HamVariant::HamSM, 16);
        assert_eq!(grid.len(), 3 * 2 * 2);
        assert!(grid.iter().all(|c| c.d == 16 && c.uses_synergies()));
        let plain_grid = default_grid(HamVariant::HamM, 16);
        assert!(plain_grid.iter().all(|c| !c.uses_synergies()));
        let ablated = default_grid(HamVariant::HamSMNoLowOrder, 16);
        assert!(ablated.iter().all(|c| c.n_l == 0));
    }

    #[test]
    fn grid_search_selects_the_best_validation_point_and_reports_test_metrics() {
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
        let dataset = prepare_dataset(&DatasetProfile::tiny("tuning-smoke"), &cfg);
        let split = split_dataset(&dataset, EvalSetting::Cut8020);
        // a deliberately tiny grid to keep the test fast
        let grid = vec![
            HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 1, 2, 1),
            HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 6, 2, 2, 1),
        ];
        let result = grid_search(&split, &grid, &cfg);
        assert_eq!(result.grid.len(), 2);
        let best_val = result.grid.iter().map(|p| p.validation_recall_at_10).fold(f64::MIN, f64::max);
        let selected_val = result
            .grid
            .iter()
            .find(|p| p.config == result.best_config)
            .expect("selected config must be in the grid")
            .validation_recall_at_10;
        assert!((selected_val - best_val).abs() < 1e-12, "must select the best validation point");
        assert!(result.test_report.num_evaluated > 0);
        let text = render_tuning(&dataset.name, &result);
        assert!(text.contains("selected"));
        assert!(text.contains("final test performance"));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_grid_panics() {
        let cfg = ExperimentConfig { scale: 1.0, max_users: 10, ..ExperimentConfig::default() };
        let dataset = prepare_dataset(&DatasetProfile::tiny("tuning-empty"), &cfg);
        let split = split_dataset(&dataset, EvalSetting::Cut8020);
        let _ = grid_search(&split, &[], &cfg);
    }
}
