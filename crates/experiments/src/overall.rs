//! The overall performance comparison (Tables 3–8) and the improvement
//! summary across settings (Table 9).

use crate::methods::Method;
use crate::runner::{prepare_dataset, run_methods, ExperimentConfig, MethodResult};
use ham_data::split::EvalSetting;
use ham_data::synthetic::DatasetProfile;
use ham_eval::improvement::{best_vs_best_improvement, mean_improvement};
use ham_eval::metrics::MetricSet;
use ham_eval::report::ResultsTable;
use ham_eval::significance::paired_t_test;

/// Results of the overall comparison on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetComparison {
    /// Dataset name.
    pub dataset: String,
    /// One result per method, in the order they were passed in.
    pub results: Vec<MethodResult>,
}

impl DatasetComparison {
    /// The `imp%` column of Tables 3–8 for a metric: improvement of the best
    /// HAM variant over the best non-HAM baseline.
    fn improvement_percent(&self, metric: &str) -> f64 {
        let (ham, baseline): (Vec<&MethodResult>, Vec<&MethodResult>) =
            self.results.iter().partition(|r| r.method.starts_with("HAM"));
        let ham_values: Vec<f64> = ham.iter().map(|r| r.report.mean.get(metric)).collect();
        let baseline_values: Vec<f64> = baseline.iter().map(|r| r.report.mean.get(metric)).collect();
        best_vs_best_improvement(&ham_values, &baseline_values)
    }

    /// Whether the best HAM variant is significantly different from the best
    /// baseline at 95% confidence on the per-user values of `metric`.
    fn improvement_significant(&self, metric: &str) -> bool {
        let best_of = |ham: bool| {
            self.results
                .iter()
                .filter(|r| r.method.starts_with("HAM") == ham)
                .max_by(|a, b| a.report.mean.get(metric).total_cmp(&b.report.mean.get(metric)))
        };
        let (Some(best_ham), Some(best_base)) = (best_of(true), best_of(false)) else {
            return false;
        };
        let a: Vec<f64> = best_ham.report.per_user.iter().map(|m| m.get(metric)).collect();
        let b: Vec<f64> = best_base.report.per_user.iter().map(|m| m.get(metric)).collect();
        if a.len() != b.len() || a.len() < 2 {
            return false;
        }
        paired_t_test(&a, &b).significant_95
    }
}

/// Runs the overall comparison (all methods × the requested datasets) in one
/// experimental setting — the computation behind Tables 3/4, 5/6 or 7/8.
pub fn run_overall(
    profiles: &[DatasetProfile],
    setting: EvalSetting,
    methods: &[Method],
    config: &ExperimentConfig,
) -> Vec<DatasetComparison> {
    profiles
        .iter()
        .map(|profile| {
            let dataset = prepare_dataset(profile, config);
            let results = run_methods(&dataset, setting, methods, config);
            DatasetComparison { dataset: dataset.name.clone(), results }
        })
        .collect()
}

/// Renders the comparison in the layout of the paper's tables (Recall table
/// and NDCG table with an `imp%` column).
pub fn render_overall(comparisons: &[DatasetComparison], setting: EvalSetting) -> String {
    let mut out = String::new();
    if comparisons.is_empty() {
        return out;
    }
    let methods: Vec<&str> = comparisons[0].results.iter().map(|r| r.method.as_str()).collect();
    let mut table = ResultsTable::new(&methods);
    for cmp in comparisons {
        table.add_row(&cmp.dataset, cmp.results.iter().map(|r| r.report.mean).collect());
    }
    out.push_str(&format!("=== Overall performance in {} ===\n\n", setting.name()));
    out.push_str(&table.render_all());
    out.push_str("\nimp% (best HAM vs best baseline, * = significant at 95%):\n");
    for metric in MetricSet::metric_names() {
        out.push_str(&format!("{metric:<10}"));
        for cmp in comparisons {
            let marker = if cmp.improvement_significant(metric) { "*" } else { " " };
            out.push_str(&format!(" {:>8}: {:>6.1}%{}", cmp.dataset, cmp.improvement_percent(metric), marker));
        }
        out.push('\n');
    }
    out
}

/// The Table 9 aggregation: mean improvement of HAMs_m over each compared
/// method across the datasets of one setting.
pub fn improvement_summary(comparisons: &[DatasetComparison], metric: &str) -> Vec<(String, f64)> {
    let mut summary = Vec::new();
    if comparisons.is_empty() {
        return summary;
    }
    let reference = "HAMs_m";
    let methods: Vec<String> =
        comparisons[0].results.iter().map(|r| r.method.clone()).filter(|m| m != reference).collect();
    for method in methods {
        let pairs: Vec<(f64, f64)> = comparisons
            .iter()
            .filter_map(|cmp| {
                let ours = cmp.results.iter().find(|r| r.method == reference)?.report.mean.get(metric);
                let theirs = cmp.results.iter().find(|r| r.method == method)?.report.mean.get(metric);
                Some((ours, theirs))
            })
            .collect();
        summary.push((method, mean_improvement(&pairs)));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::HamVariant;
    use ham_eval::protocol::EvalReport;

    fn fake_result(method: &str, recall: f64, users: usize) -> MethodResult {
        let per_user: Vec<MetricSet> = (0..users)
            .map(|u| MetricSet {
                recall_at_5: recall + (u % 3) as f64 * 1e-4,
                recall_at_10: recall,
                ndcg_at_5: recall,
                ndcg_at_10: recall,
            })
            .collect();
        MethodResult {
            method: method.to_string(),
            report: EvalReport {
                dataset: "X".into(),
                setting: "80-20-CUT".into(),
                mean: MetricSet::mean(&per_user),
                per_user,
                num_evaluated: users,
                seconds_per_user: 1e-4,
            },
            train_seconds: 1.0,
        }
    }

    fn fake_comparison() -> DatasetComparison {
        DatasetComparison {
            dataset: "X".into(),
            results: vec![
                fake_result("Caser", 0.05, 50),
                fake_result("HGN", 0.08, 50),
                fake_result("HAMm", 0.09, 50),
                fake_result("HAMs_m", 0.10, 50),
            ],
        }
    }

    #[test]
    fn improvement_percent_compares_best_of_each_group() {
        let cmp = fake_comparison();
        // best HAM 0.10 vs best baseline 0.08 -> 25%
        assert!((cmp.improvement_percent("Recall@10") - 25.0).abs() < 1e-9);
        assert!(cmp.improvement_significant("Recall@10"));
    }

    #[test]
    fn improvement_summary_excludes_the_reference_method() {
        let cmps = vec![fake_comparison()];
        let summary = improvement_summary(&cmps, "Recall@10");
        let methods: Vec<&str> = summary.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(methods, vec!["Caser", "HGN", "HAMm"]);
        let caser_improvement = summary[0].1;
        assert!((caser_improvement - 100.0).abs() < 1e-9, "0.10 vs 0.05 should be +100%, got {caser_improvement}");
    }

    #[test]
    fn render_contains_methods_datasets_and_improvement() {
        let text = render_overall(&[fake_comparison()], EvalSetting::Cut8020);
        assert!(text.contains("80-20-CUT"));
        assert!(text.contains("HAMs_m"));
        assert!(text.contains("imp%"));
        assert!(render_overall(&[], EvalSetting::Cut8020).is_empty());
    }

    /// End-to-end smoke test of the real pipeline on a tiny dataset.
    #[test]
    fn run_overall_end_to_end_smoke() {
        let profiles = vec![DatasetProfile::tiny("overall-smoke")];
        let cfg = ExperimentConfig {
            scale: 1.0,
            max_users: 30,
            max_seq_len: 30,
            d: 8,
            epochs: 1,
            batch_size: 64,
            eval_threads: 1,
            ..ExperimentConfig::default()
        };
        let methods = [Method::PopRec, Method::Ham(HamVariant::HamSM)];
        let comparisons = run_overall(&profiles, EvalSetting::Los3, &methods, &cfg);
        assert_eq!(comparisons.len(), 1);
        assert_eq!(comparisons[0].results.len(), 2);
        let text = render_overall(&comparisons, EvalSetting::Los3);
        assert!(text.contains("overall-smoke"));
    }
}
