//! The ablation study of Table 13: HAMs_m against HAMs_m-o (no low-order
//! term) and HAMs_m-u (no user general-preference term).

use crate::methods::Method;
use crate::runner::{prepare_dataset, run_methods, ExperimentConfig};
use ham_core::HamVariant;
use ham_data::split::EvalSetting;
use ham_data::synthetic::DatasetProfile;

/// One dataset row of Table 13.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: String,
    /// `(model name, Recall@5, Recall@10)` for the full model and the two
    /// ablations.
    pub entries: Vec<(String, f64, f64)>,
}

/// The three models of Table 13.
fn ablation_methods() -> Vec<Method> {
    vec![Method::Ham(HamVariant::HamSM), Method::Ham(HamVariant::HamSMNoLowOrder), Method::Ham(HamVariant::HamSMNoUser)]
}

/// Runs the ablation study in 80-20-CUT on the given dataset profiles.
pub fn run_ablation(profiles: &[DatasetProfile], config: &ExperimentConfig) -> Vec<AblationRow> {
    profiles
        .iter()
        .map(|profile| {
            let dataset = prepare_dataset(profile, config);
            let results = run_methods(&dataset, EvalSetting::Cut8020, &ablation_methods(), config);
            AblationRow {
                dataset: dataset.name.clone(),
                entries: results
                    .into_iter()
                    .map(|r| (r.method, r.report.mean.recall_at_5, r.report.mean.recall_at_10))
                    .collect(),
            }
        })
        .collect()
}

/// Renders the study in the layout of Table 13.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::from("=== Ablation study of HAMs_m in 80-20-CUT (Table 13) ===\n");
    out.push_str(&format!("{:<12} {:<12} {:>10} {:>10}\n", "Dataset", "model", "Recall@5", "Recall@10"));
    for row in rows {
        for (model, r5, r10) in &row.entries {
            out.push_str(&format!("{:<12} {:<12} {:>10.4} {:>10.4}\n", row.dataset, model, r5, r10));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_method_names_match_table13() {
        let names: Vec<&str> = ablation_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["HAMs_m", "HAMs_m-o", "HAMs_m-u"]);
    }

    #[test]
    fn render_lists_every_model_per_dataset() {
        let rows = vec![AblationRow {
            dataset: "CDs".into(),
            entries: vec![
                ("HAMs_m".into(), 0.04, 0.06),
                ("HAMs_m-o".into(), 0.03, 0.05),
                ("HAMs_m-u".into(), 0.035, 0.055),
            ],
        }];
        let text = render_ablation(&rows);
        assert!(text.contains("HAMs_m-o"));
        assert!(text.contains("HAMs_m-u"));
        assert!(text.contains("0.0400"));
    }

    #[test]
    fn ablation_end_to_end_smoke() {
        let profiles = vec![DatasetProfile::tiny("ablation-smoke")];
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
        let rows = run_ablation(&profiles, &cfg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].entries.len(), 3);
        // the ablated variants are genuinely different models
        let full = rows[0].entries[0].2;
        assert!((0.0..=1.0).contains(&full));
    }
}
