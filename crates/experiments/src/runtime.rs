//! The run-time performance study in testing (Table 14): mean per-user
//! scoring latency of every method and the speed-up of HAMs_m.

use crate::methods::Method;
use crate::runner::{paper_windows, prepare_dataset, ExperimentConfig};
use ham_data::split::{split_dataset, EvalSetting};
use ham_data::synthetic::DatasetProfile;
use ham_eval::timing::{measure_scoring_time, TimingReport};

/// One dataset row of Table 14.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Dataset name.
    pub dataset: String,
    /// `(method name, timing)` per compared method.
    pub timings: Vec<(String, TimingReport)>,
}

impl RuntimeRow {
    /// The speed-up of the fastest method over the second fastest — the
    /// `speedup` column of Table 14.
    fn best_speedup(&self) -> f64 {
        let mut sorted: Vec<&TimingReport> = self.timings.iter().map(|(_, t)| t).collect();
        sorted.sort_by(|a, b| a.seconds_per_user.total_cmp(&b.seconds_per_user));
        if sorted.len() < 2 {
            return 1.0;
        }
        sorted[0].speedup_over(sorted[1]).max(sorted[1].seconds_per_user / sorted[0].seconds_per_user)
    }
}

/// Trains each method briefly, then measures the mean wall-clock time to score
/// the full catalogue for each test user (the paper's Table 14 protocol).
pub fn run_runtime_study(
    profiles: &[DatasetProfile],
    methods: &[Method],
    config: &ExperimentConfig,
) -> Vec<RuntimeRow> {
    profiles
        .iter()
        .map(|profile| {
            let dataset = prepare_dataset(profile, config);
            let split = split_dataset(&dataset, EvalSetting::Cut8020);
            let train_sequences = split.train_with_val();
            let windows = paper_windows(&dataset.name, EvalSetting::Cut8020);
            let users: Vec<(usize, Vec<usize>)> = (0..split.num_users())
                .filter(|&u| !split.test[u].is_empty() && !train_sequences[u].is_empty())
                .map(|u| (u, train_sequences[u].clone()))
                .collect();

            let timings = methods
                .iter()
                .map(|method| {
                    let trained = method.fit(&train_sequences, split.num_items, windows, config);
                    let timing = measure_scoring_time(&users, |user, history| trained.score_all(user, history));
                    (method.name().to_string(), timing)
                })
                .collect();
            RuntimeRow { dataset: dataset.name.clone(), timings }
        })
        .collect()
}

/// Renders the study in the layout of Table 14.
pub fn render_runtime(rows: &[RuntimeRow]) -> String {
    let mut out = String::from("=== Testing run-time per user in 80-20-CUT (Table 14, seconds) ===\n");
    if rows.is_empty() {
        return out;
    }
    out.push_str(&format!("{:<10}", "Dataset"));
    for (method, _) in &rows[0].timings {
        out.push_str(&format!(" {method:>10}"));
    }
    out.push_str(&format!(" {:>10}\n", "speedup"));
    for row in rows {
        out.push_str(&format!("{:<10}", row.dataset));
        for (_, timing) in &row.timings {
            out.push_str(&format!(" {:>10.2e}", timing.seconds_per_user));
        }
        out.push_str(&format!(" {:>10.1}\n", row.best_speedup()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::HamVariant;

    fn fake_row() -> RuntimeRow {
        let t = |secs: f64| TimingReport { seconds_per_user: secs, users_measured: 10, total_seconds: secs * 10.0 };
        RuntimeRow {
            dataset: "CDs".into(),
            timings: vec![
                ("Caser".into(), t(1.2e-1)),
                ("SASRec".into(), t(2.3e-2)),
                ("HGN".into(), t(1.5e-3)),
                ("HAMs_m".into(), t(6.3e-4)),
            ],
        }
    }

    #[test]
    fn speedups_match_table14_arithmetic() {
        let row = fake_row();
        // HAMs_m (the fastest) over HGN (the runner-up) ≈ 2.4
        assert!((row.best_speedup() - 2.38).abs() < 0.05);
    }

    #[test]
    fn render_contains_methods_and_speedup_column() {
        let text = render_runtime(&[fake_row()]);
        assert!(text.contains("HAMs_m"));
        assert!(text.contains("speedup"));
        assert!(text.contains("CDs"));
    }

    #[test]
    fn runtime_study_end_to_end_smoke() {
        let profiles = vec![DatasetProfile::tiny("runtime-smoke")];
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
        let methods = [Method::Hgn, Method::Ham(HamVariant::HamSM)];
        let rows = run_runtime_study(&profiles, &methods, &cfg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].timings.len(), 2);
        assert!(rows[0].timings.iter().all(|(_, t)| t.seconds_per_user > 0.0));
    }
}
