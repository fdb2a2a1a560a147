//! The generic experiment runner: dataset preparation, method training and
//! evaluation under one of the paper's three settings.

use crate::configs::paper_best_params;
use crate::methods::Method;
use ham_core::Scorer;
use ham_data::dataset::SequenceDataset;
use ham_data::split::{split_dataset, DataSplit, EvalSetting};
use ham_data::synthetic::DatasetProfile;
use ham_eval::protocol::{evaluate_batch, EvalConfig, EvalReport};
use std::time::Instant;

/// Global knobs of an experiment run (dataset scale, model size, training
/// budget). The defaults give a laptop-scale smoke run; `--scale 1.0` with
/// larger `--epochs`/`--d` approaches the paper's full configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Scale factor for the synthetic dataset profiles.
    pub scale: f64,
    /// Upper bound on the number of users per dataset after generation.
    pub max_users: usize,
    /// Upper bound on each user's sequence length (long tails are truncated to
    /// keep the deep baselines affordable at small scales).
    pub max_seq_len: usize,
    /// Embedding dimension shared by all methods.
    pub d: usize,
    /// Training epochs per method.
    pub epochs: usize,
    /// Mini-batch size (training windows per optimizer step).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Base random seed (dataset generation, initialisation, sampling).
    pub seed: u64,
    /// Evaluation chunk count: users are split into this many chunks, run on
    /// the process-wide persistent worker pool (`ham_tensor::pool`). `1`
    /// evaluates inline on the calling thread with no task submission.
    pub eval_threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: 0.01,
            max_users: 250,
            max_seq_len: 120,
            d: 32,
            epochs: 5,
            batch_size: 128,
            learning_rate: 1e-3,
            weight_decay: 1e-3,
            seed: 42,
            eval_threads: 4,
        }
    }
}

/// The outcome of training and evaluating one method on one dataset/setting.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name (table column).
    pub method: String,
    /// Evaluation metrics and per-user details.
    pub report: EvalReport,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
}

/// Generates the synthetic dataset for a profile and applies the experiment's
/// size caps (max users, max sequence length).
pub fn prepare_dataset(profile: &DatasetProfile, config: &ExperimentConfig) -> SequenceDataset {
    let scaled = profile.clone().with_scale(config.scale);
    let generated = scaled.generate(config.seed);
    let mut sequences = generated.sequences;
    sequences.truncate(config.max_users.max(1));
    for seq in &mut sequences {
        if seq.len() > config.max_seq_len {
            // keep the most recent interactions, mirroring how long sequences
            // are consumed by the sliding window
            let start = seq.len() - config.max_seq_len;
            *seq = seq[start..].to_vec();
        }
    }
    SequenceDataset::new(generated.name, sequences, generated.num_items)
}

/// Splits the dataset, trains every method on the training+validation
/// sequences and evaluates on the test segments, following the paper's final
/// evaluation protocol.
pub fn run_methods(
    dataset: &SequenceDataset,
    setting: EvalSetting,
    methods: &[Method],
    config: &ExperimentConfig,
) -> Vec<MethodResult> {
    let split = split_dataset(dataset, setting);
    run_methods_on_split(&split, dataset.name.as_str(), methods, config)
}

/// Like [`run_methods`] but for an existing split (used by the parameter and
/// ablation studies which reuse one split across many configurations).
pub fn run_methods_on_split(
    split: &DataSplit,
    dataset_name: &str,
    methods: &[Method],
    config: &ExperimentConfig,
) -> Vec<MethodResult> {
    let train_sequences = split.train_with_val();
    let windows = paper_windows(dataset_name, split.setting);
    let eval_cfg = EvalConfig { num_threads: config.eval_threads, ..EvalConfig::default() };

    methods
        .iter()
        .map(|method| {
            let start = Instant::now();
            let trained = method.fit(&train_sequences, split.num_items, windows, config);
            let train_seconds = start.elapsed().as_secs_f64();
            let report = evaluate_trained(trained.as_ref(), split, &eval_cfg);
            MethodResult { method: method.name().to_string(), report, train_seconds }
        })
        .collect()
}

/// Evaluates an already-trained method on a split, routed through the
/// batched scorer (`score_batch`, one `Q·Wᵀ` GEMM per user chunk). With
/// `eval_threads > 1` the user chunks fan out over the shared worker pool —
/// grid searches evaluating thousands of configurations reuse the same
/// persistent workers instead of spawning scoped threads per call.
pub fn evaluate_trained(trained: &(dyn Scorer + Sync), split: &DataSplit, eval_cfg: &EvalConfig) -> EvalReport {
    evaluate_batch(split, eval_cfg, |users, histories| trained.score_batch(users, histories))
}

/// The `(n_h, n_l, n_p, p)` window sizes used for a dataset/setting: the
/// paper's Table A2 values when the dataset is one of the six benchmarks, a
/// moderate default otherwise.
pub fn paper_windows(dataset_name: &str, setting: EvalSetting) -> (usize, usize, usize, usize) {
    let known = crate::configs::dataset_names().contains(&dataset_name);
    if known {
        let p = paper_best_params(dataset_name, setting);
        (p.n_h, p.n_l, p.n_p, p.p)
    } else {
        (5, 2, 3, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::HamVariant;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 1.0,
            max_users: 40,
            max_seq_len: 40,
            d: 8,
            epochs: 1,
            batch_size: 64,
            eval_threads: 2,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn prepare_dataset_applies_caps() {
        let profile = DatasetProfile::tiny("runner-test");
        let cfg = ExperimentConfig { max_users: 10, max_seq_len: 15, scale: 1.0, ..quick_config() };
        let data = prepare_dataset(&profile, &cfg);
        assert!(data.num_users() <= 10);
        assert!(data.sequences.iter().all(|s| s.len() <= 15));
    }

    #[test]
    fn run_methods_produces_one_result_per_method() {
        let profile = DatasetProfile::tiny("runner-run");
        let cfg = quick_config();
        let data = prepare_dataset(&profile, &cfg);
        let methods = [Method::PopRec, Method::Ham(HamVariant::HamSM)];
        let results = run_methods(&data, EvalSetting::Cut8020, &methods, &cfg);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.report.num_evaluated > 0, "{} evaluated no users", r.method);
            assert!(r.train_seconds >= 0.0);
            assert!(r.report.mean.recall_at_10 >= 0.0 && r.report.mean.recall_at_10 <= 1.0);
        }
        assert_eq!(results[0].method, "PopRec");
        assert_eq!(results[1].method, "HAMs_m");
    }

    #[test]
    fn paper_windows_fall_back_for_unknown_datasets() {
        assert_eq!(paper_windows("CDs", EvalSetting::Cut8020), (5, 2, 3, 2));
        assert_eq!(paper_windows("something-else", EvalSetting::Cut8020), (5, 2, 3, 2));
        assert_eq!(paper_windows("Comics", EvalSetting::Cut8020), (7, 2, 5, 3));
    }

    #[test]
    fn trained_ham_beats_popularity_on_structured_data() {
        // A sequence-dominated profile: the next item is mostly determined by
        // the previous items' clusters, item popularity is flat, and user
        // long-term preference / noise are weak. A trained HAM model must
        // exploit that structure and clearly beat the popularity baseline.
        let mut profile = DatasetProfile::tiny("runner-quality");
        profile.num_users = 400;
        profile.num_items = 200;
        profile.mean_seq_len = 30.0;
        profile.num_clusters = 16;
        profile.noise_prob = 0.05;
        profile.zipf_exponent = 0.6;
        profile.weight_user = 0.10;
        profile.weight_order1 = 0.60;
        profile.weight_order2 = 0.15;
        profile.weight_synergy = 0.15;
        let cfg =
            ExperimentConfig { epochs: 10, max_users: 400, max_seq_len: 60, d: 32, batch_size: 64, ..quick_config() };
        let data = prepare_dataset(&profile, &cfg);
        let results = run_methods(&data, EvalSetting::Los3, &[Method::PopRec, Method::Ham(HamVariant::HamM)], &cfg);
        let pop = results[0].report.mean.recall_at_10;
        let ham = results[1].report.mean.recall_at_10;
        assert!(
            ham > pop,
            "trained HAM (Recall@10 {ham:.4}) should beat popularity ({pop:.4}) on sequence-dominated data"
        );
    }
}
