//! The benchmark's vocabulary: workload names, metric names, and the sizes a
//! run uses. `BENCHMARK.json` at the repo root lists the same names; a test
//! below keeps the two in step.

use ham_core::{HamConfig, HamVariant};
use ham_data::synthetic::DatasetProfile;
use std::time::Duration;

/// Workload names, in the order a whole-benchmark run executes them.
pub const WORKLOADS: [&str; 5] =
    ["serve_solo_10k", "serve_solo_120k", "batch_120k", "train_eval_ml1m", "online_rounds"];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("users_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("job_s", "s"),
    ("recall_at_10", "ratio"),
    ("ndcg_at_10", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("serve.server.queue_us", "us"),
    ("serve.server.service_us", "us"),
    ("serve.server.wake_us", "us"),
    ("serve.model.recommend_us", "us"),
    ("serve.model.query_vector_us", "us"),
    ("serve.shard.scores_us", "us"),
    ("serve.shard.scores_max_us", "us"),
    ("serve.shard.top_k_us", "us"),
    ("serve.shard.merge_us", "us"),
    ("serve.model.unattributed_us", "us"),
    ("serve.shard.batch_top_k_us", "us"),
    ("serve.model.batch_assembly_us", "us"),
    ("serve.shard.int8_top_k_us", "us"),
    ("serve.ivf.top_k_us", "us"),
    ("serve.ivf.recall_at_10", "ratio"),
    ("serve.ivf.build_s", "s"),
    ("serve.shard.quantize_s", "s"),
    ("serve.model.freeze_s", "s"),
    ("serve.registry.publish_us", "us"),
    ("serve.registry.current_us", "us"),
    ("tensor.kernels.matvec_us", "us"),
    ("tensor.kernels.matvec_gbps", "GB/s"),
    ("tensor.kernels.matmul_us", "us"),
    ("tensor.kernels.matmul_gflops", "GFLOP/s"),
    ("tensor.kernels.qmatvec_us", "us"),
    ("tensor.quant.quantize_query_us", "us"),
    ("tensor.ops.top_k_shard_us", "us"),
    ("tensor.ops.top_k_catalog_us", "us"),
    ("tensor.cluster.kmeans_s", "s"),
    ("tensor.pool.scope_us", "us"),
    ("host.stream_gbps", "GB/s"),
    ("core.model.query_vector_us", "us"),
    ("core.model.score_batch_us", "us"),
    ("core.trainer.epoch_s", "s"),
    ("core.trainer.epoch_pairs_per_s", "1/s"),
    ("core.trainer.epoch_pairs_per_s_min", "1/s"),
    ("data.synthetic.generate_s", "s"),
    ("data.split.split_s", "s"),
    ("data.window.sliding_windows_s", "s"),
    ("data.batch.epoch_sampling_s", "s"),
    ("data.batch.instances", "count"),
    ("eval.protocol.pass_s", "s"),
    ("eval.ranking.top_k_excluding_us", "us"),
    ("online.ingest_us", "us"),
    ("online.round.train_s", "s"),
    ("online.round.publish_s", "s"),
    ("online.round.unaccounted_s", "s"),
    ("online.round.shadow_probes", "count"),
    ("online.round.instances", "count"),
    ("online.round.rejected", "count"),
    ("online.round.retries", "count"),
    ("online.bootstrap_s", "s"),
];

/// Length of the measured window in seconds: the `run_seconds` of
/// `BENCHMARK.json`, and the only value `--seconds` accepts. It decides how
/// many evaluation passes, online rounds and slices a run holds, so numbers
/// taken at another length would not be comparable.
pub const RUN_SECONDS: u64 = 15;

/// Upper bound on set-up repetitions (see [`Sizes::setup_budget`]).
pub const MAX_SETUP_REPEATS: usize = 21;

/// The model every workload uses: HAMs_m with d=32, n_h=5, n_l=2, n_p=3, p=2.
pub fn model_config() -> HamConfig {
    HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 2)
}

/// Every size a run depends on. [`Sizes::reference`] is what the benchmark
/// measures; the rot-guard test drives the same code at [`Sizes::toy`].
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Length of each measured window ([`RUN_SECONDS`]).
    pub window: Duration,
    /// Set-up is repeated at least this many times, and further (up to
    /// [`MAX_SETUP_REPEATS`]) while the repetitions so far took less than
    /// `setup_budget`; `setup_s` is the median.
    pub setup_repeats: usize,
    pub setup_budget: Duration,
    /// Users (= requests per pass) of the serving request stream.
    pub serve_users: usize,
    pub history_len: usize,
    pub shards: usize,
    pub small_catalog: usize,
    pub large_catalog: usize,
    /// Requests per `recommend_batch` call on the batch workload.
    pub batch_chunk: usize,
    /// Requests of the stream whose served ranking the oracle re-derives.
    pub oracle_sample: usize,
    pub serve_warmup: Duration,
    /// The dataset of `train_eval_ml1m` and `online_rounds`.
    pub dataset: DatasetProfile,
    pub train_epochs: usize,
    /// `evaluate_batch` passes after training (fixed work: ≈8 s of training
    /// and ≈7 s of passes make the run about [`RUN_SECONDS`] long).
    pub eval_passes: usize,
    pub ingests_per_round: usize,
    pub round_epochs: usize,
    /// Rounds every `online_rounds` window runs, however long they take; the
    /// version live after the last of them is the one whose quality is
    /// reported.
    pub min_rounds: usize,
    /// Rounds of the online loop's replay in other workloads' traced runs.
    pub replay_rounds: usize,
    pub online_warmup: Duration,
    /// Calls per replayed layer function in the traced run.
    pub replay_requests: usize,
    /// Size of the buffer copied for `host.stream_gbps`.
    pub stream_buffer_mib: usize,
}

impl Sizes {
    /// The sizes the benchmark measures at.
    pub fn reference() -> Self {
        Self {
            window: Duration::from_secs(RUN_SECONDS),
            setup_repeats: 3,
            setup_budget: Duration::from_secs(1),
            serve_users: 2000,
            history_len: 40,
            shards: 4,
            small_catalog: 10_000,
            large_catalog: 120_000,
            batch_chunk: 64,
            oracle_sample: 256,
            serve_warmup: Duration::from_secs(2),
            dataset: DatasetProfile::ml_1m(),
            train_epochs: 3,
            eval_passes: 96,
            ingests_per_round: 4000,
            round_epochs: 2,
            min_rounds: 32,
            replay_rounds: 4,
            online_warmup: Duration::from_millis(500),
            replay_requests: 2000,
            stream_buffer_mib: 256,
        }
    }

    /// The same code path at a size a unit test can afford.
    #[cfg(test)]
    pub fn toy() -> Self {
        let mut dataset = DatasetProfile::tiny("toy");
        dataset.mean_seq_len = 24.0;
        Self {
            window: Duration::from_millis(200),
            setup_repeats: 2,
            setup_budget: Duration::ZERO,
            serve_users: 60,
            history_len: 12,
            shards: 4,
            small_catalog: 120,
            large_catalog: 200,
            batch_chunk: 16,
            oracle_sample: 24,
            serve_warmup: Duration::from_millis(20),
            dataset,
            train_epochs: 1,
            eval_passes: 2,
            ingests_per_round: 150,
            round_epochs: 1,
            min_rounds: 2,
            replay_rounds: 2,
            online_warmup: Duration::from_millis(10),
            replay_requests: 40,
            stream_buffer_mib: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these constants are what
    /// the program emits. Every name and unit must appear in both.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for name in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")), "workload {name} missing");
        }
        for (name, unit) in END_TO_END.into_iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ")),
                "metric {name} [{unit}] missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extra names");
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")), "run_seconds is not {RUN_SECONDS}");
    }

    /// `BENCHMARK.json` builds this directory as a package of its own (the
    /// driver's contract), while fmt, clippy, ham-lint and these tests reach
    /// the same sources as `ham-bench`'s `benchmark` binary. The two builds
    /// must not drift apart: the package's release profile is the root
    /// manifest's, and it depends on nothing `ham-bench` does not.
    #[test]
    fn the_package_manifest_follows_the_workspace() {
        /// The lines of `[section]`, without comments and blank lines.
        fn section<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
            let body = manifest.lines().skip_while(|line| line.trim() != header).skip(1);
            body.take_while(|line| !line.starts_with('[')).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
        }
        let package = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let ham_bench = include_str!("../../../Cargo.toml");
        assert!(!section(root, "[profile.release]").is_empty());
        assert_eq!(section(package, "[profile.release]"), section(root, "[profile.release]"));
        let allowed = section(ham_bench, "[dependencies]");
        for dependency in section(package, "[dependencies]") {
            let name = dependency.split(' ').next().unwrap_or_default();
            assert!(dependency.contains(&format!("path = \"../../../../{}\"", name.trim_start_matches("ham-"))));
            assert!(allowed.iter().any(|line| line.split(' ').next() == Some(name)), "{name} is not in ham-bench");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            WORKLOADS.into_iter().chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(allowed)));
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| m.1.len() <= 16));
    }
}
