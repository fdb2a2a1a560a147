//! # ham-bench
//!
//! Criterion benchmarks for the HAM reproduction. The crate's library part
//! only hosts shared fixture helpers; the benchmarks themselves live under
//! `benches/`:
//!
//! * `inference` — per-user test-time scoring latency of HAMs_m vs Caser,
//!   SASRec and HGN (the shape of Table 14).
//! * `training_step` — cost of one mini-batch training step per method
//!   (HAM on its analytic gradients, HGN on the autograd tape).
//! * `pooling_vs_attention` — the design-choice ablation the paper motivates:
//!   mean/max pooling vs a parameterised attention layer over the same window.
//! * `synergy_order` — cost of the recursive synergies for `p = 1..4`
//!   (the `p` rows of Tables 10–12).
//! * `data_pipeline` — synthetic generation, splitting and sliding-window
//!   extraction throughput.
//! * `scoring_kernels` — the scoring-kernel ladder (naive per-item dot loop
//!   vs fused `matvec_transposed` vs batched `Q·Wᵀ`) at catalogue sizes
//!   1k / 10k / 50k.
//!
//! Report binaries under `src/bin/` write JSON artifacts, among them
//! `serve_report` (`BENCH_serving.json`, the sharded online subsystem) and
//! `kernel_report` (`BENCH_kernels.json`, portable vs
//! explicit-AVX2 kernel tiers in GFLOP/s — run it on a build without
//! `-C target-cpu=native` to see what runtime dispatch buys a portable
//! binary).

#![forbid(unsafe_code)]

use ham_core::{train, HamConfig, HamModel, HamVariant, TrainConfig};
use ham_data::dataset::SequenceDataset;
use ham_data::synthetic::DatasetProfile;

/// A small but non-trivial dataset used by all benchmarks: ~200 users over a
/// few hundred items so per-user scoring cost is measurable.
pub fn bench_dataset() -> SequenceDataset {
    let mut profile = DatasetProfile::tiny("bench");
    profile.num_users = 200;
    profile.num_items = 400;
    profile.mean_seq_len = 40.0;
    profile.generate(2024)
}

/// Trains a small HAM model of the given variant on the benchmark dataset.
pub fn quick_ham(dataset: &SequenceDataset, variant: HamVariant, d: usize) -> HamModel {
    let config = HamConfig::for_variant(variant).with_dimensions(d, 5, 2, 3, if d >= 2 { 2 } else { 1 });
    let train_cfg = TrainConfig { epochs: 1, batch_size: 128, ..TrainConfig::default() };
    train(&dataset.sequences, dataset.num_items, &config, &train_cfg, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_usable() {
        let data = bench_dataset();
        assert!(data.num_users() >= 150);
        let model = quick_ham(&data, HamVariant::HamSM, 8);
        assert_eq!(model.num_items(), data.num_items);
    }
}
