//! Generates `BENCH_training.json`: BPR training throughput (pairs/s) of the
//! mini-batched pipeline vs batch size, per kernel tier.
//!
//! `batch_size = 1` is the bit-exact legacy per-instance path (one Adam step
//! per sliding window, scalar dot scores); `32` packs exactly one GEMM block
//! per batch (`Q·Cᵀ` via `matmul_transposed`, gradients via the rank-1
//! `axpy_rows` scatter, one coalesced sparse Adam step); `256` spans several
//! blocks per step. The pooling-only variant (HAMm, manual gradients) is the
//! headline row; HAMs_m exercises the batched autograd tape the synergy
//! variants train on. Tiers are forced in-process with `force_tier`, so one
//! run compares every tier the CPU supports (portable reference, AVX2+FMA,
//! AVX-512) on identical data; throughput is read from the trainer's own
//! `EpochStats::pairs_per_sec` (warm epochs only).
//!
//! Run from the repository root (`--quick` shrinks the workload for CI):
//! `cargo run --release -p ham-bench --bin train_report [-- --quick]`.

use ham_core::{train_with_history, HamConfig, HamVariant, TrainConfig};
use ham_data::synthetic::DatasetProfile;
use ham_tensor::kernels::{force_tier, KernelTier};

const BATCH_SIZES: [usize; 4] = [1, 32, 256, 1024];

struct Row {
    variant: &'static str,
    tier: KernelTier,
    batch_size: usize,
    pairs_per_sec: f64,
}

fn measure(sequences: &[Vec<usize>], num_items: usize, config: &HamConfig, batch_size: usize, epochs: usize) -> f64 {
    let tc = TrainConfig { epochs, batch_size, ..TrainConfig::default() };
    let (_, history) = train_with_history(sequences, num_items, config, &tc, 42);
    // skip the first (cold) epoch when there is more than one
    let warm = if history.len() > 1 { &history[1..] } else { &history[..] };
    warm.iter().map(|e| e.pairs_per_sec).fold(0.0, f64::max)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let epochs = if quick { 2 } else { 4 };

    let mut profile = DatasetProfile::tiny("train-report");
    profile.num_users = if quick { 120 } else { 250 };
    profile.num_items = 400;
    profile.mean_seq_len = 40.0;
    let data = profile.generate(2024);

    let tiers: Vec<KernelTier> =
        [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512].into_iter().filter(|t| t.supported()).collect();
    let variants: [(&'static str, HamConfig); 2] = [
        ("HAMm", HamConfig::for_variant(HamVariant::HamM).with_dimensions(32, 5, 2, 3, 1)),
        ("HAMs_m", HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 2)),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for &tier in &tiers {
        force_tier(Some(tier));
        for (variant, config) in &variants {
            for batch_size in BATCH_SIZES {
                eprintln!("measuring {variant} tier={tier} batch_size={batch_size}...");
                let pairs_per_sec = measure(&data.sequences, data.num_items, config, batch_size, epochs);
                rows.push(Row { variant, tier, batch_size, pairs_per_sec });
            }
        }
    }
    force_tier(None);

    let throughput = |variant: &str, tier: KernelTier, batch: usize| -> f64 {
        rows.iter()
            .find(|r| r.variant == variant && r.tier == tier && r.batch_size == batch)
            .map_or(f64::NAN, |r| r.pairs_per_sec)
    };
    // Headline: the worst (over tiers) best (over batch sizes >= 32)
    // speedup of the pooling-only variant vs instance-at-a-time training —
    // the acceptance criterion of the batched training pipeline.
    let min_best_speedup_pooling = tiers
        .iter()
        .map(|&t| {
            BATCH_SIZES
                .iter()
                .filter(|&&b| b >= 32)
                .map(|&b| throughput("HAMm", t, b) / throughput("HAMm", t, 1))
                .fold(0.0, f64::max)
        })
        .fold(f64::INFINITY, f64::min);

    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"Mini-batched BPR training throughput: pairs/s per batch size (1 = legacy per-instance path, 32/256/1024 = GEMM-tiled batches, one coalesced sparse Adam step per batch) and per kernel tier, measured via EpochStats::pairs_per_sec on warm epochs. HAMm = pooling-only manual gradients (the headline), HAMs_m = batched autograd tape. Generated by train_report.\",\n",
    );
    out.push_str(&format!(
        "  \"users\": {},\n  \"items\": {},\n  \"d\": 32,\n  \"epochs\": {},\n  \"avx2_tier_available\": {},\n  \"avx512_tier_available\": {},\n",
        profile.num_users,
        data.num_items,
        epochs,
        KernelTier::Avx2.supported(),
        KernelTier::Avx512.supported(),
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.pairs_per_sec / throughput(r.variant, r.tier, 1);
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"tier\": \"{}\", \"batch_size\": {}, \"pairs_per_sec\": {:.0}, \"speedup_vs_batch1\": {:.3}}}{}\n",
            r.variant,
            r.tier,
            r.batch_size,
            r.pairs_per_sec,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"min_best_speedup_batch_ge32_pooling_only\": {min_best_speedup_pooling:.3},\n"));
    out.push_str(&format!("  \"quick\": {quick}\n"));
    out.push_str("}\n");

    std::fs::write("BENCH_training.json", &out).expect("failed to write BENCH_training.json");
    println!("{out}");
    eprintln!("wrote BENCH_training.json");
}
