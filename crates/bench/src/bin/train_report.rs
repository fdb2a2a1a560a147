//! Generates `BENCH_training.json`: BPR training throughput (pairs/s) of the
//! mini-batched pipeline vs batch size, per kernel tier, with the
//! trainer's page faults per batch and the split of one ML-1M epoch.
//!
//! `batch_size = 1` is the bit-exact per-instance path (one Adam step per
//! sliding window, scalar dot scores); `32` packs one analytic gradient block
//! per batch (pair scores by two dots, gradients folded with `axpy` into the
//! block's coalesced candidate and window rows, one sparse Adam step); `256`
//! and `1024` fill one and four blocks. The pooling-only variant (HAMm) is
//! the headline row; HAMs_m adds the closed-form synergy gradients. Tiers are
//! forced in-process with `force_tier`, so one run compares every tier the
//! CPU supports (portable reference, AVX2+FMA, AVX-512) on identical data;
//! throughput is read from the trainer's own `EpochStats::pairs_per_sec`
//! (warm epochs only).
//!
//! The `hams_m_minor_faults_per_batch` cell reads this process's minor page
//! faults (`/proc/self/stat` field 10) around a 3-epoch and a 1-epoch HAMs_m
//! run at batch 256 and divides the difference by the 2 extra epochs'
//! batches. The trainer keeps its gradient buffers for the whole run, so a
//! batch should fault no page in; the bin exits non-zero when the cell
//! reads above 1.0 (a trainer that frees and re-faults its per-batch buffers
//! reads dozens).
//!
//! The `hams_m_ml1m_epoch_split` cell runs one HAMs_m epoch on the full
//! `DatasetProfile::ml_1m()` at batch 256 with telemetry installed — the
//! last cell, since the handle is process-global — and reads back the
//! seconds spent in gradient blocks (`train_block_gradient_nanos`), batch
//! assembly (`train_batch_assembly_nanos`) and Adam
//! (`train_optimizer_step_nanos`), their sum and the epoch's wall time. The
//! bin exits non-zero when the three parts cover less than 95% of the epoch:
//! the parts of an epoch must compose to the whole.
//!
//! Run from the repository root (`--quick` shrinks the workload for CI):
//! `cargo run --release -p ham-bench --bin train_report [-- --quick]`.

use ham_core::{train_with_history, HamConfig, HamVariant, TrainConfig};
use ham_data::synthetic::DatasetProfile;
use ham_telemetry::Telemetry;
use ham_tensor::kernels::{force_tier, KernelTier};

const BATCH_SIZES: [usize; 4] = [1, 32, 256, 1024];

/// Most minor page faults one training batch may take.
const MAX_FAULTS_PER_BATCH: f64 = 1.0;

/// Least share of an epoch's wall time its three timed parts must cover.
const MIN_EPOCH_COVERAGE: f64 = 0.95;

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

/// This process's minor page faults so far: field 10 of `/proc/self/stat`
/// (`None` where there is no such file).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Minor page faults per batch of the epochs a 3-epoch HAMs_m run at batch
/// 256 trains beyond a 1-epoch one.
fn faults_per_batch(sequences: &[Vec<usize>], num_items: usize, config: &HamConfig) -> Option<f64> {
    let faults = |epochs: usize| {
        let tc = TrainConfig { epochs, batch_size: 256, ..TrainConfig::default() };
        let before = minor_faults()?;
        let (_, history) = std::hint::black_box(train_with_history(sequences, num_items, config, &tc, 42));
        Some((minor_faults()? - before, history[0].num_instances.div_ceil(256)))
    };
    let (short, batches) = faults(1)?;
    let (long, _) = faults(3)?;
    Some(long.saturating_sub(short) as f64 / (2 * batches) as f64)
}

/// Where one HAMs_m epoch on ML-1M goes, in seconds.
struct EpochSplit {
    blocks_s: f64,
    assembly_s: f64,
    adam_s: f64,
    epoch_s: f64,
}

impl EpochSplit {
    fn parts_s(&self) -> f64 {
        self.blocks_s + self.assembly_s + self.adam_s
    }

    fn coverage(&self) -> f64 {
        self.parts_s() / self.epoch_s
    }
}

/// One HAMs_m epoch on the ML-1M profile at batch 256 on one thread, with an
/// enabled telemetry handle installed for the rest of the process.
fn epoch_split(config: &HamConfig) -> EpochSplit {
    assert!(ham_telemetry::install_global(Telemetry::enabled()), "the first global install in this process");
    let data = DatasetProfile::ml_1m().generate(1);
    let tc = TrainConfig { epochs: 1, batch_size: 256, num_threads: 1, ..TrainConfig::default() };
    let (_, history) = train_with_history(&data.sequences, data.num_items, config, &tc, 1);
    let snapshot = ham_telemetry::global().snapshot().expect("the global handle is enabled");
    let seconds = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
    // The trainer's own epoch clock: pairs over pairs per second.
    let epoch = history[0];
    EpochSplit {
        blocks_s: seconds("train_block_gradient_nanos"),
        assembly_s: seconds("train_batch_assembly_nanos"),
        adam_s: seconds("train_optimizer_step_nanos"),
        epoch_s: (epoch.num_instances * config.n_p) as f64 / epoch.pairs_per_sec,
    }
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

    eprintln!("measuring HAMs_m minor page faults per batch...");
    let faults = faults_per_batch(&data.sequences, data.num_items, &variants[1].1);

    eprintln!("measuring the split of one HAMs_m epoch on ML-1M (telemetry installed)...");
    let split = epoch_split(&variants[1].1);

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
        "  \"description\": \"Mini-batched BPR training throughput: pairs/s per batch size (1 = per-instance path, 32/256/1024 = analytic gradient blocks, one coalesced sparse Adam step per batch) and per kernel tier, measured via EpochStats::pairs_per_sec on warm epochs. HAMm = pooling-only analytic gradients (the headline), HAMs_m = analytic gradients with order-2 synergies. hams_m_minor_faults_per_batch = minor page faults (/proc/self/stat field 10) per batch of the 2 epochs a 3-epoch HAMs_m run at batch 256 trains beyond a 1-epoch one; the bin fails when it is > 1. hams_m_ml1m_epoch_split = seconds of one HAMs_m epoch on the full ML-1M profile at batch 256 (1 thread) spent in gradient blocks, batch assembly and Adam (telemetry histogram sums), their sum and the epoch wall time; the bin fails when the parts cover < 0.95 of the epoch. Generated by train_report.\",\n",
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
    let faults_cell = faults.map_or_else(|| "null".to_string(), |f| format!("{f:.3}"));
    out.push_str(&format!("  \"hams_m_minor_faults_per_batch\": {faults_cell},\n"));
    out.push_str(&format!(
        "  \"hams_m_ml1m_epoch_split\": {{\"gradient_blocks_s\": {:.3}, \"batch_assembly_s\": {:.3}, \"adam_s\": {:.3}, \"parts_s\": {:.3}, \"epoch_s\": {:.3}, \"coverage\": {:.3}}},\n",
        split.blocks_s,
        split.assembly_s,
        split.adam_s,
        split.parts_s(),
        split.epoch_s,
        split.coverage(),
    ));
    out.push_str(&format!("  \"quick\": {quick}\n"));
    out.push_str("}\n");

    std::fs::write("BENCH_training.json", &out).expect("failed to write BENCH_training.json");
    println!("{out}");
    eprintln!("wrote BENCH_training.json");
    let mut failed = false;
    if let Some(f) = faults.filter(|&f| f > MAX_FAULTS_PER_BATCH) {
        eprintln!(
            "hams_m_minor_faults_per_batch: {f:.3} > {MAX_FAULTS_PER_BATCH} — training faults pages in per batch"
        );
        failed = true;
    }
    if split.coverage() < MIN_EPOCH_COVERAGE {
        eprintln!(
            "hams_m_ml1m_epoch_split: the timed parts cover {:.3} < {MIN_EPOCH_COVERAGE} of the epoch",
            split.coverage()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
