//! Generates `BENCH_online.json`: end-to-end numbers for the online
//! training loop (`ham-online`) — train → publish → serve in one process.
//!
//! Four measurements:
//!
//! * **Incremental vs full retrain** — the headline: wall-clock cost of
//!   consuming a 10% fresh slice through incremental rounds (fresh windows
//!   only, warm Adam moments) vs one from-scratch retrain on the cumulative
//!   stream at the same epoch budget.
//! * **Publish latency** — seconds from "round finished training" to "new
//!   version live in the registry": freezing the snapshot, the shadow gate
//!   (reported on its own as `gate_seconds`) and the registry swap, which
//!   itself is nanoseconds.
//! * **Staleness** — wall-clock gap between successive published versions
//!   (ingest + train + publish of a round): how old the serving model gets
//!   between refreshes on this cadence.
//! * **Served-version mix** — client threads hammer the `RecServer` across
//!   both incremental rounds; the responses-per-version histogram shows the
//!   hot-swap serving every version with no pause and no shed.
//!
//! A quality section scores the stale (bootstrap), incremental and
//! full-retrain models on a held-out fresh slice (each user's final
//! interaction): incremental training on only the fresh windows should
//! recover most of the full retrain's lift over the stale model.
//!
//! Run from the repository root: `cargo run --release -p ham-bench --bin
//! online_report` (append `-- --quick` for the CI smoke configuration).

use ham_core::{train, HamConfig, HamModel, HamVariant, Scorer, TrainConfig};
use ham_data::synthetic::DatasetProfile;
use ham_online::{OnlineConfig, OnlineTrainer, RoundReport};
use ham_serve::{RecServer, RecommendRequest, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const SEED: u64 = 20260731;

struct BenchScale {
    profile_scale: f64,
    d: usize,
    epochs_per_round: usize,
    clients: usize,
}

impl BenchScale {
    fn new(quick: bool) -> Self {
        if quick {
            Self { profile_scale: 1.0, d: 16, epochs_per_round: 2, clients: 2 }
        } else {
            Self { profile_scale: 6.0, d: 32, epochs_per_round: 3, clients: 2 }
        }
    }
}

/// Splits each user's sequence into (initial 90%, fresh 10%, held-out last
/// item). The fresh slice is what the online loop ingests; the held-out item
/// is the quality probe.
struct StreamSplit {
    initial: Vec<Vec<usize>>,
    fresh: Vec<(usize, usize)>,
    holdout: Vec<(usize, Vec<usize>, usize)>,
    num_items: usize,
}

fn split_stream(profile_scale: f64) -> StreamSplit {
    let data = DatasetProfile::tiny("online-bench").with_scale(profile_scale).generate(SEED);
    let mut initial = Vec::with_capacity(data.num_users());
    let mut fresh = Vec::new();
    let mut holdout = Vec::new();
    for (user, seq) in data.sequences.iter().enumerate() {
        if seq.len() < 12 {
            initial.push(seq.clone());
            continue;
        }
        let (working, target) = seq.split_at(seq.len() - 1);
        let cut = working.len() - working.len().div_ceil(10); // last ~10% is fresh
        initial.push(working[..cut].to_vec());
        for &item in &working[cut..] {
            fresh.push((user, item));
        }
        holdout.push((user, working.to_vec(), target[0]));
    }
    StreamSplit { initial, fresh, holdout, num_items: data.num_items }
}

/// Fraction of held-out next items ranked in the model's top-k.
fn hit_rate(model: &HamModel, holdout: &[(usize, Vec<usize>, usize)]) -> f64 {
    let mut hits = 0usize;
    for (user, history, target) in holdout {
        if model.recommend_top_k(*user, history, K, false).contains(target) {
            hits += 1;
        }
    }
    hits as f64 / holdout.len().max(1) as f64
}

struct RoundRow {
    report: RoundReport,
    staleness_seconds: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = BenchScale::new(quick);
    let split = split_stream(scale.profile_scale);
    let num_users = split.initial.len();
    let fresh_fraction =
        split.fresh.len() as f64 / (split.fresh.len() + split.initial.iter().map(Vec::len).sum::<usize>()) as f64;
    eprintln!(
        "online_report: {} users, {} items, {} fresh interactions ({:.1}% of the stream), d = {}{}",
        num_users,
        split.num_items,
        split.fresh.len(),
        fresh_fraction * 100.0,
        scale.d,
        if quick { " (quick)" } else { "" }
    );

    let config = OnlineConfig {
        model: HamConfig::for_variant(HamVariant::HamM).with_dimensions(scale.d, 5, 2, 3, 1),
        train: TrainConfig { epochs: scale.epochs_per_round, batch_size: 256, ..TrainConfig::default() },
        shards: 2,
        quantize_serving: false,
        ivf: None,
        seed: SEED,
        gate: ham_online::PublishGate::default(),
    };

    // Bootstrap: full training on the initial 90%, published as version 1.
    eprintln!("bootstrapping on the initial stream...");
    let bootstrap_started = Instant::now();
    let initial_data = ham_data::SequenceDataset::new("online-bench-initial", split.initial.clone(), split.num_items);
    let mut trainer = OnlineTrainer::bootstrap(&initial_data, config);
    let bootstrap_seconds = bootstrap_started.elapsed().as_secs_f64();
    let stale_model = trainer.model();

    // Clients hammer the server across both incremental rounds; the
    // responses-per-version histogram is the served mix during the swaps.
    let server = Arc::new(RecServer::start(trainer.registry(), ServerConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..scale.clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let histories = split.initial.clone();
            std::thread::spawn(move || {
                let mut by_version: BTreeMap<u64, usize> = BTreeMap::new();
                let mut sheds = 0usize;
                let mut r = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let user = (c * 31 + r * 7) % histories.len();
                    match server.submit(RecommendRequest::new(user, histories[user].clone(), K)) {
                        Ok(response) => *by_version.entry(response.model_version).or_insert(0) += 1,
                        Err(_) => sheds += 1,
                    }
                    r += 1;
                }
                (by_version, sheds)
            })
        })
        .collect();

    // Two incremental rounds, each consuming half the fresh slice; the gap
    // between publishes is the staleness of the serving model on this
    // cadence.
    eprintln!("running incremental rounds while {} clients stay connected...", scale.clients);
    let half = split.fresh.len() / 2;
    let mut rows: Vec<RoundRow> = Vec::new();
    let mut last_publish = Instant::now();
    for wave in [&split.fresh[..half], &split.fresh[half..]] {
        for &(user, item) in wave {
            trainer.ingest(user, item);
        }
        let report = trainer.run_round();
        let staleness_seconds = last_publish.elapsed().as_secs_f64();
        last_publish = Instant::now();
        eprintln!(
            "  round {}: {} fresh -> {} instances in {:.3}s train + {:.4}s publish, {:.4}s of it gating (version {})",
            report.round,
            report.fresh_interactions,
            report.instances_trained,
            report.train_seconds,
            report.publish_seconds,
            report.gate_seconds,
            report.version
        );
        rows.push(RoundRow { report, staleness_seconds });
    }
    let incremental_model = trainer.model();
    stop.store(true, Ordering::SeqCst);
    let mut served_mix: BTreeMap<u64, usize> = BTreeMap::new();
    let mut sheds = 0usize;
    for client in clients {
        let (by_version, client_sheds) = client.join().expect("client thread panicked");
        for (version, count) in by_version {
            *served_mix.entry(version).or_insert(0) += count;
        }
        sheds += client_sheds;
    }

    // The from-scratch reference: one full retrain on the cumulative stream
    // at the same epoch budget.
    eprintln!("full retrain on the cumulative stream (reference)...");
    let mut cumulative = split.initial.clone();
    for &(user, item) in &split.fresh {
        cumulative[user].push(item);
    }
    let full_started = Instant::now();
    let full_model = train(&cumulative, split.num_items, &config.model, &config.train, SEED);
    let full_seconds = full_started.elapsed().as_secs_f64();

    let incremental_seconds: f64 = rows.iter().map(|r| r.report.train_seconds + r.report.publish_seconds).sum();
    let speedup = full_seconds / incremental_seconds;
    let publish_mean = rows.iter().map(|r| r.report.publish_seconds).sum::<f64>() / rows.len() as f64;
    let gate_mean = rows.iter().map(|r| r.report.gate_seconds).sum::<f64>() / rows.len() as f64;
    let staleness_mean = rows.iter().map(|r| r.staleness_seconds).sum::<f64>() / rows.len() as f64;

    let quality_stale = hit_rate(&stale_model, &split.holdout);
    let quality_incremental = hit_rate(&incremental_model, &split.holdout);
    let quality_full = hit_rate(&full_model, &split.holdout);

    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"Online training loop: cost of consuming a ~10% fresh slice through \
         incremental rounds (fresh windows only, warm-started Adam with per-row bias correction) vs one \
         full retrain on the cumulative stream; publish latency, staleness between published versions, \
         the served-version mix while clients stay connected through the hot-swaps, and hit@10 on each \
         user's held-out final interaction.\",\n",
    );
    out.push_str(&format!(
        "  \"quick\": {quick},\n  \"users\": {num_users},\n  \"items\": {},\n  \"d\": {},\n  \"epochs_per_round\": {},\n",
        split.num_items, scale.d, scale.epochs_per_round
    ));
    out.push_str(&format!(
        "  \"fresh_interactions\": {},\n  \"fresh_fraction\": {:.4},\n  \"bootstrap_seconds\": {:.4},\n",
        split.fresh.len(),
        fresh_fraction,
        bootstrap_seconds
    ));
    out.push_str("  \"rounds\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"round\": {}, \"version\": {}, \"fresh_interactions\": {}, \"instances_trained\": {}, \
             \"train_seconds\": {:.4}, \"publish_seconds\": {:.6}, \"gate_seconds\": {:.6}, \
             \"staleness_seconds\": {:.4}}}{}\n",
            row.report.round,
            row.report.version,
            row.report.fresh_interactions,
            row.report.instances_trained,
            row.report.train_seconds,
            row.report.publish_seconds,
            row.report.gate_seconds,
            row.staleness_seconds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"full_retrain_seconds\": {full_seconds:.4},\n  \"incremental_total_seconds\": {incremental_seconds:.4},\n  \
         \"incremental_speedup_vs_full\": {speedup:.2},\n  \"publish_seconds_mean\": {publish_mean:.6},\n  \
         \"gate_seconds_mean\": {gate_mean:.6},\n  \
         \"staleness_seconds_mean\": {staleness_mean:.4},\n"
    ));
    out.push_str(&format!(
        "  \"served_version_mix\": {{{}}},\n  \"client_sheds\": {sheds},\n",
        served_mix.iter().map(|(version, count)| format!("\"v{version}\": {count}")).collect::<Vec<_>>().join(", ")
    ));
    out.push_str(&format!(
        "  \"holdout_hit_at_{K}\": {{\"stale_bootstrap\": {quality_stale:.4}, \"incremental\": {quality_incremental:.4}, \
         \"full_retrain\": {quality_full:.4}}}\n"
    ));
    out.push_str("}\n");

    std::fs::write("BENCH_online.json", &out).expect("failed to write BENCH_online.json");
    println!("{out}");
    eprintln!(
        "wrote BENCH_online.json (incremental rounds {speedup:.1}x faster than full retrain; \
         hit@{K} stale {quality_stale:.3} -> incremental {quality_incremental:.3} vs full {quality_full:.3})"
    );
}
