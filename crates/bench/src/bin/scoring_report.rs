//! Generates `BENCH_scoring.json`: before/after numbers for the batched
//! scoring kernel layer.
//!
//! * **Kernel ladder** — per-call wall time of the seed's naive per-item dot
//!   loop vs the fused `matvec_transposed` pass vs the batched `Q·Wᵀ` GEMM
//!   (64-user batch, reported per user), at catalogue sizes 1k / 10k / 50k
//!   with d = 32.
//! * **End-to-end evaluation** — the full protocol on the bench dataset
//!   (200 users, 10k items, d = 32): the seed configuration (per-user scalar
//!   dot loop, single-threaded) against the batched configuration
//!   (`score_batch` + `evaluate_batch` with 4 worker threads), plus the two
//!   intermediate rungs so each layer's contribution is visible.
//!
//! Run from the repository root: `cargo run --release -p ham-bench --bin
//! scoring_report` (the JSON is written to the current directory).

use ham_core::{HamConfig, HamModel, HamVariant};
use ham_data::dataset::SequenceDataset;
use ham_data::split::{split_dataset, EvalSetting};
use ham_eval::protocol::{evaluate, evaluate_batch, EvalConfig};
use ham_tensor::kernels::{active_tier, matmul_transposed, matvec_transposed, quantized_matvec_into};
use ham_tensor::ops::Ranked;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const D: usize = 32;
const BATCH: usize = 64;
const EVAL_ITEMS: usize = 10_000;
const EVAL_USERS: usize = 200;

/// The seed's scoring loop: one single-accumulator dot per catalogue item.
fn naive_score_all(w: &Matrix, q: &[f32]) -> Vec<f32> {
    (0..w.rows())
        .map(|j| {
            let row = w.row(j);
            let mut acc = 0.0f32;
            for (x, y) in row.iter().zip(q) {
                acc += x * y;
            }
            acc
        })
        .collect()
}

/// The seed's ranking path, in the workspace's one ranking order: materialise
/// a key for every score, then quickselect and sort the head (no partial
/// selection).
fn seed_top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut keys: Vec<Ranked> = scores.iter().enumerate().filter_map(|(i, &score)| Ranked::new(score, i)).collect();
    let k = k.min(keys.len());
    if k == 0 {
        return Vec::new();
    }
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys.into_iter().map(Ranked::index).collect()
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct KernelRow {
    catalogue: usize,
    naive_us: f64,
    matvec_us: f64,
    batched_per_user_us: f64,
    quantized_matvec_us: f64,
}

fn kernel_ladder() -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 50_000] {
        let w = Matrix::xavier_uniform(n, D, &mut rng);
        let q: Vec<f32> = (0..D).map(|k| (k as f32 * 0.37).sin()).collect();
        let queries = Matrix::xavier_uniform(BATCH, D, &mut rng);
        // Inner repetition keeps each sample above timer resolution.
        let inner = (2_000_000 / n).max(1);
        let naive = time_best(5, || {
            for _ in 0..inner {
                black_box(naive_score_all(black_box(&w), black_box(&q)));
            }
        }) / inner as f64;
        let matvec = time_best(5, || {
            for _ in 0..inner {
                black_box(matvec_transposed(black_box(&w), black_box(&q)));
            }
        }) / inner as f64;
        let gemm_inner = (inner / BATCH).max(1);
        let batched = time_best(5, || {
            for _ in 0..gemm_inner {
                black_box(matmul_transposed(black_box(&queries), black_box(&w)));
            }
        }) / gemm_inner as f64
            / BATCH as f64;
        let qw = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&q);
        let mut qscores = vec![0.0f32; n];
        let quantized = time_best(5, || {
            for _ in 0..inner {
                quantized_matvec_into(black_box(&qw), black_box(&qq), black_box(&mut qscores));
            }
        }) / inner as f64;
        rows.push(KernelRow {
            catalogue: n,
            naive_us: naive * 1e6,
            matvec_us: matvec * 1e6,
            batched_per_user_us: batched * 1e6,
            quantized_matvec_us: quantized * 1e6,
        });
    }
    rows
}

struct EvalRow {
    label: &'static str,
    seconds_total: f64,
    seconds_per_user: f64,
}

fn end_to_end() -> (Vec<EvalRow>, f64) {
    let sequences: Vec<Vec<usize>> =
        (0..EVAL_USERS).map(|u| (0..40).map(|t| (u * 131 + t * 17) % EVAL_ITEMS).collect()).collect();
    let data = SequenceDataset::new("bench-10k", sequences, EVAL_ITEMS);
    let split = split_dataset(&data, EvalSetting::Cut8020);
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(D, 5, 2, 3, 2);
    let model = HamModel::new(EVAL_USERS, EVAL_ITEMS, config, 7);
    let w = model.candidate_item_embeddings();

    let seq_cfg = EvalConfig::default();
    let par_cfg = EvalConfig { num_threads: 4, ..EvalConfig::default() };

    let mut rows = Vec::new();
    let mut run = |label: &'static str, f: &dyn Fn()| {
        let seconds = time_best(3, f);
        rows.push(EvalRow { label, seconds_total: seconds, seconds_per_user: seconds / EVAL_USERS as f64 });
    };

    // The seed's evaluation loop, replicated end to end: sequential users,
    // a scalar dot per catalogue item, history masking, and the seed's
    // full-index-vector quickselect ranking.
    let histories = split.train_with_val();
    run("seed_per_user_dot_loop_1thread", &|| {
        let mut metric_guard = 0.0f64;
        #[allow(clippy::needless_range_loop)]
        for user in 0..EVAL_USERS {
            let history = &histories[user];
            if split.test[user].is_empty() || history.is_empty() {
                continue;
            }
            let truth: std::collections::HashSet<usize> = split.test[user].iter().copied().collect();
            let mut scores = naive_score_all(w, &model.query_vector(user, history));
            for &seen in history {
                scores[seen] = f32::NEG_INFINITY;
            }
            let ranked = seed_top_k(&scores, 10);
            metric_guard += ham_eval::metrics::MetricSet::from_ranking(&ranked, &truth).recall_at_10;
        }
        black_box(metric_guard);
    });
    run("fused_matvec_1thread", &|| {
        black_box(evaluate(&split, &seq_cfg, |u, h| model.score_all(u, h)));
    });
    run("batched_gemm_1thread", &|| {
        black_box(evaluate_batch(&split, &seq_cfg, |users, hists| model.score_batch(users, hists)));
    });
    run("batched_gemm_4threads", &|| {
        black_box(evaluate_batch(&split, &par_cfg, |users, hists| model.score_batch(users, hists)));
    });

    let before = rows[0].seconds_total;
    let after = rows[3].seconds_total;
    (rows, before / after)
}

fn main() {
    eprintln!("measuring kernel ladder (d = {D})...");
    let kernels = kernel_ladder();
    eprintln!("measuring end-to-end evaluation ({EVAL_USERS} users, {EVAL_ITEMS} items, d = {D})...");
    let (eval_rows, speedup) = end_to_end();

    let mut out = String::from("{\n");
    out.push_str("  \"description\": \"Batched scoring kernel layer: before/after numbers. Kernel times are per score_all-equivalent call (microseconds), including the int8 quantized GEMV rung on the dispatched tier; the end-to-end section times the full evaluation protocol on 200 users / 10k items / d=32.\",\n");
    out.push_str(&format!("  \"d\": {D},\n  \"batch_size\": {BATCH},\n"));
    out.push_str(&format!("  \"active_tier\": \"{}\",\n  \"quantized\": true,\n", active_tier()));
    out.push_str("  \"kernel_ladder_us_per_call\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"catalogue\": {}, \"naive_dot_loop\": {:.2}, \"matvec_transposed\": {:.2}, \"batched_qwt_per_user\": {:.2}, \"quantized_matvec\": {:.2}, \"speedup_matvec\": {:.2}, \"speedup_batched\": {:.2}, \"speedup_quantized\": {:.2}}}{}\n",
            r.catalogue,
            r.naive_us,
            r.matvec_us,
            r.batched_per_user_us,
            r.quantized_matvec_us,
            r.naive_us / r.matvec_us,
            r.naive_us / r.batched_per_user_us,
            r.naive_us / r.quantized_matvec_us,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"end_to_end_eval\": {{\"users\": {EVAL_USERS}, \"items\": {EVAL_ITEMS}, \"rows\": [\n"));
    for (i, r) in eval_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"seconds_total\": {:.6}, \"seconds_per_user\": {:.9}}}{}\n",
            r.label,
            r.seconds_total,
            r.seconds_per_user,
            if i + 1 < eval_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!("  \"speedup_batched_4threads_over_seed_loop\": {speedup:.2}\n"));
    out.push_str("}\n");

    std::fs::write("BENCH_scoring.json", &out).expect("failed to write BENCH_scoring.json");
    println!("{out}");
    eprintln!("wrote BENCH_scoring.json (end-to-end speedup: {speedup:.2}x)");
}
