//! Property tests of the batched scoring kernel layer: `score_batch` must be
//! bit-compatible (≤ 1e-5) with the per-user `score_all` path across every
//! HAM variant (including the synergy variants and padded short histories),
//! and the threaded evaluation protocol must produce identical reports for
//! every thread count.

use ham::core::scorer::Scorer;
use ham::core::{HamConfig, HamModel, HamVariant};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::SequenceDataset;
use ham::eval::protocol::{evaluate, evaluate_batch, EvalConfig};
use ham_baselines::{BprMf, BprMfConfig, Hgn, HgnConfig, PopRec};
use ham_tensor::Matrix;
use proptest::prelude::*;

const ALL_VARIANTS: [HamVariant; 6] = [
    HamVariant::HamX,
    HamVariant::HamM,
    HamVariant::HamSX,
    HamVariant::HamSM,
    HamVariant::HamSMNoLowOrder,
    HamVariant::HamSMNoUser,
];

const NUM_USERS: usize = 6;
const NUM_ITEMS: usize = 40;

fn variant_model(variant: HamVariant, seed: u64) -> HamModel {
    let base = HamConfig::for_variant(variant);
    let p = if base.uses_synergies() { 2 } else { 1 };
    let config = base.with_dimensions(12, 4, base.n_l.min(2), 2, p);
    HamModel::new(NUM_USERS, NUM_ITEMS, config, seed)
}

/// Random histories covering the padding path: lengths 1..12 over the
/// catalogue, so some histories are shorter than `n_h` and get front-padded.
fn histories_from(pool: &[usize], lengths: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for &len in lengths {
        let mut history = Vec::with_capacity(len);
        for _ in 0..len {
            history.push(pool[cursor % pool.len()]);
            cursor += 1;
        }
        out.push(history);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `score_batch` (blocked `Q·Wᵀ` GEMM) agrees with per-user `score_all`
    /// (fused `W·q` pass) within 1e-5 for every variant, every user and every
    /// item — including length-1 histories that exercise window padding.
    #[test]
    fn score_batch_matches_score_all_for_all_variants(
        seed in 0u64..500,
        item_pool in proptest::collection::vec(0usize..NUM_ITEMS, 24..48),
        lengths in proptest::collection::vec(1usize..12, 3..7),
    ) {
        let histories = histories_from(&item_pool, &lengths);
        let users: Vec<usize> = (0..histories.len()).map(|i| i % NUM_USERS).collect();
        let history_refs: Vec<&[usize]> = histories.iter().map(|h| h.as_slice()).collect();
        for variant in ALL_VARIANTS {
            let model = variant_model(variant, seed);
            let batch = model.score_batch(&users, &history_refs);
            prop_assert_eq!(batch.shape(), (users.len(), NUM_ITEMS));
            for (i, (&user, history)) in users.iter().zip(&history_refs).enumerate() {
                let single = model.score_all(user, history);
                for (j, (&b, &s)) in batch.row(i).iter().zip(&single).enumerate() {
                    prop_assert!(
                        (b - s).abs() <= 1e-5,
                        "{}: user {} item {}: batched {} vs per-user {}",
                        variant.name(), user, j, b, s
                    );
                }
            }
        }
    }

    /// The `Scorer`-trait batch path (one GEMM) agrees with its per-user
    /// rows (`score_all`, one GEMV each), so callers can rely on either
    /// entry point.
    #[test]
    fn scorer_trait_fallback_agrees_with_gemm_override(seed in 0u64..200) {
        let model = variant_model(HamVariant::HamSM, seed);
        let histories = [vec![1usize, 2, 3, 4, 5], vec![7], vec![0, 9, 3]];
        let users = [0usize, 1, 2];
        let refs: Vec<&[usize]> = histories.iter().map(|h| h.as_slice()).collect();
        let gemm = Scorer::score_batch(&model, &users, &refs);
        for (i, (&user, history)) in users.iter().zip(&refs).enumerate() {
            let row = Scorer::score_all(&model, user, history);
            prop_assert_eq!(row.len(), NUM_ITEMS);
            for (&g, &r) in gemm.row(i).iter().zip(&row) {
                prop_assert!((g - r).abs() <= 1e-5);
            }
        }
    }
}

fn eval_dataset(seed: usize) -> SequenceDataset {
    let sequences: Vec<Vec<usize>> =
        (0..NUM_USERS).map(|u| (0..25).map(|t| (u * 7 + t * (seed + 1)) % NUM_ITEMS).collect()).collect();
    SequenceDataset::new("batched-eval", sequences, NUM_ITEMS)
}

/// `evaluate` with `num_threads = 4` produces an identical report (per-user
/// metrics and means) to `num_threads = 1`, for both the per-user and the
/// batched protocol entry points.
#[test]
fn threaded_evaluation_is_deterministic_wrt_thread_count() {
    let split = split_dataset(&eval_dataset(3), EvalSetting::Cut8020);
    let model = variant_model(HamVariant::HamSM, 17);

    let report_for = |threads: usize| {
        let config = EvalConfig { num_threads: threads, ..EvalConfig::default() };
        evaluate(&split, &config, |u, h| model.score_all(u, h))
    };
    let batch_report_for = |threads: usize| {
        let config = EvalConfig { num_threads: threads, ..EvalConfig::default() };
        evaluate_batch(&split, &config, |users, histories| model.score_batch(users, histories))
    };

    let sequential = report_for(1);
    let threaded = report_for(4);
    assert_eq!(sequential.per_user, threaded.per_user);
    assert_eq!(sequential.mean, threaded.mean);
    assert_eq!(sequential.num_evaluated, threaded.num_evaluated);

    let batched_sequential = batch_report_for(1);
    let batched_threaded = batch_report_for(4);
    assert_eq!(batched_sequential.per_user, batched_threaded.per_user);
    assert_eq!(batched_sequential.mean, batched_threaded.mean);

    // The batched protocol ranks from GEMM scores; float rounding vs the
    // fused per-user pass stays below any metric decision boundary here.
    assert_eq!(sequential.per_user, batched_sequential.per_user);
}

/// Baselines' batched scorers agree with their per-user paths too.
#[test]
fn baseline_score_batch_matches_score_all() {
    let data = eval_dataset(5);
    let users: Vec<usize> = (0..6).collect();
    let history_refs: Vec<&[usize]> = users.iter().map(|&u| data.sequences[u].as_slice()).collect();

    let bprmf = BprMf::fit(
        &data.sequences,
        data.num_items,
        &BprMfConfig { d: 8, ..Default::default() },
        &Default::default(),
        3,
    );
    let hgn =
        Hgn::fit(&data.sequences, data.num_items, &HgnConfig { d: 8, seq_len: 4, targets: 2 }, &Default::default(), 3);
    let poprec = PopRec::fit(&data.sequences, data.num_items);

    let models: [(&str, &dyn Scorer); 3] = [("BPR-MF", &bprmf), ("HGN", &hgn), ("PopRec", &poprec)];
    for (name, model) in models {
        let batch = model.score_batch(&users, &history_refs);
        assert_eq!(batch.shape(), (users.len(), data.num_items), "{name}");
        for (i, (&u, h)) in users.iter().zip(&history_refs).enumerate() {
            let single = model.score_all(u, h);
            for (j, &s) in single.iter().enumerate() {
                assert!((batch.get(i, j) - s).abs() <= 1e-5, "{name}: user {u} item {j}");
            }
        }
    }
}

/// The batched protocol validates the score-matrix shape.
#[test]
#[should_panic(expected = "num_users, num_items")]
fn wrong_batch_shape_panics() {
    let split = split_dataset(&eval_dataset(1), EvalSetting::Cut8020);
    let _ = evaluate_batch(&split, &EvalConfig::default(), |users, _| Matrix::zeros(users.len(), 3));
}
