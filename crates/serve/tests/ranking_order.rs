//! One ranking order at every layer: every select, merge and re-rank of the
//! workspace returns the same ids and score bits as one reference, the
//! [`Ranked`] key applied by hand. A masked item ranks at `-inf` whatever its
//! score, any other NaN score is dropped (NaN never ranks), the rest is
//! sorted by the key and cut to `k`.
//!
//! The inputs are hostile: NaN rows and entries, ±inf, ±0.0, ties from
//! duplicated rows, histories that mask the whole catalogue, and
//! `k ∈ {0, 1, n, n + 5}`. Entries sit on a 1/8 grid small enough that every
//! finite dot product is exact in f32, and a NaN or infinite product decides
//! a dot's class whatever the summation order, so the GEMV the reference
//! scores with, the row-range GEMV of a lone request and the GEMM of a batch
//! give the same bits on every kernel tier.
//!
//! The paths: `top_k_indices`, `top_k_indices_masked`, `top_k_excluding`,
//! `Scorer::recommend_top_k` (ids only), and `ServingModel` solo
//! (`recommend_with`) and batched (`recommend_batch_with`) on a flat and an
//! IVF (`nprobe = all`) catalogue at 1–8 shards, plus the snapshot
//! `from_scorer` builds, which is clustered under `HAM_RETRIEVAL=ivf`.

use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_eval::ranking::top_k_excluding;
use ham_serve::{IvfConfig, RecommendRequest, ScoredItem, ServeScratch, ServingModel, ShardedCatalog};
use ham_tensor::ops::{top_k_indices, top_k_indices_masked, Ranked};
use ham_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A served or selected ranking as `(id, score bits)`.
type Ranking = Vec<(usize, u32)>;

/// A model that is only its two [`Scorer`] methods: a fixed catalogue and
/// one fixed query per user.
struct Fixed {
    w: Matrix,
    queries: Vec<Vec<f32>>,
}

impl Scorer for Fixed {
    fn candidates(&self) -> &Matrix {
        &self.w
    }

    fn query_vector(&self, user: usize, _history: &[ItemId]) -> Vec<f32> {
        self.queries[user].clone()
    }
}

/// A palette entry: a 1/8 grid in [-2, 2] with both zeros, an infinity now
/// and then, and a NaN at `nan_rate`.
fn entry(rng: &mut StdRng, nan_rate: f64) -> f32 {
    if rng.gen_bool(nan_rate) {
        return f32::NAN;
    }
    match rng.gen_range(0..40) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2..=5 => -0.0,
        6..=9 => 0.0,
        _ => rng.gen_range(-16i32..17) as f32 / 8.0,
    }
}

/// An `n × d` catalogue with duplicated rows (ties), some all-NaN rows and
/// some rows with one NaN entry.
fn catalogue(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
    let mut w = Matrix::from_vec(n, d, (0..n * d).map(|_| entry(rng, 0.0)).collect());
    for _ in 0..n / 3 {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let row = w.row(from).to_vec();
        w.row_mut(to).copy_from_slice(&row);
    }
    for _ in 0..rng.gen_range(0..n / 6 + 2) {
        let item = rng.gen_range(0..n);
        if rng.gen_bool(0.5) {
            w.row_mut(item).fill(f32::NAN);
        } else {
            w.row_mut(item)[rng.gen_range(0..d)] = f32::NAN;
        }
    }
    w
}

/// The reference: the key applied by hand to `scores` with `masked` items
/// at `-inf`.
fn reference(scores: &[f32], masked: &[bool], k: usize) -> Ranking {
    let effective = |i: usize| if masked[i] { f32::NEG_INFINITY } else { scores[i] };
    let mut keys: Vec<Ranked> = (0..scores.len()).filter_map(|i| Ranked::new(effective(i), i)).collect();
    keys.sort_unstable();
    keys.into_iter().take(k).map(|key| (key.index(), key.score().to_bits())).collect()
}

/// Selected ids with the effective score bits they were ranked at.
fn with_bits(ids: Vec<usize>, scores: &[f32], masked: &[bool]) -> Ranking {
    let effective = |i: usize| if masked[i] { f32::NEG_INFINITY } else { scores[i] };
    ids.into_iter().map(|i| (i, effective(i).to_bits())).collect()
}

fn served(list: &[ScoredItem]) -> Ranking {
    list.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

/// One random case: a catalogue and a batch of requests, every path, every
/// shard count.
fn check_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..160);
    let d = rng.gen_range(1..7);
    let w = catalogue(&mut rng, n, d);
    let users = rng.gen_range(1..6);
    // Mostly finite queries; now and then one with a NaN entry, whose every
    // score is NaN, so only masked items rank.
    let queries: Vec<Vec<f32>> = (0..users)
        .map(|_| {
            let nan_rate = if rng.gen_bool(0.1) { 0.3 } else { 0.0 };
            (0..d).map(|_| entry(&mut rng, nan_rate)).collect()
        })
        .collect();
    let ks = [0, 1, n, n + 5];
    let requests: Vec<RecommendRequest> = (0..rng.gen_range(1..9))
        .map(|_| {
            let user = rng.gen_range(0..users);
            let history: Vec<usize> = if rng.gen_bool(0.15) {
                (0..n).rev().collect()
            } else {
                (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..n)).collect()
            };
            RecommendRequest {
                exclude_seen: rng.gen_bool(0.8),
                ..RecommendRequest::new(user, history, ks[rng.gen_range(0..4)])
            }
        })
        .collect();
    let model = Arc::new(Fixed { w: w.clone(), queries: queries.clone() });

    // The references, and the single-node paths against them.
    let mut want = Vec::new();
    let mut seen_scratch = vec![false; n];
    for (r, request) in requests.iter().enumerate() {
        let label = format!("seed = {seed}, n = {n}, d = {d}, request {r} = {request:?}");
        let scores = model.score_all(request.user, &request.history);
        let mut masked = vec![false; n];
        if request.exclude_seen {
            request.history.iter().for_each(|&item| masked[item] = true);
        }
        let expected = reference(&scores, &masked, request.k);
        let got = top_k_indices_masked(&scores, request.k, &masked);
        assert_eq!(with_bits(got, &scores, &masked), expected, "top_k_indices_masked: {label}");
        let ids = if request.exclude_seen {
            top_k_excluding(&scores, request.k, &request.history, &mut seen_scratch)
        } else {
            let got = top_k_indices(&scores, request.k);
            assert_eq!(with_bits(got.clone(), &scores, &masked), expected, "top_k_indices: {label}");
            got
        };
        assert_eq!(with_bits(ids, &scores, &masked), expected, "top_k_excluding / top_k_indices: {label}");
        let ids = model.recommend_top_k(request.user, &request.history, request.k, request.exclude_seen);
        assert_eq!(with_bits(ids, &scores, &masked), expected, "Scorer::recommend_top_k: {label}");
        want.push(expected);
    }

    // Every serving snapshot, solo and batched.
    let clusters = rng.gen_range(1..5);
    for shards in 1..=8 {
        let flat = ShardedCatalog::from_matrix(&w, shards);
        let ivf = flat.clone().with_cluster_index(&IvfConfig { clusters, iters: 2, ..IvfConfig::auto() });
        let query = |queries: Vec<Vec<f32>>| move |user: usize, _: &[usize]| queries[user].clone();
        let snapshots = [
            ServingModel::from_catalog("flat", flat, query(queries.clone())),
            ServingModel::from_catalog("ivf", ivf, query(queries.clone())),
            ServingModel::from_scorer("scorer", Arc::clone(&model), shards).expect("a snapshot"),
        ];
        for serving in &snapshots {
            let label = format!("seed = {seed}, n = {n}, d = {d}, shards = {shards}, {serving:?}");
            let mut scratch = ServeScratch::new();
            for (r, (request, expected)) in requests.iter().zip(&want).enumerate() {
                let solo = serving.recommend_with(request, &mut scratch);
                assert_eq!(&served(&solo), expected, "solo request {r} = {request:?}: {label}");
            }
            let batch = serving.recommend_batch_with(&requests, None, &mut scratch);
            for (r, (list, expected)) in batch.iter().zip(&want).enumerate() {
                assert_eq!(&served(list), expected, "batched request {r} = {:?}: {label}", requests[r]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_select_merge_and_rerank_follows_the_one_key(seed in 0u64..1 << 40) {
        check_case(seed);
    }
}
