//! `ServingModel::count_hits` — the shadow gate's "does the target rank in
//! the top k?" answered by counting — against the hits of the served exact
//! batched ranking (`recommend_batch_with`, nothing masked), probe chunk by
//! probe chunk, on hostile catalogues: duplicated rows (ties), NaN rows and
//! entries, ±inf, ±0.0, `k` from 1 past the catalogue size, 1–4 shards, and
//! probe counts that leave a last chunk of any size. Every value sits on a
//! dyadic grid small enough that each dot product is exact in f32, so the
//! GEMV a one-row chunk is served with and the GEMM give the same bits on
//! every kernel tier. On NaN- and inf-free catalogues the IVF
//! (`nprobe = all`), int8 and IVF-int8 snapshots must count the same hits.

use ham_serve::{IvfConfig, RecommendRequest, ScoredItem, ServeScratch, ServingModel, ShardedCatalog};
use ham_tensor::kernels::gemm_tile_rows;
use ham_tensor::ops::Ranked;
use ham_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The probe chunk `count_hits` scores at a time; the served side is asked
/// in the same chunks so a one-row remainder is served one row too.
const CHUNK: usize = 64;

/// Which catalogues a case draws and which tiers serve them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Case {
    /// NaN rows and entries and an infinity now and then: the flat tier.
    Hostile,
    /// NaN- and inf-free: the flat, IVF, int8 and IVF-int8 tiers.
    Finite,
}

/// Catalogue and query entries on a 1/8 grid in [-2, 2], both zeros
/// included, so distinct rows often tie.
fn entry(rng: &mut StdRng, case: Case) -> f32 {
    if case == Case::Hostile && rng.gen_bool(0.03) {
        return if rng.gen_bool(0.5) { f32::INFINITY } else { f32::NEG_INFINITY };
    }
    match rng.gen_range(0..10) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.gen_range(-16i32..17) as f32 / 8.0,
    }
}

/// An `n × d` catalogue with duplicated rows; a hostile one also has rows
/// that are all NaN and rows that hold one NaN entry.
fn catalogue(rng: &mut StdRng, n: usize, d: usize, case: Case) -> Matrix {
    let mut w = Matrix::from_vec(n, d, (0..n * d).map(|_| entry(rng, case)).collect());
    for _ in 0..n / 4 {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let row = w.row(from).to_vec();
        w.row_mut(to).copy_from_slice(&row);
    }
    if case == Case::Hostile {
        for _ in 0..rng.gen_range(0..n / 8 + 2) {
            let item = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                w.row_mut(item).fill(f32::NAN);
            } else {
                w.row_mut(item)[rng.gen_range(0..d)] = f32::NAN;
            }
        }
    }
    w
}

/// The served side: each probe chunk as one `recommend_batch_with` call with
/// seen-item masking off; per probe, the served list.
fn served(serving: &ServingModel, probes: &[(usize, Vec<usize>, usize)], k: usize) -> Vec<Vec<ScoredItem>> {
    let mut scratch = ServeScratch::new();
    let mut lists = Vec::new();
    for chunk in probes.chunks(CHUNK) {
        let requests: Vec<RecommendRequest> = chunk
            .iter()
            .map(|(user, history, _)| RecommendRequest {
                exclude_seen: false,
                ..RecommendRequest::new(*user, history.clone(), k)
            })
            .collect();
        lists.extend(serving.recommend_batch_with(&requests, None, &mut scratch));
    }
    lists
}

/// [`served`], ids only.
fn served_ids(serving: &ServingModel, probes: &[(usize, Vec<usize>, usize)], k: usize) -> Vec<Vec<usize>> {
    served(serving, probes, k).iter().map(|list| list.iter().map(|s| s.item).collect()).collect()
}

/// What an int8 tier promises per probe: `min(k, n)` items in [`Ranked`]
/// order, each with the exact score bits the flat tier gives that item
/// (`exact_bits[probe][item]`).
fn assert_int8_promise(lists: &[Vec<ScoredItem>], exact_bits: &[Vec<u32>], k: usize, label: &str) {
    let key = |s: &ScoredItem| Ranked::new(s.score, s.item).expect("a NaN-free catalogue");
    for (list, bits) in lists.iter().zip(exact_bits) {
        assert_eq!(list.len(), k.min(bits.len()), "{label}");
        assert!(list.windows(2).all(|pair| key(&pair[0]) < key(&pair[1])), "in key order: {list:?}, {label}");
        assert!(list.iter().all(|s| s.score.to_bits() == bits[s.item]), "exact score bits: {list:?}, {label}");
    }
}

/// Probes whose target is among their served ids.
fn hits(probes: &[(usize, Vec<usize>, usize)], served: &[Vec<usize>]) -> usize {
    probes.iter().zip(served).filter(|((_, _, target), ids)| ids.contains(target)).count()
}

/// One random case: a catalogue, per-user queries and probes, then every
/// tier the case asks for at `k ∈ {1, random, n, n + 5}`.
fn check_case(seed: u64, case: Case) {
    let mut rng = StdRng::seed_from_u64(seed);
    // A few flat cases cross a column tile of the 64-row GEMM.
    let n = if case == Case::Hostile && rng.gen_bool(0.15) {
        gemm_tile_rows(CHUNK) + rng.gen_range(1..200)
    } else {
        rng.gen_range(1..300)
    };
    let d = rng.gen_range(1..7);
    let shards = rng.gen_range(1..5);
    let w = catalogue(&mut rng, n, d, case);
    let users = rng.gen_range(1..20);
    let queries: Vec<Vec<f32>> = (0..users).map(|_| (0..d).map(|_| entry(&mut rng, case)).collect()).collect();
    let probes: Vec<(usize, Vec<usize>, usize)> = (0..rng.gen_range(1..CHUNK * 2 + 3))
        .map(|_| {
            let history = (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..n)).collect();
            (rng.gen_range(0..users), history, rng.gen_range(0..n))
        })
        .collect();
    let model = |name: &str, catalog: ShardedCatalog| {
        let queries = queries.clone();
        ServingModel::from_catalog(name, catalog, move |user: usize, _: &[usize]| queries[user].clone())
    };
    let catalog = ShardedCatalog::from_matrix(&w, shards);
    let clusters = rng.gen_range(1..5);
    let ivf = || catalog.clone().with_cluster_index(&IvfConfig { clusters, iters: 2, ..IvfConfig::auto() });
    let flat = model("flat", catalog.clone());
    let tiers = match case {
        Case::Hostile => vec![],
        Case::Finite => vec![
            model("ivf", ivf()),
            model("int8", catalog.clone().with_quantization()),
            model("ivf-int8", ivf().with_quantization()),
        ],
    };
    // Per probe, the flat tier's exact score bits of every item (the
    // Finite catalogues have no NaN, so a list past `n` holds them all).
    let exact_bits: Vec<Vec<u32>> = match case {
        Case::Hostile => vec![],
        Case::Finite => served(&flat, &probes, n)
            .iter()
            .map(|list| {
                let mut bits = vec![0; n];
                list.iter().for_each(|s| bits[s.item] = s.score.to_bits());
                bits
            })
            .collect(),
    };
    for k in [1, rng.gen_range(1..n + 1), n, n + 5] {
        let exact = served_ids(&flat, &probes, k);
        let label = format!("n = {n}, d = {d}, shards = {shards}, k = {k}, probes = {}", probes.len());
        assert_eq!(flat.count_hits(&probes, k), hits(&probes, &exact), "flat: {label}");
        for serving in &tiers {
            // Every tier counts the exact ranking, and IVF at `nprobe = all`
            // serves it. The int8 tiers serve less than that: their 2k
            // pre-selection ranks int8 scores, and distinct rows with equal
            // exact scores can have different int8 scores, so a tied item
            // can be dropped at the cut for another (and, rarely, an exact
            // winner is missed outright). That is int8 approximation, not
            // tie order — no tie rule at the 2k-th int8 cut reaches it
            // (ROADMAP item 19) — so their lists are checked for what int8
            // does promise.
            if serving.is_quantized() {
                assert_int8_promise(&served(serving, &probes, k), &exact_bits, k, &format!("{serving:?}: {label}"));
            } else {
                assert_eq!(served_ids(serving, &probes, k), exact, "{serving:?} serves the exact ranking: {label}");
            }
            assert_eq!(serving.count_hits(&probes, k), hits(&probes, &exact), "{serving:?}: {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_hits_equals_the_served_hits_on_hostile_flat_catalogues(seed in 0u64..1 << 40) {
        check_case(seed, Case::Hostile);
    }

    #[test]
    fn count_hits_equals_the_served_hits_on_every_nan_free_tier(seed in 0u64..1 << 40) {
        check_case(seed, Case::Finite);
    }
}

/// A target whose own score is NaN is never a hit, even at `k` past the
/// catalogue size; NaN items never rank ahead of a real target.
#[test]
fn a_nan_target_never_hits_and_nan_items_never_rank_ahead() {
    let w = Matrix::from_rows(&[&[f32::NAN, 0.0], &[1.0, 0.0], &[f32::NAN, f32::NAN], &[0.5, 0.0]]);
    let serving = ServingModel::from_catalog("nan", ShardedCatalog::from_matrix(&w, 2), |_, _| vec![1.0, 1.0]);
    let probes = [(0, vec![], 0), (0, vec![], 2), (0, vec![], 3), (0, vec![], 1)];
    assert_eq!(serving.count_hits(&probes, 9), 2, "items 1 and 3 hit, the NaN items never");
    assert_eq!(serving.count_hits(&probes, 1), 1, "only item 1 at k = 1: the NaN rows do not outrank item 3");
    assert_eq!(serving.count_hits(&probes[2..3], 2), 1);
    assert_eq!(serving.count_hits(&probes, 0), 0);
}
