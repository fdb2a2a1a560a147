//! End-to-end parity of the serving subsystem with the single-node paths:
//! for **every HAM variant and every baseline**, the sharded GEMV serving
//! path must return bit-identical item ids (stable tie-break) to the
//! single-node `recommend_top_k` ranking, for shard counts 1..8; and the
//! coalesced GEMM batch path must be bit-identical to the equivalent
//! unsharded GEMM ranking — including at every tile boundary of the fused
//! score→select driver. A lone request rides that same driver as a batch of
//! one row, in turn on the caller or fanned out on a pool: the proptests at
//! the bottom pin both against the single-node ranking, and the `RecServer`
//! test serves lone requests above the fan-out crossover.

use ham_baselines::{
    BaselineTrainConfig, BprMf, BprMfConfig, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, Hgn, HgnConfig, PopRec,
    SasRec, SasRecConfig, SequentialRecommender,
};
use ham_core::{HamConfig, HamModel, HamVariant, Scorer};
use ham_faults::FaultInjector;
use ham_serve::model::SOLO_FAN_OUT_MIN_BYTES;
use ham_serve::{
    merge_top_k, ModelRegistry, RecServer, RecommendRequest, ScoredItem, ServerConfig, ServingModel, ShardedCatalog,
};
use ham_telemetry::Telemetry;
use ham_tensor::kernels::{self, gemm_tile_rows};
use ham_tensor::ops::top_k_indices_masked;
use ham_tensor::pool::{global_pool, ThreadPool};
use ham_tensor::{Matrix, QuantizedQuery};
use proptest::prelude::*;
use std::sync::Arc;

const NUM_USERS: usize = 6;
const NUM_ITEMS: usize = 35;
const K: usize = 10;

fn histories() -> Vec<Vec<usize>> {
    (0..NUM_USERS).map(|u| (0..8 + u).map(|t| (u * 11 + t * 5) % NUM_ITEMS).collect()).collect()
}

/// The single-node reference ranking: score everything, mask the history
/// through the fused bitmap path, rank.
fn single_node_top_k(scores: &[f32], history: &[usize], k: usize) -> Vec<usize> {
    let mut seen = vec![false; scores.len()];
    for &item in history {
        if item < seen.len() {
            seen[item] = true;
        }
    }
    top_k_indices_masked(scores, k, &seen)
}

/// Asserts GEMV-path serving parity for one model across shard counts 1..8,
/// and GEMM batch parity against the unsharded GEMM reference.
fn assert_parity<S, F>(label: &str, model: Arc<S>, head_fn: F, score_all: impl Fn(usize, &[usize]) -> Vec<f32>)
where
    S: Send + Sync + 'static,
    F: for<'m> Fn(&'m S) -> Option<ham_core::LinearHead<'m>> + Send + Sync + Clone + 'static,
{
    let histories = histories();
    let requests: Vec<RecommendRequest> =
        (0..NUM_USERS).map(|u| RecommendRequest::new(u, histories[u].clone(), K)).collect();

    for shards in 1..=8 {
        let serving = ServingModel::from_head_fn(label, Arc::clone(&model), shards, head_fn.clone())
            .unwrap_or_else(|| panic!("{label} must expose a linear head"));

        // GEMV path: bit-identical to the single-node ranking.
        for request in &requests {
            let served: Vec<usize> = serving.recommend(request).iter().map(|s| s.item).collect();
            let reference = single_node_top_k(&score_all(request.user, &request.history), &request.history, K);
            assert_eq!(served, reference, "{label}: GEMV parity, shards = {shards}, user = {}", request.user);
        }

        // GEMM batch path: bit-identical to the unsharded GEMM ranking.
        let head = head_fn(&model).unwrap();
        let history_refs: Vec<&[usize]> = histories.iter().map(|h| h.as_slice()).collect();
        let users: Vec<usize> = (0..NUM_USERS).collect();
        let full = head.batch_queries(&users, &history_refs).matmul_transposed(head.candidates());
        let batched = serving.recommend_batch(&requests, None);
        for (i, request) in requests.iter().enumerate() {
            let got: Vec<usize> = batched[i].iter().map(|s| s.item).collect();
            let want = single_node_top_k(full.row(i), &request.history, K);
            assert_eq!(got, want, "{label}: GEMM parity, shards = {shards}, user = {}", request.user);
        }
    }
}

/// Ids with score bits, for bit-exact comparisons.
fn bits(list: &[ScoredItem]) -> Vec<(usize, u32)> {
    list.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn quick_train_config() -> BaselineTrainConfig {
    BaselineTrainConfig { epochs: 1, batch_size: 32, ..Default::default() }
}

#[test]
fn every_ham_variant_serves_identically_to_recommend_top_k() {
    for variant in [
        HamVariant::HamX,
        HamVariant::HamM,
        HamVariant::HamSX,
        HamVariant::HamSM,
        HamVariant::HamSMNoLowOrder,
        HamVariant::HamSMNoUser,
    ] {
        let base = HamConfig::for_variant(variant);
        let p = if base.uses_synergies() { 2 } else { 1 };
        let config = base.with_dimensions(12, 4, base.n_l.min(2), 2, p);
        let model = Arc::new(HamModel::new(NUM_USERS, NUM_ITEMS, config, 17));

        // recommend_top_k itself is the reference here, double-checking that
        // the generic single-node helper matches the model's own API.
        let histories = histories();
        let serving = ServingModel::from_scorer(variant.name(), Arc::clone(&model), 5).expect("HAM has a linear head");
        for (u, history) in histories.iter().enumerate() {
            let served: Vec<usize> =
                serving.recommend(&RecommendRequest::new(u, history.clone(), K)).iter().map(|s| s.item).collect();
            assert_eq!(served, model.recommend_top_k(u, history, K, true), "{}: user {u}", variant.name());
        }

        let m = Arc::clone(&model);
        assert_parity(variant.name(), Arc::clone(&model), |s| s.linear_head(), move |u, h| m.score_all(u, h));
    }
}

#[test]
fn poprec_and_bprmf_serve_identically() {
    let histories = histories();
    let pop = Arc::new(PopRec::fit(&histories, NUM_ITEMS));
    let p = Arc::clone(&pop);
    assert_parity("PopRec", pop, SequentialRecommender::linear_head, move |u, h| p.score_all(u, h));

    let mf = Arc::new(BprMf::fit(
        &histories,
        NUM_ITEMS,
        &BprMfConfig { d: 8, ..Default::default() },
        &quick_train_config(),
        3,
    ));
    let m = Arc::clone(&mf);
    assert_parity("BPR-MF", mf, SequentialRecommender::linear_head, move |u, h| m.score_all(u, h));
}

#[test]
fn deep_baselines_serve_identically() {
    let histories = histories();
    let caser = Arc::new(Caser::fit(
        &histories,
        NUM_ITEMS,
        &CaserConfig { d: 8, seq_len: 4, targets: 2, ..Default::default() },
        &quick_train_config(),
        5,
    ));
    let c = Arc::clone(&caser);
    assert_parity("Caser", caser, SequentialRecommender::linear_head, move |u, h| c.score_all(u, h));

    let sasrec = Arc::new(SasRec::fit(
        &histories,
        NUM_ITEMS,
        &SasRecConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        7,
    ));
    let s = Arc::clone(&sasrec);
    assert_parity("SASRec", sasrec, SequentialRecommender::linear_head, move |u, h| s.score_all(u, h));

    let gru = Arc::new(Gru4Rec::fit(
        &histories,
        NUM_ITEMS,
        &Gru4RecConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        9,
    ));
    let g = Arc::clone(&gru);
    assert_parity("GRU4Rec", gru, SequentialRecommender::linear_head, move |u, h| g.score_all(u, h));

    let hgn = Arc::new(Hgn::fit(
        &histories,
        NUM_ITEMS,
        &HgnConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        11,
    ));
    let h = Arc::clone(&hgn);
    assert_parity("HGN", hgn, SequentialRecommender::linear_head, move |u, h2| h.score_all(u, h2));
}

/// Rows per packed GEMM panel in `ham_tensor::kernels` (tiles are whole
/// panels — asserted below so this cannot drift silently).
const GEMM_PANEL: usize = 128;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The fused tile driver against the per-row reference — the unsharded
    /// GEMM row ranked by the fused mask+select — on ids, order **and score
    /// bits**, with the shard length placed on either side of the panel and
    /// tile widths, `k` above the shard length, histories straddling tile
    /// and shard edges, and one row with fewer than `k` unseen items. The
    /// quantized flavour (same driver, int8 tiles, `2k` pre-selection,
    /// exact re-rank) is checked against its own solo path.
    #[test]
    fn fused_batch_matches_per_row_reference_at_every_tile_boundary(
        shards in 1usize..9,
        batch_pick in 0usize..4,
        len_pick in 0usize..7,
        extra in 0usize..8,
        k_pick in 0usize..3,
        salt in 0usize..1000,
    ) {
        let b = [2usize, 3, 64, 65][batch_pick];
        let tile = gemm_tile_rows(b);
        prop_assert_eq!(tile % GEMM_PANEL, 0);
        // Small batches get tiles of tens of thousands of rows: straddle
        // their tile edge on one or two shards only, to keep the case cheap.
        let shards = if tile > 4096 && (3..6).contains(&len_pick) { shards.min(2) } else { shards };
        let shard_len = [GEMM_PANEL - 1, GEMM_PANEL, GEMM_PANEL + 1, tile - 1, tile, tile + 1, 7][len_pick];
        // Near-even split: the first `extra` shards hold one more row, so
        // `w - 1` and `w` (or `w` and `w + 1`) shards sit side by side.
        let n = shards * shard_len + extra % shards;
        let k = [1usize, 10, shard_len + 3][k_pick];
        let d = 4;
        // Few distinct embedding values: scores tie heavily, so the
        // lower-id tie-break is decided across tile and shard edges.
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 7 + i / d + salt) % 4) as f32 - 1.0).collect());
        let queries = Matrix::from_vec(b, d, (0..b * d).map(|i| ((i * 5 + salt) % 7) as f32 * 0.5 - 1.25).collect());

        // Histories: both sides of the first tile edge of the row's shard,
        // both ends of that shard, an out-of-catalogue id and a duplicate.
        // Row 1 has seen everything but three items; row 0 masks nothing.
        let catalog = ShardedCatalog::from_matrix(&w, shards);
        let histories: Vec<Vec<usize>> = (0..b)
            .map(|i| {
                if i == 1 {
                    return (0..n).filter(|item| ![0, n / 2, n - 1].contains(item)).collect();
                }
                let shard = &catalog.shards()[i % shards];
                let (lo, hi) = (shard.offset(), shard.offset() + shard.len());
                let edge = lo + tile;
                let picks = [edge - 1, edge, edge + 1, lo, hi - 1, hi, (i * 31 + salt) % n, n + 5, lo];
                picks.into_iter().filter(|&item| item < n || item == n + 5).collect()
            })
            .collect();
        let seen_items: Vec<Option<&[usize]>> =
            histories.iter().enumerate().map(|(i, h)| (i != 0).then_some(h.as_slice())).collect();
        let ks = vec![k; b];

        let full = queries.matmul_transposed(&w);
        let pool = (salt % 2 == 0).then(global_pool);
        let got = catalog.top_k_batch(&queries, &ks, &seen_items, pool);
        let quantized = catalog.clone().with_quantization();
        let got_quantized = quantized.quantized_top_k_batch(&queries, &ks, &seen_items, pool);
        let (mut scores_buf, mut qquery) = (Vec::new(), QuantizedQuery::quantize(&[]));
        for i in 0..b {
            let mut seen = vec![false; n];
            for &item in seen_items[i].unwrap_or_default() {
                if item < n {
                    seen[item] = true;
                }
            }
            let want: Vec<(usize, u32)> = top_k_indices_masked(full.row(i), k, &seen)
                .into_iter()
                .map(|item| (item, if seen[item] { f32::NEG_INFINITY } else { full.get(i, item) }.to_bits()))
                .collect();
            let served: Vec<(usize, u32)> = got[i].iter().map(|s| (s.item, s.score.to_bits())).collect();
            prop_assert_eq!(&served, &want, "b = {}, shards = {}, shard_len = {}, k = {}, row {}", b, shards, shard_len, k, i);
            if i == 1 && k > 3 {
                // Three unseen items, then the masked tail in ascending id.
                let tail: Vec<usize> = served[3..].iter().map(|&(item, _)| item).collect();
                prop_assert!(served[3..].iter().all(|&(_, bits)| bits == f32::NEG_INFINITY.to_bits()));
                prop_assert!(tail.windows(2).all(|pair| pair[0] < pair[1]), "masked tail not ascending: {:?}", tail);
            }
            let bits = seen_items[i].is_some().then_some(seen.as_slice());
            let solo = quantized.quantized_top_k_with_buf(queries.row(i), k, bits, &mut scores_buf, &mut qquery);
            prop_assert_eq!(&got_quantized[i], &solo, "int8: b = {}, shards = {}, shard_len = {}, row {}", b, shards, shard_len, i);
        }
    }

    /// The solo driver — a lone request as a batch of one row — with its
    /// shard tasks in turn on the caller, on a one-worker pool (the caller
    /// helps) and on a three-worker pool: ids, order **and score bits** equal
    /// the single-node ranking (one GEMV over the unsharded matrix, fused
    /// mask+select), for histories on both sides of every shard edge with an
    /// out-of-catalogue id and a duplicate, and `k` up to past the catalogue.
    /// The int8 flavour is held to the quantized solo algorithm rebuilt from
    /// its public parts (int8 GEMV, `shard_top_k` to `2k`, merge, exact
    /// re-rank) — and through a `ServingModel`, whatever pool it is handed.
    #[test]
    fn solo_driver_matches_single_node_on_any_pool(
        shards in 1usize..9,
        n in 9usize..90,
        pool_pick in 0usize..3,
        k_pick in 0usize..3,
        salt in 0usize..1000,
    ) {
        let d = 4;
        let k = [1usize, 10, n + 3][k_pick];
        let owned_pool = [None, Some(1), Some(3)][pool_pick].map(ThreadPool::new);
        let pool = owned_pool.as_ref();
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 7 + i / d + salt) % 4) as f32 - 1.0).collect());
        let query: Vec<f32> = (0..d).map(|i| ((i * 5 + salt) % 7) as f32 * 0.5 - 1.25).collect();
        let catalog = ShardedCatalog::from_matrix(&w, shards);
        let mut history: Vec<usize> =
            catalog.shards().iter().flat_map(|s| [s.offset().wrapping_sub(1), s.offset()]).filter(|&item| item < n).collect();
        history.extend([n - 1, n + 5, salt % n, salt % n]);
        let exclude_seen = salt % 5 != 0;
        let mut seen = vec![false; n];
        for &item in history.iter().filter(|&&item| exclude_seen && item < n) {
            seen[item] = true;
        }
        let effective = |item: usize, score: f32| (item, if seen[item] { f32::NEG_INFINITY } else { score }.to_bits());
        let case = format!("shards = {shards}, n = {n}, pool = {:?}, k = {k}, salt = {salt}", pool.map(ThreadPool::threads));

        // f32: one GEMV over the unsharded matrix, ranked once.
        let scores = w.matvec_transposed(&query);
        let want: Vec<(usize, u32)> =
            top_k_indices_masked(&scores, k, &seen).into_iter().map(|item| effective(item, scores[item])).collect();
        let one_row = Matrix::from_vec(1, d, query.clone());
        let seen_items = [exclude_seen.then_some(history.as_slice())];
        let got = catalog.top_k_batch(&one_row, &[k], &seen_items, pool);
        prop_assert_eq!(bits(&got[0]), want.clone(), "f32 driver: {}", case);

        // int8: today's quantized solo algorithm, from its public parts.
        let quantized = catalog.clone().with_quantization();
        let qquery = QuantizedQuery::quantize(&query);
        let preselected: Vec<Vec<ScoredItem>> = (0..shards)
            .map(|s| {
                let panel = quantized.shards()[s].quantized().expect("quantized above");
                let mut shard_scores = vec![0.0; panel.rows()];
                kernels::quantized_matvec_into(panel, &qquery, &mut shard_scores);
                quantized.shard_top_k(s, &shard_scores, 2 * k, Some(&seen))
            })
            .collect();
        let mut want_int8: Vec<(usize, u32)> = merge_top_k(&preselected, 2 * k)
            .iter()
            .map(|candidate| effective(candidate.item, kernels::dot(w.row(candidate.item), &query)))
            .collect();
        want_int8.sort_by(|a, b| f32::from_bits(b.1).total_cmp(&f32::from_bits(a.1)).then(a.0.cmp(&b.0)));
        want_int8.truncate(k);
        let got_int8 = quantized.quantized_top_k_batch(&one_row, &[k], &seen_items, pool);
        prop_assert_eq!(bits(&got_int8[0]), want_int8.clone(), "int8 driver: {}", case);

        // Through a ServingModel: `recommend`, and a queued batch of one.
        let request = RecommendRequest { user: 0, history, k, exclude_seen, deadline: None };
        for (model_catalog, want) in [(catalog, want), (quantized, want_int8)] {
            let q = query.clone();
            let model = ServingModel::from_catalog("solo", model_catalog, move |_, _| q.clone());
            prop_assert_eq!(bits(&model.recommend(&request)), want.clone(), "recommend: {}", case);
            let queued = model.recommend_batch(std::slice::from_ref(&request), pool);
            prop_assert_eq!(bits(&queued[0]), want, "queued alone: {}", case);
        }
    }
}

/// The fused driver's NaN contract at the shard level: an item whose score
/// is NaN (a poisoned embedding row) is never served and never displaces a
/// real score, wherever it sits relative to a tile edge; a shard left with
/// fewer than `k` non-NaN scores contributes a shorter shortlist — to a
/// batch and to a lone request alike, which rides the same driver.
#[test]
fn fused_batch_never_ranks_nan_items_and_returns_short_when_starved() {
    let (b, d) = (64, 4);
    let tile = gemm_tile_rows(b);
    let n = 2 * (tile + 50);
    let poisoned = [0, tile - 1, tile, tile + 1, tile + 50, n - 1];
    let mut w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 7 + i / d) % 5) as f32 - 2.0).collect());
    for &item in &poisoned {
        w.row_mut(item).fill(f32::NAN);
    }
    let queries = Matrix::from_vec(b, d, (0..b * d).map(|i| (i % 7) as f32 * 0.5 - 1.25).collect());
    let catalog = ShardedCatalog::from_matrix(&w, 2);
    let full = queries.matmul_transposed(&w);
    let got = catalog.top_k_batch(&queries, &vec![10; b], &vec![None; b], Some(global_pool()));
    for (i, ranked) in got.iter().enumerate() {
        // Reference: NaN items masked out of the unsharded row.
        let nan: Vec<bool> = (0..n).map(|item| poisoned.contains(&item)).collect();
        let want: Vec<(usize, u32)> = top_k_indices_masked(full.row(i), 10, &nan)
            .into_iter()
            .map(|item| (item, full.get(i, item).to_bits()))
            .collect();
        let served: Vec<(usize, u32)> = ranked.iter().map(|s| (s.item, s.score.to_bits())).collect();
        assert_eq!(served, want, "row {i}");
    }

    // Starved: shard 0 keeps two real scores, the catalogue eight.
    let mut small = Matrix::from_vec(12, d, (0..12 * d).map(|i| (i % 5) as f32 - 2.0).collect());
    for item in [0, 1, 3, 5] {
        small.row_mut(item).fill(f32::NAN);
    }
    let catalog = ShardedCatalog::from_matrix(&small, 2);
    for batch in [1, 3] {
        let queries = Matrix::from_vec(batch, d, (0..batch * d).map(|i| (i % 3) as f32 + 0.5).collect());
        let got = catalog.top_k_batch(&queries, &vec![10; batch], &vec![None; batch], None);
        for (i, ranked) in got.iter().enumerate() {
            let items: Vec<usize> = ranked.iter().map(|s| s.item).collect();
            assert_eq!(ranked.len(), 8, "batch {batch} row {i}: {items:?}");
            assert!(ranked.iter().all(|s| !s.score.is_nan() && ![0, 1, 3, 5].contains(&s.item)));
            assert!(ranked
                .windows(2)
                .all(|p| p[0].score > p[1].score || (p[0].score == p[1].score && p[0].item < p[1].item)));
            // A lone request starves the same way: the batch of one and the
            // solo entry point return the same eight items, bit for bit.
            let solo = catalog.top_k(queries.row(i), 10, None);
            assert_eq!(solo.len(), 8, "solo, batch {batch} row {i}");
            assert!(solo.iter().all(|s| !s.score.is_nan() && ![0, 1, 3, 5].contains(&s.item)));
            if batch == 1 {
                assert_eq!(&solo, ranked);
            }
        }
    }
}

/// Lone requests through a `RecServer` on a catalogue just above the fan-out
/// crossover: served whole (`shards_answered == num_shards`) with the bits of
/// `ServingModel::recommend`, request after request on the dispatcher's one
/// scratch; a panic in the query builder and a panic inside a shard task (a
/// query of the wrong length, rejected by the scoring kernel — on the pool
/// when the host has two cores) are each answered `degraded` through the solo
/// retry, and the request after each is served whole again. Fanned-out
/// requests report their shard tasks under the `solo_gemv` span and in the
/// per-shard histograms; on a one-core host the one-worker pool keeps them
/// inline and they report the one stage only.
#[test]
fn lone_requests_above_the_crossover_fan_out_and_survive_panics() {
    let (d, shards) = (32, 4);
    let n = SOLO_FAN_OUT_MIN_BYTES / (4 * d) + 1000;
    let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 31 + i / d) % 61) as f32 / 30.0 - 1.0).collect());
    let model = ServingModel::from_catalog("big", ShardedCatalog::from_matrix(&w, shards), move |user, _| {
        assert!(user != 90, "unknown user {user}");
        let len = if user == 91 { d + 1 } else { d };
        (0..len).map(|c| ((c * 13 + user * 7) % 17) as f32 / 8.0 - 1.0).collect()
    });
    let fans_out = global_pool().threads() >= 2;
    let registry = Arc::new(ModelRegistry::new(model));
    let telemetry = Telemetry::with_flight_capacity(16);
    let server = RecServer::start_instrumented(
        Arc::clone(&registry),
        ServerConfig::default(),
        telemetry.clone(),
        FaultInjector::disabled(),
    );
    let request = |user: usize| {
        RecommendRequest::new(user, (0..30).map(|t| (user * 7919 + t * (n / 29)) % n).chain([n + 3]).collect(), 10)
    };
    let mut whole = 0u64;
    for user in [1, 2, 90, 3, 91, 4] {
        let response = server.submit(request(user)).expect("admitted");
        if user >= 90 {
            assert!(response.degraded && response.items.is_empty(), "user {user}: a panic answers degraded and empty");
            assert_eq!(response.shards_answered, 0);
            continue;
        }
        whole += 1;
        assert!(!response.degraded, "user {user}");
        assert_eq!(response.shards_answered, shards, "user {user}");
        let want = registry.current().model.recommend(&request(user));
        assert_eq!(bits(&response.items), bits(&want), "user {user}");
        assert_eq!(response.items.len(), 10);
    }
    assert_eq!(server.stats().panic_isolated, 2);
    assert_eq!(server.stats().degraded, 2);

    let snap = telemetry.snapshot().expect("telemetry enabled");
    assert_eq!(snap.histogram("serve_stage_solo_gemv_micros").map(|h| h.count), Some(whole));
    for shard in 0..shards {
        let samples = snap.histogram(&format!("serve_shard_{shard}_score_micros")).map(|h| h.count);
        assert_eq!(samples, fans_out.then_some(whole), "shard {shard}");
    }
    let flight = telemetry.flight().expect("telemetry enabled");
    let solo_spans: Vec<_> = flight.last(16).into_iter().filter_map(|tree| tree.find("solo_gemv").cloned()).collect();
    assert_eq!(solo_spans.len() as u64, whole);
    for span in solo_spans {
        let children: Vec<&str> = span.children.iter().map(|child| child.name.as_str()).collect();
        let expected: Vec<String> = (0..if fans_out { shards } else { 0 }).map(|s| format!("shard_{s}")).collect();
        assert_eq!(children, expected, "solo_gemv children");
    }
}
