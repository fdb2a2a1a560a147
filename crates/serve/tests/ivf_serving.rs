//! The IVF retrieval tier's exactness and determinism contracts:
//!
//! * **`nprobe = all` is exact** — visiting every cluster must return
//!   **bit-identical** results (ids, order *and* score bits) to the
//!   unclustered serving path, for randomized catalogues, queries, masks,
//!   shard counts and cluster counts, with and without int8 quantization.
//!   The cluster index only *regroups* catalogue rows: the per-row GEMV is
//!   position-independent and the panel GEMM accumulates each output element
//!   in the same ascending-k order, so grouping must never change a bit.
//! * **Approximate serving is deterministic** — batch and solo requests
//!   visit the same clusters (routing is always a per-request centroid
//!   GEMV) and return the same bits at any `nprobe`; rebuilding the index
//!   from the same rows and seed reproduces it exactly.
//! * **Degenerate shapes hold** — more clusters than rows, more shards than
//!   rows, k past the catalogue, fully-masked catalogues.
//! * **The serving stack carries it** — responses report `clusters_probed`,
//!   and the deadline-bounded path serves clustered models bit-identical to
//!   the classic path (or explicitly degraded under injected faults).

use ham_faults::FaultInjector;
use ham_serve::{
    IvfConfig, ModelRegistry, RecServer, RecommendRequest, ScoredItem, ServerConfig, ServingModel, ShardedCatalog,
    PROBE_ALL,
};
use ham_telemetry::Telemetry;
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedQuery};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic pseudo-random catalogue matrix.
fn catalogue(n: usize, d: usize, seed: usize) -> Matrix {
    Matrix::from_vec(n, d, (0..n * d).map(|i| (((i * 131 + seed * 17) % 977) as f32 / 488.5 - 1.0) * 2.5).collect())
}

fn query(d: usize, seed: usize) -> Vec<f32> {
    (0..d).map(|k| (((k * 37 + seed) % 53) as f32 / 26.5 - 1.0) * 1.5).collect()
}

fn bits(items: &[ScoredItem]) -> Vec<(usize, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn probe_all(clusters: usize, iters: usize, seed: u64) -> IvfConfig {
    IvfConfig { clusters, nprobe: PROBE_ALL, iters, seed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: `nprobe = all` serves **bit-identical**
    /// results to the unclustered exact path — ids, order and score bits —
    /// for randomized catalogues, queries, masks, shard counts and cluster
    /// counts, on both the f32 and the int8-preselect serving paths.
    #[test]
    fn nprobe_all_is_bit_identical_to_exact(
        n in 10usize..60,
        d in 2usize..16,
        shards in 1usize..9,
        clusters in 0usize..9, // 0 = auto (⌈√rows⌉ per shard)
        k in 1usize..12,
        seed in 0usize..1000,
        mask in 0usize..2,
    ) {
        let w = catalogue(n, d, seed);
        let q = query(d, seed);
        let seen: Option<Vec<bool>> = (mask == 1).then(|| (0..n).map(|i| (i * 7 + seed) % 3 == 0).collect());
        let seen_bits = seen.as_deref();
        let config = probe_all(clusters, 4, seed as u64);

        let exact = ShardedCatalog::from_matrix(&w, shards);
        let clustered = ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config);
        prop_assert!(clustered.is_clustered());
        let want = exact.top_k(&q, k, seen_bits);
        let got = clustered.top_k(&q, k, seen_bits);
        prop_assert_eq!(bits(&got), bits(&want), "f32: n={} shards={} clusters={} k={}", n, shards, clusters, k);

        // Quantization composes in either construction order; both must
        // reproduce the exact quantized path bit-for-bit.
        let exact_q = ShardedCatalog::from_matrix(&w, shards).with_quantization();
        let want_q = exact_q.quantized_top_k_with_buf(&q, k, seen_bits, &mut Vec::new(), &mut QuantizedQuery::quantize(&[]));
        for quantized in [
            ShardedCatalog::from_matrix(&w, shards).with_quantization().with_cluster_index(&config),
            ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config).with_quantization(),
        ] {
            let got_q = quantized.quantized_top_k_with_buf(&q, k, seen_bits, &mut Vec::new(), &mut QuantizedQuery::quantize(&[]));
            prop_assert_eq!(bits(&got_q), bits(&want_q), "int8: n={} shards={} clusters={} k={}", n, shards, clusters, k);
        }
    }

    /// Approximate serving is still deterministic: at any `nprobe`, routing
    /// is a per-request centroid GEMV whether a request rides in a batch or
    /// alone, so both visit the same clusters. What differs is the scoring
    /// kernel, and the batched IVF path promises what the flat batch path
    /// promises. f32: every served score is the packed-panel GEMM's bits (a
    /// GEMM element does not depend on how the panel rows are grouped, so
    /// the unclustered `Q·Wᵀ` is the per-cluster reference), ranked under
    /// the shared comparator, and agreeing with the solo GEMV ranking within
    /// float rounding (1e-5) — on some kernel tiers the two differ in the
    /// last bit. int8: the exact re-rank rescores with the per-row dot, so
    /// batched and solo are bit-identical.
    #[test]
    fn batch_path_matches_solo_at_any_nprobe(
        n in 12usize..50,
        shards in 1usize..5,
        nprobe in 1usize..6,
        k in 1usize..9,
        seed in 0usize..500,
        quantize in 0usize..2,
    ) {
        let d = 8usize;
        let w = catalogue(n, d, seed);
        let config = IvfConfig { clusters: 0, nprobe, iters: 4, seed: 0xA5 };
        let queries: Vec<Vec<f32>> = (0..6).map(|u| query(d, seed + u * 97)).collect();
        let shared = Arc::new(queries);
        let lookup = Arc::clone(&shared);
        let mut model = ServingModel::from_catalog(
            "ivf-batch",
            ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config),
            move |user, _| lookup[user].clone(),
        );
        if quantize == 1 {
            model = model.with_quantized_catalog();
        }
        let requests: Vec<RecommendRequest> =
            (0..shared.len()).map(|u| RecommendRequest::new(u, vec![(u * 5) % n, (u * 11) % n], k)).collect();
        let batched = model.recommend_batch(&requests, None);
        let query_rows: Vec<&[f32]> = shared.iter().map(Vec::as_slice).collect();
        let gemm = Matrix::from_rows(&query_rows).matmul_transposed(&w);
        for (i, request) in requests.iter().enumerate() {
            let solo = model.recommend(request);
            let case = format!("n={n} shards={shards} nprobe={nprobe} k={k} user={i} quantize={quantize}");
            if quantize == 1 {
                prop_assert_eq!(bits(&batched[i]), bits(&solo), "{}", case);
                continue;
            }
            prop_assert_eq!(batched[i].len(), solo.len(), "{}", case);
            for (got, want) in batched[i].iter().zip(&solo) {
                let reference = if request.history.contains(&got.item) { f32::NEG_INFINITY } else { gemm.get(i, got.item) };
                prop_assert_eq!(got.score.to_bits(), reference.to_bits(), "GEMM bits of item {}: {}", got.item, case);
                prop_assert!(got.score == want.score || (got.score - want.score).abs() <= 1e-5, "{}", case);
            }
            for pair in batched[i].windows(2) {
                let ordered = pair[0].score > pair[1].score || (pair[0].score == pair[1].score && pair[0].item < pair[1].item);
                prop_assert!(ordered, "batched ranking out of order: {}", case);
            }
        }
    }

    /// "A lonely request gets the same bits whether or not it was queued"
    /// holds on a clustered catalogue too: at any `nprobe`, the solo call, a
    /// one-row batch — in turn, on a one-worker pool, on a three-worker pool —
    /// and a server response from the deadline-bounded path (armed by an
    /// injector whose rule names no shard) all score the row with the fused
    /// GEMV and return identical ids, order and score bits, f32 and int8.
    #[test]
    fn a_one_row_batch_is_the_solo_request_at_any_nprobe(
        n in 12usize..60,
        shards in 1usize..5,
        nprobe in 1usize..7,
        k in 1usize..9,
        seed in 0usize..500,
    ) {
        let d = 8usize;
        let q = query(d, seed);
        let history = vec![seed % n, (seed * 7 + 3) % n];
        let seen: Vec<bool> = (0..n).map(|item| history.contains(&item)).collect();
        let config = IvfConfig { clusters: 0, nprobe, iters: 4, seed: 0xC0 };
        let clustered = ShardedCatalog::from_matrix(&catalogue(n, d, seed), shards).with_cluster_index(&config);
        let queries = Matrix::from_rows(&[&q]);
        let seen_lists = [Some(history.as_slice())];
        let pools = [None, Some(ThreadPool::new(1)), Some(ThreadPool::new(3))];
        for quantize in [false, true] {
            let case = format!("n={n} shards={shards} nprobe={nprobe} k={k} seed={seed} quantize={quantize}");
            let catalog = if quantize { clustered.clone().with_quantization() } else { clustered.clone() };
            let solo = if quantize {
                catalog.quantized_top_k_with_buf(&q, k, Some(&seen), &mut Vec::new(), &mut QuantizedQuery::quantize(&[]))
            } else {
                catalog.top_k(&q, k, Some(&seen))
            };
            for pool in &pools {
                let batched = if quantize {
                    catalog.quantized_top_k_batch(&queries, &[k], &seen_lists, pool.as_ref())
                } else {
                    catalog.top_k_batch(&queries, &[k], &seen_lists, pool.as_ref())
                };
                let workers = pool.as_ref().map_or(0, ThreadPool::threads);
                prop_assert_eq!(bits(&batched[0]), bits(&solo), "one-row batch, {} pool workers: {}", workers, case);
            }
            let lookup = q.clone();
            let model = ServingModel::from_catalog("one-row", catalog, move |_, _| lookup.clone());
            let faults = FaultInjector::parse("seed=5;shard_slow=99:1ms").expect("valid fault spec");
            let server_config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
            let registry = Arc::new(ModelRegistry::new(model));
            let server = RecServer::start_instrumented(registry, server_config, Telemetry::disabled(), faults);
            let response = server.submit(RecommendRequest::new(0, history.clone(), k)).expect("admitted");
            server.shutdown();
            prop_assert!(!response.degraded, "{}", case);
            prop_assert_eq!(bits(&response.items), bits(&solo), "bounded path: {}", case);
        }
    }

    /// Degenerate shapes: more clusters than rows, more shards than rows, k
    /// past the catalogue and fully-masked catalogues — `nprobe = all` stays
    /// bit-identical to exact, and a narrow `nprobe = 1` still returns a
    /// well-formed ranking (right length, non-increasing, no duplicates).
    #[test]
    fn degenerate_shapes_hold(n in 1usize..6, shards in 1usize..9, seed in 0usize..100) {
        let d = 4usize;
        let w = catalogue(n, d, seed);
        let q = query(d, seed);
        let all_seen = vec![true; n];
        // clusters: 50 asks for far more clusters than rows (clamped to n)
        let config = probe_all(50, 4, 7);
        let clustered = ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config);
        let exact = ShardedCatalog::from_matrix(&w, shards);
        for (k, seen) in [(n + 3, None), (1, Some(all_seen.as_slice())), (n, None)] {
            let want = exact.top_k(&q, k, seen);
            let got = clustered.top_k(&q, k, seen);
            prop_assert_eq!(bits(&got), bits(&want), "n={} shards={} k={}", n, shards, k);
        }
        let narrow = clustered.clone().with_nprobe(1);
        for (k, seen) in [(n + 3, None), (1, Some(all_seen.as_slice())), (n, None)] {
            let got = narrow.top_k(&q, k, seen);
            // A single probed cluster may hold fewer rows than k, so the
            // approximate ranking can be shorter than the exact one — but
            // never longer, and always well-formed.
            prop_assert!(got.len() <= exact.top_k(&q, k, seen).len(), "nprobe=1 never over-fills the response");
            for pair in got.windows(2) {
                prop_assert!(
                    pair[1].score.partial_cmp(&pair[0].score) != Some(std::cmp::Ordering::Greater),
                    "nprobe=1 ranking stays sorted"
                );
            }
            let mut ids: Vec<usize> = got.iter().map(|s| s.item).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), got.len(), "nprobe=1 ranking has no duplicate items");
        }
    }
}

/// Rebuilding the index from the same rows and config reproduces the same
/// served bits — k-means is seeded and single-threaded per shard, so a
/// publish-time rebuild is replayable. Also pinned across spawned threads:
/// the build must not depend on the calling thread's identity or count.
#[test]
fn index_rebuild_is_deterministic_across_threads() {
    let w = catalogue(40, 8, 3);
    let config = IvfConfig { clusters: 5, nprobe: 2, iters: 6, seed: 0xBEEF };
    let build = move || ShardedCatalog::from_matrix(&catalogue(40, 8, 3), 3).with_cluster_index(&config);
    let reference = build();
    let q = query(8, 9);
    let want = bits(&reference.top_k(&q, 7, None));
    let again = build();
    assert_eq!(bits(&again.top_k(&q, 7, None)), want, "same rows + config must rebuild the same index");
    let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(build)).collect();
    for handle in handles {
        let built = handle.join().expect("builder thread panicked");
        assert_eq!(bits(&built.top_k(&q, 7, None)), want, "index build must be thread-count invariant");
    }
    assert_eq!(w.rows(), 40);
}

/// `clusters_probed` flows through the server: clustered models report the
/// per-model constant `min(nprobe, clusters)` summed across shards, exact
/// models report 0.
#[test]
fn clusters_probed_metadata_flows_through_responses() {
    let w = catalogue(48, 6, 11);
    let queries: Vec<Vec<f32>> = (0..8).map(|u| query(6, u * 31)).collect();
    let shared = Arc::new(queries);
    let make = |catalog: ShardedCatalog| {
        let lookup = Arc::clone(&shared);
        ServingModel::from_catalog("probe-meta", catalog, move |user, _| lookup[user].clone())
    };
    let exact = make(ShardedCatalog::from_matrix(&w, 3));
    let config = IvfConfig { clusters: 4, nprobe: 2, iters: 4, seed: 1 };
    let clustered = make(ShardedCatalog::from_matrix(&w, 3).with_cluster_index(&config));
    assert_eq!(exact.clusters_probed(), 0, "exact serving probes no clusters");
    let expected = clustered.clusters_probed();
    assert!(expected > 0, "clustered serving reports its probe width");

    for (model, want) in [(exact, 0usize), (clustered, expected)] {
        let server = RecServer::start(Arc::new(ModelRegistry::new(model)), ServerConfig::default());
        let response = server.submit(RecommendRequest::new(2, vec![1, 5], 6)).expect("admitted");
        assert_eq!(response.clusters_probed, want);
        server.shutdown();
    }
}

/// The deadline-bounded path serves clustered models bit-identical to the
/// classic path when every shard answers — the in-task route+rank must
/// reproduce the dispatcher-side bits — and an injected shard panic is
/// flagged degraded, never silently partial.
#[test]
fn bounded_path_serves_clustered_models_exactly_or_flagged() {
    let w = catalogue(48, 6, 23);
    let config = IvfConfig { clusters: 4, nprobe: 2, iters: 4, seed: 2 };
    let make = |quantize: bool| {
        let catalog = ShardedCatalog::from_matrix(&w, 3).with_cluster_index(&config);
        let model = ServingModel::from_catalog("ivf-bounded", catalog, |user, history| {
            vec![1.0, user as f32 * 0.1, history.len() as f32 * 0.05, (user % 7) as f32 * -0.2, 0.3, -0.4]
        });
        if quantize {
            model.with_quantized_catalog()
        } else {
            model
        }
    };
    // Vacuous fault spec arms the bounded path without touching any shard.
    for quantize in [false, true] {
        let faults = FaultInjector::parse("seed=5;shard_slow=99:1ms").expect("valid fault spec");
        let registry = Arc::new(ModelRegistry::new(make(quantize)));
        let server_config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
        let server = RecServer::start_instrumented(Arc::clone(&registry), server_config, Telemetry::disabled(), faults);
        for user in 0..12 {
            let request = RecommendRequest::new(user, vec![user % 48, (user + 7) % 48], 6);
            let exact = registry.current().model.recommend(&request);
            let response = server.submit(request).expect("admitted");
            assert!(!response.degraded);
            assert_eq!(bits(&response.items), bits(&exact), "bounded clustered path, user {user}");
            assert!(response.clusters_probed > 0);
        }
        server.shutdown();
    }
    // A panicking shard under the clustered path still degrades loudly.
    let faults = FaultInjector::parse("seed=3;shard_panic=1").expect("valid fault spec");
    let registry = Arc::new(ModelRegistry::new(make(false)));
    let server_config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let server = RecServer::start_instrumented(Arc::clone(&registry), server_config, Telemetry::disabled(), faults);
    let response = server.submit(RecommendRequest::new(1, vec![2, 4], 5)).expect("admitted");
    assert!(response.degraded, "a panicking shard must flag the clustered response");
    assert_eq!(response.shards_answered, 2);
    assert!(!response.items.is_empty(), "surviving shards still answer");
}
