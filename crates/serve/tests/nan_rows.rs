//! A quantized catalogue holding NaN rows. NaN never ranks: an item whose
//! exact score is NaN is dropped from the answer, as on the exact path, so a
//! request over such a catalogue is answered in full — not degraded, no NaN
//! score, in the ranking order, and as long as `k` allows (`min(k, non-NaN
//! candidates)`) — whether it comes alone or in a batch.

use ham_serve::{ModelRegistry, RecServer, RecommendRequest, ScoredItem, ServerConfig, ServingModel};
use ham_tensor::Matrix;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ITEMS: usize = 60;
const DIM: usize = 8;
const SHARDS: usize = 3;

/// Seeded values in [-1, 1) (the SplitMix64 finaliser).
fn noise(seed: u64, i: usize) -> f32 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Whether element `col` of row `item` is NaN: all of every seventh row,
/// and one element of every eleventh.
fn poisoned(item: usize, col: usize) -> bool {
    item.is_multiple_of(7) || (item % 11 == 5 && col == 3)
}

fn nan_row(item: usize) -> bool {
    (0..DIM).any(|col| poisoned(item, col))
}

fn catalogue() -> Matrix {
    let value = |i: usize| if poisoned(i / DIM, i % DIM) { f32::NAN } else { noise(7, i) };
    Matrix::from_vec(ITEMS, DIM, (0..ITEMS * DIM).map(value).collect())
}

fn model() -> ServingModel {
    ServingModel::from_parts("nan-rows", &catalogue(), SHARDS, |user, _| {
        (0..DIM).map(|j| noise(99, user * DIM + j)).collect()
    })
    .with_quantized_catalog()
}

/// Checks one answer to a request with no history (so nothing is masked and,
/// with `2k ≥ ITEMS`, every row is an int8 candidate).
fn assert_answer(items: &[ScoredItem], k: usize, what: &str) {
    assert!(items.iter().all(|s| !s.score.is_nan()), "{what}: a NaN score was served: {items:?}");
    assert!(items.iter().all(|s| !nan_row(s.item)), "{what}: a NaN row was served: {items:?}");
    for pair in items.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(
            a.score > b.score || (a.score == b.score && a.item < b.item),
            "{what}: out of order: {a:?} before {b:?}"
        );
    }
    let real = (0..ITEMS).filter(|&item| !nan_row(item)).count();
    assert_eq!(items.len(), k.min(real), "{what}: the answer must hold min(k, non-NaN candidates) items");
}

#[test]
fn nan_rows_never_empty_an_int8_request() {
    let model = model();
    assert!(model.is_quantized());
    for k in [30, 45, 60] {
        let requests: Vec<RecommendRequest> = (0..4).map(|user| RecommendRequest::new(user, Vec::new(), k)).collect();
        for request in &requests {
            assert_answer(&model.recommend(request), k, &format!("lone request, k {k}"));
        }
        for (user, items) in model.recommend_batch(&requests, None).iter().enumerate() {
            assert_answer(items, k, &format!("batch, user {user}, k {k}"));
        }
    }

    // Through the server: a lone request, then a batch of concurrent ones
    // the dispatcher coalesces. None may come back degraded.
    let config = ServerConfig { coalesce_wait: Duration::from_millis(20), ..ServerConfig::default() };
    let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
    let response = server.submit(RecommendRequest::new(0, Vec::new(), 45)).expect("the lone request is answered");
    assert!(!response.degraded, "the lone request came back degraded");
    assert_answer(&response.items, 45, "served lone request");

    let clients = 6;
    let start = Arc::new(Barrier::new(clients));
    let callers: Vec<_> = (0..clients)
        .map(|user| {
            let (server, start) = (Arc::clone(&server), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                server.submit(RecommendRequest::new(user, Vec::new(), 40)).expect("every request is answered")
            })
        })
        .collect();
    for (user, caller) in callers.into_iter().enumerate() {
        let response = caller.join().expect("client thread");
        assert!(!response.degraded, "user {user}'s batched request came back degraded");
        assert_answer(&response.items, 40, &format!("served batch, user {user}"));
    }
}
