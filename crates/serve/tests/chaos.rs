//! Chaos suite of the serving layer: deterministic fault injection against
//! the deadline-bounded degradation path.
//!
//! The contract under test: **under any injected single-shard fault, a
//! response is either bit-identical to the exact (fault-free) path or
//! explicitly flagged degraded** — never a silently wrong or silently
//! partial answer.

use ham_faults::FaultInjector;
use ham_serve::{ModelRegistry, RecServer, RecommendRequest, ServerConfig, ServingModel};
use ham_telemetry::Telemetry;
use ham_tensor::Matrix;
use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const NUM_ITEMS: usize = 48;
const NUM_SHARDS: usize = 3;

/// A deterministic serving model with non-trivial, user-dependent scores.
fn model() -> ServingModel {
    let w = Matrix::from_vec(
        NUM_ITEMS,
        4,
        (0..NUM_ITEMS * 4).map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.5).collect(),
    );
    ServingModel::from_parts("chaos", &w, NUM_SHARDS, |user, history| {
        vec![1.0, user as f32 * 0.1, history.len() as f32 * 0.05, (user % 7) as f32 * -0.2]
    })
}

fn chaos_server(spec: &str, config: ServerConfig) -> (Arc<ModelRegistry>, RecServer) {
    let faults = FaultInjector::parse(spec).expect("valid fault spec");
    let registry = Arc::new(ModelRegistry::new(model()));
    let server = RecServer::start_instrumented(Arc::clone(&registry), config, Telemetry::disabled(), faults);
    (registry, server)
}

fn items_and_bits(items: &[ham_serve::ScoredItem]) -> Vec<(usize, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single-shard fault — a panic, a delay longer than the deadline,
    /// or a harmless microscopic delay — yields a response that is either
    /// bit-identical to the exact path or flagged degraded.
    #[test]
    fn single_shard_fault_yields_exact_or_flagged_degraded(
        shard in 0usize..NUM_SHARDS,
        kind in 0usize..3,
        user in 0usize..20,
        k in 1usize..9,
    ) {
        let spec = match kind {
            0 => format!("seed=11;shard_panic={shard}"),
            1 => format!("seed=11;shard_slow={shard}:300ms"),
            _ => format!("seed=11;shard_slow={shard}:0ms"), // benign: must stay exact
        };
        let config = ServerConfig {
            default_deadline: Some(Duration::from_millis(30)),
            coalesce_wait: Duration::ZERO,
            ..ServerConfig::default()
        };
        let (registry, server) = chaos_server(&spec, config);
        let request = RecommendRequest::new(user, vec![user % NUM_ITEMS, (user + 5) % NUM_ITEMS], k);
        let exact = registry.current().model.recommend(&request);
        let response = server.submit(request).expect("admitted under an idle queue");
        if response.degraded {
            prop_assert!(response.shards_answered < NUM_SHARDS, "degraded implies a missing shard");
        } else {
            prop_assert_eq!(response.shards_answered, NUM_SHARDS);
            prop_assert_eq!(
                items_and_bits(&response.items),
                items_and_bits(&exact),
                "un-degraded responses must be bit-identical to the exact path"
            );
        }
        // A zero-length injected delay must never degrade.
        if kind == 2 {
            prop_assert!(!response.degraded, "a 0ms injected delay fits any budget");
        }
    }
}

/// An always-panicking shard is dropped deterministically: every submission
/// merges the same surviving shards and returns the same bits, flagged.
#[test]
fn injected_panic_shard_degrades_deterministically() {
    let config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let (_registry, server) = chaos_server("seed=3;shard_panic=1", config);
    let mut previous: Option<Vec<(usize, u32)>> = None;
    for _ in 0..4 {
        let response = server.submit(RecommendRequest::new(7, vec![1, 2, 3], 6)).expect("admitted");
        assert!(response.degraded, "a panicking shard must flag the response");
        assert_eq!(response.shards_answered, NUM_SHARDS - 1);
        assert!(!response.items.is_empty(), "surviving shards still answer");
        let bits = items_and_bits(&response.items);
        if let Some(previous) = &previous {
            assert_eq!(previous, &bits, "surviving-shard merge is deterministic across submissions");
        }
        previous = Some(bits);
    }
    let stats = server.stats();
    assert_eq!(stats.degraded, 4);
    assert_eq!(stats.shard_panics, 4);
    assert_eq!(stats.shard_deadline_misses, 0);
}

/// With the injector armed but no rule matching any real shard, the bounded
/// path serves every request bit-identical to the exact path — the
/// degradation machinery itself costs no fidelity.
#[test]
fn vacuous_fault_spec_keeps_bounded_path_bit_identical() {
    let config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let (registry, server) = chaos_server("seed=5;shard_slow=99:1ms", config);
    for user in 0..16 {
        let request = RecommendRequest::new(user, vec![user % NUM_ITEMS], 7);
        let exact = registry.current().model.recommend(&request);
        let response = server.submit(request).expect("admitted");
        assert!(!response.degraded);
        assert_eq!(response.shards_answered, NUM_SHARDS);
        assert_eq!(items_and_bits(&response.items), items_and_bits(&exact), "user {user}");
    }
    assert_eq!(server.stats().degraded, 0);
}

/// Same, through the quantized pre-selection + exact re-rank path.
#[test]
fn vacuous_fault_spec_keeps_quantized_bounded_path_bit_identical() {
    let faults = FaultInjector::parse("seed=5;shard_slow=99:1ms").expect("valid fault spec");
    let registry = Arc::new(ModelRegistry::new(model().with_quantized_catalog()));
    let config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let server = RecServer::start_instrumented(Arc::clone(&registry), config, Telemetry::disabled(), faults);
    for user in 0..16 {
        let request = RecommendRequest::new(user, vec![(user * 3) % NUM_ITEMS], 5);
        let exact = registry.current().model.recommend(&request);
        let response = server.submit(request).expect("admitted");
        assert!(!response.degraded);
        assert_eq!(items_and_bits(&response.items), items_and_bits(&exact), "user {user}");
    }
}

/// A shard slowed past the deadline budget is dropped and the response
/// arrives within (a small multiple of) the deadline instead of waiting out
/// the full injected delay.
#[test]
fn slow_shard_is_dropped_within_the_deadline_budget() {
    let config = ServerConfig {
        default_deadline: Some(Duration::from_millis(25)),
        coalesce_wait: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (_registry, server) = chaos_server("seed=9;shard_slow=0:2s", config);
    let started = Instant::now();
    let response = server.submit(RecommendRequest::new(3, vec![1], 5)).expect("admitted");
    let elapsed = started.elapsed();
    assert!(response.degraded, "the 2s shard cannot fit a 25ms deadline");
    assert_eq!(response.shards_answered, NUM_SHARDS - 1);
    assert!(
        elapsed < Duration::from_millis(500),
        "response must arrive near the deadline, not after the 2s injected delay (took {elapsed:?})"
    );
    let stats = server.stats();
    assert_eq!(stats.shard_deadline_misses, 1);
}

/// Rollback under live traffic: a bad publish is undone with
/// `rollback_to`, and the very next responses serve the archived snapshot's
/// bits under a new version.
#[test]
fn rollback_under_traffic_restores_archived_scores() {
    let registry = Arc::new(ModelRegistry::new(model()));
    let server = RecServer::start(Arc::clone(&registry), ServerConfig::default());
    let request = RecommendRequest::new(2, vec![4], 6);
    let v1_bits = items_and_bits(&server.submit(request.clone()).expect("admitted").items);

    // Publish a "bad" model: every score negated, rankings reversed.
    let w = Matrix::from_vec(NUM_ITEMS, 1, (0..NUM_ITEMS).map(|i| -(i as f32)).collect());
    registry.publish(ServingModel::from_parts("bad", &w, NUM_SHARDS, |_, _| vec![1.0]));
    let bad = server.submit(request.clone()).expect("admitted");
    assert_eq!(bad.model_version, 2);
    assert_ne!(items_and_bits(&bad.items), v1_bits, "the bad model answers differently");

    let restored_version = registry.rollback_to(1).expect("version 1 is archived");
    assert_eq!(restored_version, 3, "rollback republishes under a fresh version");
    let after = server.submit(request).expect("admitted");
    assert_eq!(after.model_version, 3);
    assert_eq!(items_and_bits(&after.items), v1_bits, "rollback restores the archived snapshot's exact bits");
}

/// A batch that panics outside its shard tasks must not kill the dispatcher,
/// with or without a deadline. The probe: an int8 catalogue with every 10th
/// row NaN and `k` wide enough that NaN candidates reach the exact re-rank,
/// whose sort may panic on them. Every admitted request — the first and each
/// one after it — is answered within a few seconds, flagged degraded if it
/// must be. The test checks liveness, not the panic, so it holds whether or
/// not the ranking order is total over NaN.
#[test]
fn a_panicking_merge_never_strands_a_caller() {
    let (items, dim) = (2000, 8);
    // SplitMix64 finaliser mapped to [-1, 1): seeded pseudo-random values.
    let noise = |seed: u64, i: usize| {
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    };
    for seed in 1..=3u64 {
        let value = |i: usize| if (i / dim).is_multiple_of(10) { f32::NAN } else { noise(seed, i) };
        let w = Matrix::from_vec(items, dim, (0..items * dim).map(value).collect());
        for deadline in [None, Some(Duration::from_secs(5))] {
            let query = move |user: usize, _: &[usize]| (0..dim).map(|j| noise(seed + 99, user * dim + j)).collect();
            let model = ServingModel::from_parts("nan-rows", &w, 4, query).with_quantized_catalog();
            let config =
                ServerConfig { coalesce_wait: Duration::ZERO, default_deadline: deadline, ..ServerConfig::default() };
            let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
            for user in 0..6 {
                let (sender, answer) = mpsc::channel();
                let client = Arc::clone(&server);
                let caller = std::thread::spawn(move || {
                    sender.send(client.submit(RecommendRequest::new(user, vec![user], 600))).expect("test is listening")
                });
                let response = answer.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|_| {
                    panic!("seed {seed}, deadline {deadline:?}: request of user {user} got no answer within 5s")
                });
                caller.join().expect("caller thread");
                assert!(response.is_ok(), "seed {seed}, deadline {deadline:?}, user {user}: {response:?}");
            }
        }
    }
}
