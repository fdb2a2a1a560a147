//! End-to-end tests of the train → publish → serve loop.

use ham_core::{HamConfig, HamModel, HamVariant, TrainConfig};
use ham_data::synthetic::DatasetProfile;
use ham_data::SequenceDataset;
use ham_online::{OnlineConfig, OnlineTrainer, PublishGate};
use ham_serve::{RecServer, RecommendRequest, ServerConfig};
use ham_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tiny_config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        model: HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1),
        train: TrainConfig { epochs: 2, batch_size: 32, ..TrainConfig::default() },
        shards: 2,
        quantize_serving: false,
        ivf: None,
        seed,
        gate: PublishGate::default(),
    }
}

fn tiny_dataset(seed: u64) -> SequenceDataset {
    DatasetProfile::tiny("online-e2e").generate(seed)
}

/// A ~10% fresh-interaction stream re-using each user's own item vocabulary
/// (so negatives keep existing and the stream looks like real repeat
/// traffic).
fn fresh_stream(data: &SequenceDataset) -> Vec<(usize, usize)> {
    let mut fresh = Vec::new();
    for (user, seq) in data.sequences.iter().enumerate() {
        for t in 0..seq.len().div_ceil(10) {
            fresh.push((user, seq[(t * 7) % seq.len()]));
        }
    }
    fresh
}

fn max_param_diff(a: &HamModel, b: &HamModel) -> f32 {
    [
        (a.user_embeddings(), b.user_embeddings()),
        (a.input_item_embeddings(), b.input_item_embeddings()),
        (a.candidate_item_embeddings(), b.candidate_item_embeddings()),
    ]
    .iter()
    .flat_map(|(x, y)| x.as_slice().iter().zip(y.as_slice()))
    .map(|(p, q)| (p - q).abs())
    .fold(0.0f32, f32::max)
}

/// The acceptance loop: train, serve, append fresh interactions, run one
/// incremental round, and observe the served `model_version` advance while
/// the `RecServer` keeps answering throughout (no pause, no rejection).
#[test]
fn incremental_round_advances_served_version_without_pausing() {
    let initial = tiny_dataset(11);
    let mut trainer = OnlineTrainer::bootstrap(&initial, tiny_config(42));
    assert_eq!(trainer.rounds(), 1);
    let server = Arc::new(RecServer::start(trainer.registry(), ServerConfig::default()));

    // a client hammers the server for the whole duration of the round
    let stop = Arc::new(AtomicBool::new(false));
    let warmed = Arc::new(AtomicBool::new(false));
    let client = {
        let server = Arc::clone(&server);
        let (stop, warmed) = (Arc::clone(&stop), Arc::clone(&warmed));
        let histories: Vec<Vec<usize>> = initial.sequences.clone();
        std::thread::spawn(move || {
            let mut served = 0usize;
            let mut versions = Vec::new();
            let mut user = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let request =
                    RecommendRequest::new(user % histories.len(), histories[user % histories.len()].clone(), 5);
                match server.submit(request) {
                    Ok(response) => {
                        assert_eq!(response.items.len(), 5, "every served response is a full ranking");
                        if versions.last() != Some(&response.model_version) {
                            versions.push(response.model_version);
                        }
                        served += 1;
                        warmed.store(true, Ordering::SeqCst);
                    }
                    Err(error) => panic!("the loop must never pause or shed this client: {error}"),
                }
                user += 1;
            }
            (served, versions)
        })
    };

    // The round below lasts about a millisecond: start it only once the
    // client is demonstrably in flight, or a late-scheduled client thread
    // misses the swap altogether (served == 0 on a loaded two-core host).
    while !warmed.load(Ordering::SeqCst) {
        assert!(!client.is_finished(), "client thread died before its first response");
        std::thread::yield_now();
    }

    // fresh traffic arrives; one incremental round retrains + publishes
    let before = server.model_version();
    assert_eq!(before, 1);
    for (user, item) in fresh_stream(&initial) {
        trainer.ingest(user, item);
    }
    let report = trainer.run_round();
    assert_eq!(report.round, 2);
    assert_eq!(report.version, 2, "the incremental round must publish a new version");
    assert!(report.instances_trained > 0, "fresh windows must be trained");
    assert!(report.fresh_interactions > 0);

    // the served version advanced without restarting the server
    let after = server.submit(RecommendRequest::new(0, initial.sequences[0].clone(), 5)).expect("still serving");
    assert_eq!(after.model_version, 2);

    stop.store(true, Ordering::SeqCst);
    let (served, versions) = client.join().expect("client thread panicked");
    assert!(served > 0, "the client must have been served during the swap");
    assert!(versions.iter().all(|v| [1, 2].contains(v)), "only published versions may be served, got {versions:?}");
}

/// Warm-start correctness: a trainer restored from a checkpoint (fresh
/// process simulation — model + Adam moments + watermarked log rebuilt from
/// exported state) continues the stream to parameters within 1e-5 of the
/// trainer that never stopped. With identically seeded warm starts the match
/// is in fact bit-exact.
#[test]
fn restored_trainer_matches_the_uninterrupted_one() {
    let initial = tiny_dataset(7);
    let config = tiny_config(99);

    let mut continuous = OnlineTrainer::bootstrap(&initial, config);
    for (user, item) in fresh_stream(&initial) {
        continuous.ingest(user, item);
    }
    let checkpoint = continuous.checkpoint();
    let round_a = continuous.run_round();

    let mut restored = OnlineTrainer::restore(checkpoint, config);
    let round_b = restored.run_round();

    assert_eq!(round_a.round, round_b.round);
    assert_eq!(round_a.instances_trained, round_b.instances_trained);
    let diff = max_param_diff(&continuous.model(), &restored.model());
    assert!(diff <= 1e-5, "restored round diverged from the uninterrupted one: max diff {diff}");
    assert_eq!(diff, 0.0, "identically seeded warm starts are bit-exact");
}

/// From-scratch reference on the same cumulative stream: replaying the
/// identical ingest/round schedule from a fresh bootstrap reproduces the
/// incremental trainer's parameters exactly.
#[test]
fn replayed_stream_reproduces_the_incremental_parameters() {
    let initial = tiny_dataset(5);
    let config = tiny_config(1234);
    let fresh = fresh_stream(&initial);

    let run = || {
        let mut trainer = OnlineTrainer::bootstrap(&initial, config);
        for &(user, item) in &fresh[..fresh.len() / 2] {
            trainer.ingest(user, item);
        }
        trainer.run_round();
        for &(user, item) in &fresh[fresh.len() / 2..] {
            trainer.ingest(user, item);
        }
        trainer.run_round();
        trainer
    };
    let a = run();
    let b = run();
    assert_eq!(a.rounds(), 3);
    assert_eq!(max_param_diff(&a.model(), &b.model()), 0.0, "the stream fully determines the parameters");
}

/// Unseen users and items grow the embedding tables mid-stream and become
/// servable after the next round.
#[test]
fn new_users_and_items_grow_and_get_served() {
    let initial = tiny_dataset(3);
    let mut trainer = OnlineTrainer::bootstrap(&initial, tiny_config(8));
    let server = RecServer::start(trainer.registry(), ServerConfig::default());

    let new_user = initial.num_users();
    let first_new_item = initial.num_items;
    // the new user interacts with a mix of catalogue and brand-new items
    for t in 0..8 {
        let item = if t % 2 == 0 { first_new_item + t / 2 } else { t };
        trainer.ingest(new_user, item);
    }
    let report = trainer.run_round();
    assert!(report.instances_trained > 0, "the new user's windows must train");

    let model = trainer.model();
    assert_eq!(model.num_users(), new_user + 1);
    assert_eq!(model.num_items(), first_new_item + 4);

    // the served snapshot knows the new user and ranks the grown catalogue
    let history: Vec<usize> = (0..4).map(|i| first_new_item + i).collect();
    let response = server.submit(RecommendRequest::new(new_user, history, 10)).expect("served");
    assert_eq!(response.model_version, 2);
    assert_eq!(response.items.len(), 10);
    assert!(response.items.iter().all(|s| s.score.is_finite()));
}

/// `quantize_serving` publishes int8-quantized snapshots at every round —
/// bootstrap and incremental alike — and the served results stay
/// bit-identical to an unquantized twin trained on the same stream (the
/// quantized path re-ranks its candidates through the exact f32 kernel).
#[test]
fn quantized_publishing_serves_the_same_results() {
    let initial = tiny_dataset(21);
    let exact_config = tiny_config(77);
    let quant_config = OnlineConfig { quantize_serving: true, ..exact_config };

    let run = |config: OnlineConfig| {
        let mut trainer = OnlineTrainer::bootstrap(&initial, config);
        for (user, item) in fresh_stream(&initial) {
            trainer.ingest(user, item);
        }
        trainer.run_round();
        trainer
    };
    let exact = run(exact_config);
    let quantized = run(quant_config);

    assert!(!exact.registry().current().model.is_quantized());
    assert!(quantized.registry().current().model.is_quantized(), "every published snapshot must be quantized");
    assert_eq!(quantized.registry().version(), 2, "the incremental round still publishes");

    let exact_server = RecServer::start(exact.registry(), ServerConfig::default());
    let quant_server = RecServer::start(quantized.registry(), ServerConfig::default());
    for (user, seq) in initial.sequences.iter().enumerate() {
        let want = exact_server.submit(RecommendRequest::new(user, seq.clone(), 5)).expect("exact serving");
        let got = quant_server.submit(RecommendRequest::new(user, seq.clone(), 5)).expect("quantized serving");
        assert_eq!(got.items, want.items, "user {user}: quantized serving must match the exact path bit-for-bit");
    }
}

/// With `ivf` configured, every published snapshot carries a cluster index
/// rebuilt from that round's embedding rows, the rebuild **replays
/// bit-identically** (two trainers fed the same stream serve the same
/// bits), and at `nprobe = all` the clustered snapshots serve bit-identical
/// results to an unclustered twin — the index is a pure regrouping of the
/// published catalogue.
#[test]
fn ivf_publishing_replays_bit_identically_and_matches_exact() {
    let initial = tiny_dataset(33);
    let exact_config = tiny_config(55);
    let ivf_config = OnlineConfig {
        ivf: Some(ham_serve::IvfConfig { clusters: 3, iters: 4, ..ham_serve::IvfConfig::auto() }),
        ..exact_config
    };

    let run = |config: OnlineConfig| {
        let mut trainer = OnlineTrainer::bootstrap(&initial, config);
        for (user, item) in fresh_stream(&initial) {
            trainer.ingest(user, item);
        }
        trainer.run_round();
        trainer
    };
    let exact = run(exact_config);
    let replay_a = run(ivf_config);
    let replay_b = run(ivf_config);

    // Under the CI leg that forces HAM_RETRIEVAL=ivf the "exact" twin is
    // also clustered (at nprobe = all, so still exact) — only assert it is
    // unclustered when the environment leaves serving alone.
    if std::env::var_os("HAM_RETRIEVAL").is_none() {
        assert!(!exact.registry().current().model.is_clustered());
    }
    for trainer in [&replay_a, &replay_b] {
        let published = trainer.registry().current();
        assert!(published.model.is_clustered(), "every published snapshot must carry the rebuilt index");
        assert!(published.model.clusters_probed() > 0);
        assert_eq!(trainer.registry().version(), 2, "the incremental round still publishes");
    }

    for (user, seq) in initial.sequences.iter().enumerate() {
        let request = RecommendRequest::new(user, seq.clone(), 5);
        let want = exact.registry().current().model.recommend(&request);
        let got_a = replay_a.registry().current().model.recommend(&request);
        let got_b = replay_b.registry().current().model.recommend(&request);
        let to_bits =
            |items: &[ham_serve::ScoredItem]| items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>();
        assert_eq!(to_bits(&got_a), to_bits(&got_b), "user {user}: publish-rebuild must replay bit-identically");
        assert_eq!(to_bits(&got_a), to_bits(&want), "user {user}: nprobe=all must match the unclustered twin");
    }
}

/// A round with nothing fresh is a published no-op: version unchanged,
/// nothing trained, the server keeps the old snapshot.
#[test]
fn empty_round_publishes_nothing() {
    let initial = tiny_dataset(13);
    let mut trainer = OnlineTrainer::bootstrap(&initial, tiny_config(6));
    let registry = trainer.registry();
    assert_eq!(registry.version(), 1);
    let report = trainer.run_round();
    assert_eq!(report.instances_trained, 0);
    assert_eq!(report.version, 1, "no fresh data, no publish");
    assert_eq!(registry.version(), 1);
}

/// The shadow gate is timed on its own: a gated round reports
/// `gate_seconds` as a part of `publish_seconds` and records one
/// `online_gate_micros` sample; the ungated bootstrap round records none.
#[test]
fn the_shadow_gate_is_timed_on_its_own() {
    let initial = tiny_dataset(17);
    let mut trainer = OnlineTrainer::bootstrap_with_telemetry(&initial, tiny_config(3), Telemetry::enabled());
    let gate_samples = |trainer: &OnlineTrainer| {
        let snapshot = trainer.telemetry().snapshot().expect("telemetry is enabled");
        snapshot.histogram("online_gate_micros").map_or(0, |h| h.count)
    };
    assert_eq!(gate_samples(&trainer), 0, "the bootstrap round has no live model to gate against");
    for (user, item) in fresh_stream(&initial) {
        trainer.ingest(user, item);
    }
    let report = trainer.run_round();
    assert!(report.shadow.expect("the incremental round is gated").probes > 0);
    assert!(report.gate_seconds > 0.0 && report.gate_seconds <= report.publish_seconds, "{report:?}");
    assert_eq!(gate_samples(&trainer), 1);
}
