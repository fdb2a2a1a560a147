//! The two workloads that train: `train_eval_ml1m` (the paper's own
//! workflow: generate, split, train, evaluate) and `online_rounds` (the
//! online loop ingesting and publishing while a client reads).

use crate::inputs::{derive_seed, online_stream, OnlineStream, K};
use crate::layers;
use crate::oracle::served_ids;
use crate::report::{LayerMetrics, Outcome, Phase};
use crate::serving::{
    record_request_spans, response_is_complete, run_with_setup, server_layer_metrics, start_server, timed, WindowLog,
};
use crate::spec::{model_config, Sizes};
use crate::stats::{self, Summary, TAIL_SLICE};
use crate::trace::Trace;
use ham_core::train_with_history;
use ham_data::dataset::SequenceDataset;
use ham_data::split::{split_dataset, DataSplit, EvalSetting};
use ham_eval::protocol::{evaluate_batch, EvalConfig};
use ham_online::OnlineTrainer;
use ham_serve::{ModelRegistry, RecommendRequest};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One request per evaluated user of `split` (train + validation items as
/// history) — the stream the traced replays of the serving layers run on.
fn eval_user_requests(histories: &[Vec<usize>], limit: usize) -> Vec<RecommendRequest> {
    histories
        .iter()
        .enumerate()
        .filter(|(_, history)| !history.is_empty())
        .take(limit)
        .map(|(user, history)| RecommendRequest::new(user, history.clone(), K))
        .collect()
}

/// `train_eval_ml1m`: the dataset is generated and split (set-up), HAMs_m is
/// trained for a fixed number of epochs on one thread, then the test users
/// are ranked by `evaluate_batch` through `score_batch`, pass after pass.
pub fn train_eval(sizes: &Sizes, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    let build = || {
        let data = sizes.dataset.generate(seed);
        let split = split_dataset(&data, EvalSetting::Cut8020);
        let train = split.train_with_val();
        (data, split, train)
    };
    run_with_setup(sizes, build, |(data, split, train)| train_eval_window(sizes, data, split, train, seed, trace))
}

fn train_eval_window(
    sizes: &Sizes,
    data: &SequenceDataset,
    split: &DataSplit,
    train: &[Vec<usize>],
    seed: u64,
    trace: Option<&mut Trace>,
) -> Outcome {
    let config = model_config();
    let mut measured = Phase::default();

    let train_started = Instant::now();
    let (model, epochs) = train_with_history(
        train,
        data.num_items,
        &config,
        &layers::train_config(sizes.train_epochs),
        derive_seed(seed, 8),
    );
    let train_ended = Instant::now();
    let train_s = (train_ended - train_started).as_secs_f64();
    measured.count(model.is_finite());
    let pairs: usize = epochs.iter().map(|e| e.num_instances * config.n_p).sum();

    // Evaluation passes: the scoring call of every 64-user chunk is timed
    // from inside the closure `evaluate_batch` calls.
    let eval_config = EvalConfig::default();
    let chunk_ns: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let evaluate = || {
        evaluate_batch(split, &eval_config, |users, histories| {
            let called = Instant::now();
            let scores = model.score_batch(users, histories);
            chunk_ns.lock().expect("single-threaded evaluation").push(called.elapsed().as_nanos() as u64);
            scores
        })
    };
    let first_started = Instant::now();
    let first = evaluate();
    let mut pass_bounds = vec![(first_started, Instant::now())];
    measured.count(first.num_evaluated > 0);
    // Fixed work, not a deadline: however long training took on this host,
    // the ranking metrics rest on the same number of passes.
    while pass_bounds.len() < sizes.eval_passes {
        let started = Instant::now();
        let report = evaluate();
        pass_bounds.push((started, Instant::now()));
        // Same model, same split: every pass must reproduce the first.
        measured.count(report.mean == first.mean && report.num_evaluated == first.num_evaluated);
    }
    let pass_s: Vec<f64> = pass_bounds.iter().map(|(started, ended)| (*ended - *started).as_secs_f64()).collect();
    // The job is what the researcher runs: train, then evaluate once — the
    // measured wall time of `train_with_history` plus the mean pass.
    let mean_pass_s = stats::mean(&pass_s).expect("at least one evaluation pass ran");
    let job_s = train_s + mean_pass_s;
    let users_per_s = first.num_evaluated as f64 / mean_pass_s;
    let mut chunk_ns = chunk_ns.into_inner().expect("single-threaded evaluation");
    let latency = Summary::of(&mut chunk_ns, TAIL_SLICE).expect("evaluation scored at least one chunk");

    let mut layers = LayerMetrics::new();
    if let Some(trace) = trace {
        let root = trace.record("workload.train_eval", trace.ns(train_started), trace.ns(Instant::now()), None, 0);
        trace.record("core.trainer.train_with_history", trace.ns(train_started), trace.ns(train_ended), Some(root), 0);
        for (pass, (started, ended)) in pass_bounds.iter().enumerate() {
            trace.record(
                "eval.protocol.evaluate_batch",
                trace.ns(*started),
                trace.ns(*ended),
                Some(root),
                pass as u64 + 1,
            );
        }
        layers::trainer_layer_metrics(&epochs, &mut layers);
        layers.insert("eval.protocol.pass_s", mean_pass_s);
        layers::replay_data_layers(&sizes.dataset, seed, &mut layers);
        layers::replay_online_layers(sizes, data, seed, &mut layers);
        let model = Arc::new(model.clone());
        let requests = eval_user_requests(train, sizes.serve_users);
        let serving =
            ham_serve::ServingModel::from_scorer("HAMs_m", Arc::clone(&model), sizes.shards).expect("linear head");
        layers::replay_server(sizes, &Arc::new(ModelRegistry::new(serving)), &requests, trace, &mut layers);
        layers::replay_serving_layers(sizes, &model, &requests, trace, &mut layers);
        layers::replay_model_layers(sizes, &model, &requests, &mut layers);
    }
    Outcome {
        setup_runs_s: Vec::new(),
        warmup: Phase::default(),
        measured,
        users_per_s,
        job_s,
        recall_at_10: first.mean.recall_at_10,
        ndcg_at_10: first.mean.ndcg_at_10,
        notes: vec![
            format!(
                "train_pairs_per_s = {:.0} 1/s ({} epochs, {pairs} pairs, {train_s:.3} s in train_with_history)",
                pairs as f64 / train_s,
                epochs.len()
            ),
            format!(
                "eval_users_per_s = {users_per_s:.0} 1/s (mean of {} passes over {} users; median pass {:.0} 1/s)",
                pass_s.len(),
                first.num_evaluated,
                first.num_evaluated as f64 / stats::median(&pass_s).unwrap_or(f64::NAN)
            ),
            format!("latency around score_batch inside evaluate_batch: {}", latency.describe()),
            format!(
                "job_s = {train_s:.3} s in train_with_history (epochs {:.3?}) + {mean_pass_s:.4} s mean evaluation pass",
                layers::epoch_seconds(&epochs)
            ),
            format!("recall_at_5 = {:.6} ndcg_at_5 = {:.6}", first.mean.recall_at_5, first.mean.ndcg_at_5),
        ],
        latency,
        layers,
    }
}

/// What the online workload's client thread saw.
#[derive(Default)]
struct ClientLog {
    warmup: Phase,
    measured: Phase,
    /// Opened by the first request answered inside the window.
    window: Option<WindowLog>,
    /// `(sent, received, queue_micros, service_micros)` per good request of a
    /// traced run; turned into spans after the thread is joined.
    spans: Vec<(Instant, Instant, u64, u64)>,
    version_went_backwards: u64,
    versions_seen: u64,
}

/// `online_rounds`: bootstrap on the first half of every sequence (set-up),
/// then stream the second halves in, one round per `ingests_per_round`, while
/// one closed-loop client asks for each user's held-out last item.
pub fn online(sizes: &Sizes, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    let build = || {
        let stream = online_stream(seed, &sizes.dataset.generate(seed));
        let (trainer, bootstrap_s) = timed(|| layers::bootstrap_online(sizes, seed, &stream.initial));
        (stream, trainer, bootstrap_s)
    };
    run_with_setup(sizes, build, |(stream, trainer, bootstrap_s)| {
        online_window(sizes, stream, trainer, *bootstrap_s, seed, trace)
    })
}

fn online_window(
    sizes: &Sizes,
    stream: &OnlineStream,
    trainer: &mut OnlineTrainer,
    bootstrap_s: f64,
    seed: u64,
    trace: Option<&mut Trace>,
) -> Outcome {
    let registry = trainer.registry();
    let server = start_server(&registry);
    let traced = trace.is_some();
    let measuring = AtomicBool::new(false);
    let stopping = AtomicBool::new(false);

    let mut ingest = stream.ingest.iter().copied();
    let mut ingest_ns = Vec::new();
    let (mut reports, mut round_s, mut round_ends) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_s = 0.0;
    // The version whose quality is reported: the one live after round
    // `min_rounds`, which every window reaches however slow the host is —
    // training is deterministic, so this is the same model on every run.
    let mut judged_version = None;
    let client = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut log = ClientLog::default();
            let mut last_version = 0;
            for (request, _) in stream.probes.iter().cycle() {
                // ordering: both flags are plain signals; the data they guard
                // is handed over by the scope's join, not by the flag. The
                // client leaves only once it holds a measured answer, so a
                // window cut short (stream exhausted) still has a sample.
                if stopping.load(Ordering::Relaxed) && log.window.is_some() {
                    break;
                }
                let in_window = measuring.load(Ordering::Relaxed);
                let request = request.clone();
                let sent = Instant::now();
                let reply = server.submit(request);
                let received = Instant::now();
                let good = reply.as_ref().is_ok_and(|r| response_is_complete(r, sizes.shards));
                if !in_window {
                    log.warmup.count(good);
                    continue;
                }
                log.measured.count(good);
                log.window.get_or_insert_with(WindowLog::open).record(sent, received);
                let Ok(response) = reply else { continue };
                log.version_went_backwards += u64::from(response.model_version < last_version);
                log.versions_seen += u64::from(response.model_version > last_version);
                last_version = last_version.max(response.model_version);
                if traced && good {
                    log.spans.push((sent, received, response.queue_micros, response.service_micros));
                }
            }
            log
        });

        std::thread::sleep(sizes.online_warmup);
        measuring.store(true, Ordering::Relaxed);
        let window_started = Instant::now();
        while reports.len() < sizes.min_rounds || window_started.elapsed() < sizes.window {
            let Some((report, seconds)) =
                layers::ingest_and_run_round(trainer, &mut ingest, sizes.ingests_per_round, &mut ingest_ns)
            else {
                break;
            };
            round_ends.push(Instant::now());
            reports.push(report);
            round_s.push(seconds);
            if reports.len() == sizes.min_rounds {
                judged_version = Some(registry.current());
            }
        }
        window_s = window_started.elapsed().as_secs_f64();
        stopping.store(true, Ordering::Relaxed);
        client.join().expect("the client thread does not panic")
    });
    drop(server);

    // Rounds: each must have published; the registry must be exactly one
    // version per round ahead of the bootstrap, with nothing left pending.
    let mut rounds = Phase::default();
    for report in &reports {
        rounds.count(
            report.published && !report.publish_rejected && !report.publish_failed && report.instances_trained > 0,
        );
    }
    rounds.count(registry.version() == reports.len() as u64 + 1);
    rounds.count(trainer.pending_interactions() == 0);
    rounds.count(client.version_went_backwards == 0);
    let measured = Phase {
        sent: client.measured.sent + rounds.sent,
        succeeded: client.measured.succeeded + rounds.succeeded,
        failed: client.measured.failed + rounds.failed,
    };

    let mut window = client.window.expect("the client was answered at least once inside the window");
    let users_per_s = window.calls_per_s();
    let latency = window.latency(TAIL_SLICE);
    // Rounds are not alike: users run out of sequence one by one, so a late
    // round's 4000 interactions come from fewer users, have fewer shadow
    // probes and publish in half the time of an early one. Only the first
    // `min_rounds` — the same rounds, with the same work, on every run — are
    // timed for `job_s` and the per-round layer metrics; the rest keep the
    // trainer busy beside the client until the window closes.
    let judged_rounds = sizes.min_rounds.min(reports.len());
    let job_s = stats::mean(&round_s[..judged_rounds]).expect("at least one round ran");

    // Quality of the judged version: every user's held-out last item against
    // the list that version serves for the user's full history.
    let judged = judged_version.unwrap_or_else(|| registry.current());
    let (mut recall, mut ndcg) = (0.0, 0.0);
    for (request, target) in &stream.probes {
        let served = served_ids(&judged.model.recommend(request));
        let truth = HashSet::from([*target]);
        recall += ham_eval::recall_at_k(&served, &truth, K);
        ndcg += ham_eval::ndcg_at_k(&served, &truth, K);
    }
    let probes = stream.probes.len().max(1) as f64;
    let train_pairs: f64 =
        reports.iter().map(|r| (r.instances_trained * model_config().n_p * r.epochs.len()) as f64).sum();
    let train_seconds: f64 = reports.iter().map(|r| r.train_seconds).sum();

    let mut layers = LayerMetrics::new();
    if let Some(trace) = trace {
        for (id, &(sent, received, queue_micros, service_micros)) in client.spans.iter().enumerate() {
            record_request_spans(trace, id as u64, (sent, received), (queue_micros, service_micros));
        }
        for (round, ((ended, seconds), report)) in round_ends.iter().zip(&round_s).zip(&reports).enumerate() {
            let id = round as u64;
            let to = trace.ns(*ended);
            let parent = trace.record("online.round", to.saturating_sub((seconds * 1e9) as u64), to, None, id);
            let publish_from = to.saturating_sub((report.publish_seconds * 1e9) as u64);
            let train_from = publish_from.saturating_sub((report.train_seconds * 1e9) as u64);
            trace.record("online.round.train", train_from, publish_from, Some(parent), id);
            trace.record("online.round.publish", publish_from, to, Some(parent), id);
        }
        server_layer_metrics(trace, &mut layers);
        layers.insert("online.ingest_us", stats::median_us(&mut ingest_ns));
        layers.insert("online.bootstrap_s", bootstrap_s);
        layers::online_layer_metrics(&reports[..judged_rounds], &round_s[..judged_rounds], &mut layers);
        let epochs: Vec<_> = reports.iter().flat_map(|r| r.epochs.iter().copied()).collect();
        layers::trainer_layer_metrics(&epochs, &mut layers);
        let (_, split) = layers::replay_data_layers(&sizes.dataset, seed, &mut layers);
        let model = Arc::new(trainer.model());
        layers::replay_eval_layer(&model, &split, &mut layers);
        let requests: Vec<RecommendRequest> =
            stream.probes.iter().take(sizes.serve_users).map(|(request, _)| request.clone()).collect();
        layers::replay_serving_layers(sizes, &model, &requests, trace, &mut layers);
        layers::replay_model_layers(sizes, &model, &requests, &mut layers);
    }
    Outcome {
        setup_runs_s: Vec::new(),
        warmup: client.warmup,
        measured,
        users_per_s,
        job_s,
        recall_at_10: recall / probes,
        ndcg_at_10: ndcg / probes,
        notes: vec![
            format!(
                "rps = {users_per_s:.1} 1/s ({} requests over the whole window; one closed-loop client beside the trainer)",
                window.calls()
            ),
            format!("latency around submit: {}", latency.describe()),
            format!(
                "round_s = {job_s:.4} s (mean of the first {judged_rounds} rounds, their median {:.4} s; {} rounds of {} ingests over {window_s:.2} s; {} of {} interactions of {} users streamed)",
                stats::median(&round_s[..judged_rounds]).unwrap_or(f64::NAN),
                reports.len(),
                sizes.ingests_per_round,
                stream.ingest.len() - ingest.len(),
                stream.ingest.len(),
                stream.initial.num_users()
            ),
            format!("train_pairs_per_s = {:.0} 1/s inside the rounds", train_pairs / train_seconds),
            format!(
                "quality judged on version {} (live after round {}), {} held-out probes",
                judged.version,
                sizes.min_rounds,
                stream.probes.len()
            ),
            format!(
                "registry version {} after {} rounds, {} versions seen by the client, {} pending interactions",
                registry.version(),
                reports.len(),
                client.versions_seen,
                trainer.pending_interactions()
            ),
        ],
        latency,
        layers,
    }
}
