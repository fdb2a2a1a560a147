//! The three serving workloads: `serve_solo_10k`, `serve_solo_120k` (one
//! closed-loop client against a `RecServer`) and `batch_120k`
//! (`recommend_batch` called directly, no server).

use crate::inputs::{derive_seed, request_stream, sample_indices, K};
use crate::layers;
use crate::oracle::{exact_top_k, rank_scores, served_ids, Agreement};
use crate::report::{LayerMetrics, Outcome, Phase};
use crate::spec::{model_config, Sizes, MAX_SETUP_REPEATS};
use crate::stats::{self, Summary, SLOW_CALL_SLICE, TAIL_SLICE};
use crate::trace::Trace;
use ham_core::HamModel;
use ham_data::dataset::ItemId;
use ham_faults::FaultInjector;
use ham_serve::{
    ModelRegistry, RecServer, RecommendRequest, RecommendResponse, ScoredItem, ServerConfig, ServingModel,
};
use ham_telemetry::Telemetry;
use ham_tensor::pool::global_pool;
use std::sync::Arc;
use std::time::Instant;

/// What set-up builds for a serving workload.
pub struct Served {
    pub model: Arc<HamModel>,
    pub requests: Vec<RecommendRequest>,
    pub registry: Arc<ModelRegistry>,
}

impl Served {
    /// Generates the request stream, initialises the model and freezes it
    /// into a sharded snapshot.
    pub fn build(sizes: &Sizes, num_items: usize, seed: u64) -> Self {
        let requests = request_stream(seed, sizes.serve_users, num_items, sizes.history_len);
        let model = Arc::new(HamModel::new(sizes.serve_users, num_items, model_config(), derive_seed(seed, 4)));
        let serving = ServingModel::from_scorer("HAMs_m", Arc::clone(&model), sizes.shards)
            .expect("HamModel always has a linear head");
        Self { model, requests, registry: Arc::new(ModelRegistry::new(serving)) }
    }
}

/// Starts a server with telemetry and fault injection explicitly off, so
/// nothing in the environment decides what is measured.
pub fn start_server(registry: &Arc<ModelRegistry>) -> RecServer {
    RecServer::start_instrumented(
        Arc::clone(registry),
        ServerConfig::default(),
        Telemetry::disabled(),
        FaultInjector::disabled(),
    )
}

/// Runs `build` once and returns what it built with its wall seconds.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let built = build();
    (built, started.elapsed().as_secs_f64())
}

/// The repetitions of set-up behind the `setup_s` median. They run *after*
/// the measured window, on purpose: a window that follows twenty set-ups was
/// measured ~7% slower than one that follows a single set-up (allocator and
/// thread churn left behind), and a user's process sets up once. `first_s` is
/// the set-up the window ran on; `build` is repeated until there are
/// `sizes.setup_repeats` timings, and on (up to [`MAX_SETUP_REPEATS`]) while
/// the repetitions fit in `sizes.setup_budget`. Each result is dropped before
/// the next is built.
pub fn repeat_setup<T>(sizes: &Sizes, first_s: f64, mut build: impl FnMut() -> T) -> Vec<f64> {
    let mut seconds = vec![first_s];
    let repeating_since = Instant::now();
    while seconds.len() < sizes.setup_repeats
        || (seconds.len() < MAX_SETUP_REPEATS && repeating_since.elapsed() < sizes.setup_budget)
    {
        seconds.push(timed(&mut build).1);
    }
    seconds
}

/// One workload run: set up once, measure on that set-up, drop it, then
/// repeat set-up for the `setup_s` median (see [`repeat_setup`]).
pub fn run_with_setup<T>(sizes: &Sizes, build: impl Fn() -> T, measure: impl FnOnce(&mut T) -> Outcome) -> Outcome {
    let (mut built, first_s) = timed(&build);
    let mut outcome = measure(&mut built);
    drop(built);
    outcome.setup_runs_s = repeat_setup(sizes, first_s, &build);
    outcome
}

/// A response is good when nothing was shed, dropped or cut short.
pub fn response_is_complete(response: &RecommendResponse, shards: usize) -> bool {
    !response.degraded && response.items.len() == K && response.shards_answered == shards
}

/// Records one request's spans: the client's `submit` interval with the
/// server-reported queue and service times laid out inside it. What is left
/// as the parent's self time is hand-off and wake-up (`serve.server.wake`).
pub fn record_request_spans(
    trace: &mut Trace,
    request_id: u64,
    (sent, received): (Instant, Instant),
    (queue_micros, service_micros): (u64, u64),
) {
    let (start, end) = (trace.ns(sent), trace.ns(received));
    let queue_end = start + queue_micros * 1000;
    let service_end = queue_end + service_micros * 1000;
    let parent = trace.record("client.submit", start, end, None, request_id);
    trace.record("serve.server.queue", start, queue_end, Some(parent), request_id);
    trace.record("serve.server.service", queue_end, service_end, Some(parent), request_id);
}

/// Medians of the server-side split of the traced window's requests.
pub fn server_layer_metrics(trace: &Trace, layers: &mut LayerMetrics) {
    layers.insert("serve.server.queue_us", stats::median_us(&mut trace.durations_ns("serve.server.queue")));
    layers.insert("serve.server.service_us", stats::median_us(&mut trace.durations_ns("serve.server.service")));
    layers.insert("serve.server.wake_us", stats::median_us(&mut trace.self_ns_of("client.submit")));
}

/// Every call of a measured window: how long the caller waited, and when it
/// got its answer. The rate is calls over the whole window; latencies are
/// summarised per slice of consecutive calls and the mean over slices is
/// reported (see `stats.rs`).
pub struct WindowLog {
    opened: Instant,
    latencies_ns: Vec<u64>,
    completed_ns: Vec<u64>,
    /// When each complete pass over the request stream ended, in nanoseconds
    /// since the window opened.
    pass_ended_ns: Vec<u64>,
}

impl WindowLog {
    pub fn open() -> Self {
        Self { opened: Instant::now(), latencies_ns: Vec::new(), completed_ns: Vec::new(), pass_ended_ns: Vec::new() }
    }

    pub fn opened(&self) -> Instant {
        self.opened
    }

    pub fn record(&mut self, called: Instant, returned: Instant) {
        self.latencies_ns.push((returned - called).as_nanos() as u64);
        self.completed_ns.push((returned - self.opened).as_nanos() as u64);
    }

    pub fn calls(&self) -> usize {
        self.latencies_ns.len()
    }

    /// Calls per second over the whole window, up to the last answer.
    pub fn calls_per_s(&self) -> f64 {
        self.calls() as f64 * 1e9 / self.completed_ns.last().copied().unwrap_or(1).max(1) as f64
    }

    /// The call just recorded was the last of a pass over the stream.
    pub fn end_pass(&mut self) {
        self.pass_ended_ns.extend(self.completed_ns.last());
    }

    /// Wall seconds of each complete pass over the stream, the first counted
    /// from the window's opening. Their mean is the serving workloads'
    /// `job_s`: the job as measured, not derived from the rate.
    pub fn pass_seconds(&self) -> Vec<f64> {
        let starts = std::iter::once(&0).chain(&self.pass_ended_ns);
        starts.zip(&self.pass_ended_ns).map(|(from, to)| (to - from) as f64 / 1e9).collect()
    }

    /// Latency summary over slices of `slice_len` calls.
    pub fn latency(&mut self, slice_len: usize) -> Summary {
        Summary::of(&mut self.latencies_ns, slice_len).expect("the window held at least one call")
    }
}

/// The served lists of the oracle's sample, as first seen; a later answer to
/// the same request that differs is a failure in itself.
struct SampleLog {
    /// Sampled stream indices, ascending; `lists[slot]` belongs to
    /// `indices[slot]`.
    indices: Vec<usize>,
    lists: Vec<Option<Vec<ItemId>>>,
    changed_answers: u64,
}

impl SampleLog {
    fn new(seed: u64, stream_len: usize, sample: usize) -> Self {
        let indices = sample_indices(seed, stream_len, sample);
        Self { lists: vec![None; indices.len()], indices, changed_answers: 0 }
    }

    fn observe(&mut self, index: usize, ids: impl FnOnce() -> Vec<ItemId>) {
        let Ok(slot) = self.indices.binary_search(&index) else { return };
        let ids = ids();
        match &self.lists[slot] {
            None => self.lists[slot] = Some(ids),
            Some(first) => self.changed_answers += u64::from(*first != ids),
        }
    }

    fn note(&self, agreement: &Agreement) -> String {
        format!(
            "oracle: {} sampled rankings compared, {} differ, {} answers changed between passes",
            agreement.checked, agreement.mismatched, self.changed_answers
        )
    }
}

/// `serve_solo_10k` / `serve_solo_120k`: one client thread submits the
/// request stream over and over, each request after the previous reply.
pub fn serve_solo(sizes: &Sizes, num_items: usize, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    let build = || {
        let served = Served::build(sizes, num_items, seed);
        // Starting and stopping the dispatcher is part of what an embedder
        // pays, so it is inside the timed set-up; the measured server is
        // started once more, outside it.
        drop(start_server(&served.registry));
        served
    };
    run_with_setup(sizes, build, |served| serve_solo_window(sizes, served, seed, trace))
}

fn serve_solo_window(sizes: &Sizes, served: &Served, seed: u64, mut trace: Option<&mut Trace>) -> Outcome {
    let server = start_server(&served.registry);
    let stream = &served.requests;

    let mut warmup = Phase::default();
    let warm_until = Instant::now() + sizes.serve_warmup;
    for request in stream.iter().cycle() {
        if Instant::now() >= warm_until {
            break;
        }
        warmup.count(server.submit(request.clone()).is_ok_and(|r| response_is_complete(&r, sizes.shards)));
    }

    let mut sample = SampleLog::new(seed, stream.len(), sizes.oracle_sample);
    let mut measured = Phase::default();
    let mut window = WindowLog::open();
    let deadline = window.opened() + sizes.window;
    for (index, request) in stream.iter().enumerate().cycle() {
        let request = request.clone();
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let reply = server.submit(request);
        let received = Instant::now();
        window.record(sent, received);
        if index + 1 == stream.len() {
            window.end_pass();
        }
        match reply {
            Ok(response) => {
                measured.count(response_is_complete(&response, sizes.shards));
                sample.observe(index, || served_ids(&response.items));
                if let Some(trace) = trace.as_deref_mut() {
                    let split = (response.queue_micros, response.service_micros);
                    record_request_spans(trace, measured.sent, (sent, received), split);
                }
            }
            Err(_) => measured.count(false),
        }
    }

    // Outside the window: sampled requests the window never reached (short
    // windows only) are served once now, then every sampled list is checked.
    let mut agreement = Agreement::default();
    for (slot, &index) in sample.indices.iter().enumerate() {
        let request = &stream[index];
        let list = sample.lists[slot].take().or_else(|| {
            let reply = server.submit(request.clone());
            measured.count(reply.as_ref().is_ok_and(|r| response_is_complete(r, sizes.shards)));
            reply.ok().map(|r| served_ids(&r.items))
        });
        agreement.judge(&list.unwrap_or_default(), &exact_top_k(&served.model, request));
    }
    measured.fail_succeeded(agreement.mismatched as u64 + sample.changed_answers);
    let counters = server.stats();
    drop(server);

    let users_per_s = window.calls_per_s();
    let latency = window.latency(TAIL_SLICE);
    let mut layers = LayerMetrics::new();
    if let Some(trace) = trace {
        server_layer_metrics(trace, &mut layers);
        layers::replay_serving_layers(sizes, &served.model, stream, trace, &mut layers);
        layers::replay_model_layers(sizes, &served.model, stream, &mut layers);
        layers::replay_dataset_layers(sizes, seed, &mut layers);
    }
    Outcome {
        setup_runs_s: Vec::new(),
        warmup,
        measured,
        users_per_s,
        job_s: stats::mean(&window.pass_seconds()).unwrap_or(f64::NAN),
        recall_at_10: agreement.recall_at_10(),
        ndcg_at_10: agreement.ndcg_at_10(),
        notes: vec![
            format!(
                "rps = {users_per_s:.1} 1/s ({} requests over the whole window; one closed-loop client, {} items, {} shards)",
                window.calls(),
                served.model.num_items(),
                sizes.shards
            ),
            format!("job_s = mean of {:.3?} s, the complete passes over the {} requests", window.pass_seconds(), stream.len()),
            format!("latency around submit: {}", latency.describe()),
            sample.note(&agreement),
            format!(
                "server counters: admitted={} completed={} shed={} degraded={} deadline_expired={}",
                counters.admitted, counters.completed, counters.shed, counters.degraded, counters.deadline_expired
            ),
        ],
        latency,
        layers,
    }
}

/// `batch_120k`: one thread ranks every user of the stream in chunks through
/// `ServingModel::recommend_batch` on the global pool, pass after pass.
pub fn batch(sizes: &Sizes, num_items: usize, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    let build = || Served::build(sizes, num_items, seed);
    run_with_setup(sizes, build, |served| batch_window(sizes, served, seed, trace))
}

fn batch_window(sizes: &Sizes, served: &Served, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    let serving = &served.registry.current().model;
    let stream = &served.requests;
    let chunks: Vec<&[RecommendRequest]> = stream.chunks(sizes.batch_chunk).collect();
    let mut sample = SampleLog::new(seed, stream.len(), sizes.oracle_sample);
    let mut rank_chunk = |chunk_index: usize, phase: &mut Phase| {
        let chunk = chunks[chunk_index];
        let lists: Vec<Vec<ScoredItem>> = serving.recommend_batch(chunk, Some(global_pool()));
        let returned = Instant::now();
        phase.count(lists.len() == chunk.len() && lists.iter().all(|list| list.len() == K));
        for (row, list) in lists.iter().enumerate() {
            sample.observe(chunk_index * sizes.batch_chunk + row, || served_ids(list));
        }
        returned
    };

    // Warm-up is one full pass: every chunk's panels and query rows are
    // touched, and every sampled ranking is seen at least once.
    let mut warmup = Phase::default();
    for chunk_index in 0..chunks.len() {
        rank_chunk(chunk_index, &mut warmup);
    }

    let mut measured = Phase::default();
    let mut window = WindowLog::open();
    let deadline = window.opened() + sizes.window;
    for chunk_index in (0..chunks.len()).cycle() {
        let called = Instant::now();
        if called >= deadline {
            break;
        }
        let returned = rank_chunk(chunk_index, &mut measured);
        window.record(called, returned);
        if chunk_index + 1 == chunks.len() {
            window.end_pass();
        }
    }

    // The reference scores each chunk through `HamModel::score_batch`, the
    // same GEMM shape the served chunk went through, so both sides round the
    // same way; only the sampled rows are ranked.
    let mut agreement = Agreement::default();
    let mut sampled = sample.indices.iter().zip(&sample.lists).peekable();
    for (chunk_index, chunk) in chunks.iter().enumerate() {
        let base = chunk_index * sizes.batch_chunk;
        if sampled.peek().is_none_or(|(&index, _)| index >= base + chunk.len()) {
            continue;
        }
        let users: Vec<usize> = chunk.iter().map(|r| r.user).collect();
        let histories: Vec<&[ItemId]> = chunk.iter().map(|r| r.history.as_slice()).collect();
        let scores = served.model.score_batch(&users, &histories);
        while let Some((&index, list)) = sampled.next_if(|(&index, _)| index < base + chunk.len()) {
            let reference = rank_scores(scores.row(index - base), &chunk[index - base].history, K);
            agreement.judge(list.as_deref().unwrap_or_default(), &reference);
        }
    }
    measured.fail_succeeded(agreement.mismatched as u64 + sample.changed_answers);

    let users_per_call = stream.len() as f64 / chunks.len() as f64;
    let users_per_s = window.calls_per_s() * users_per_call;
    let latency = window.latency(SLOW_CALL_SLICE);
    let mut layers = LayerMetrics::new();
    if let Some(trace) = trace {
        layers::replay_server(sizes, &served.registry, stream, trace, &mut layers);
        layers::replay_serving_layers(sizes, &served.model, stream, trace, &mut layers);
        layers::replay_model_layers(sizes, &served.model, stream, &mut layers);
        layers::replay_dataset_layers(sizes, seed, &mut layers);
    }
    Outcome {
        setup_runs_s: Vec::new(),
        warmup,
        measured,
        users_per_s,
        job_s: stats::mean(&window.pass_seconds()).unwrap_or(f64::NAN),
        recall_at_10: agreement.recall_at_10(),
        ndcg_at_10: agreement.ndcg_at_10(),
        notes: vec![
            format!(
                "users_per_s = {users_per_s:.1} 1/s ({} calls over the whole window; {} users per recommend_batch call, {} items, pool of {})",
                window.calls(),
                sizes.batch_chunk,
                served.model.num_items(),
                global_pool().threads()
            ),
            format!("job_s = mean of {:.3?} s, the complete passes over the {} users", window.pass_seconds(), stream.len()),
            format!("latency around recommend_batch: {}", latency.describe()),
            sample.note(&agreement),
        ],
        latency,
        layers,
    }
}
