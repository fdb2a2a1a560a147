//! The online request layer: a micro-batching queue in front of the sharded
//! scorer.
//!
//! Concurrent single-user requests are individually tiny (one GEMV each) but
//! collectively leave throughput on the table: a batch of `B` queries against
//! the catalogue is one packed-panel GEMM that streams `W` once instead of
//! `B` times. The [`RecServer`] therefore enqueues every request, and a
//! dispatcher thread drains the queue in batches of up to
//! [`ServerConfig::max_batch`]. When there is company — the queue holds two
//! or more requests at pickup, or the previous pickup took two or more — it
//! first lingers up to [`ServerConfig::coalesce_wait`] to let concurrent
//! callers pile on; a lone caller is served as soon as the dispatcher wakes,
//! since no second request can arrive while it waits for its answer. Each
//! drained batch is served from the registry's current model snapshot —
//! hot-swaps between batches never pause traffic — and every response carries
//! its own queue/service latency split.

use crate::degrade::ShardExecutor;
use crate::model::ServeScratch;
use crate::registry::{ModelRegistry, PublishedModel};
use crate::request::{RecommendRequest, RecommendResponse};
use crate::shard::{ScoredItem, ShardRun};
use crate::trace::StageTrace;
use ham_faults::FaultInjector;
use ham_telemetry::{Counter, Gauge, Histogram, SpanTree, Telemetry};
use ham_tensor::pool::global_pool;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of the micro-batching queue.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Upper bound on requests coalesced into one scoring batch.
    pub max_batch: usize,
    /// The longest the dispatcher lingers for more arrivals before draining
    /// a queue below `max_batch`. It lingers only under evident concurrency
    /// — two or more requests queued at pickup, or two or more taken by the
    /// previous pickup — so a lone caller never waits on it. Zero never
    /// lingers (lowest latency, least coalescing).
    pub coalesce_wait: Duration,
    /// Admission control: requests arriving while the queue already holds
    /// this many are **shed** — [`RecServer::submit`] returns
    /// [`SubmitError::QueueFull`] immediately instead of letting the queue
    /// (and every queued request's latency) grow without bound when load
    /// exceeds what the dispatcher can drain.
    pub max_queue: usize,
    /// Deadline applied to every request that does not carry its own
    /// ([`RecommendRequest::deadline`]), measured from enqueue. A request
    /// still queued past its deadline is shed with
    /// [`SubmitError::DeadlineExpired`] before any scoring is spent on it;
    /// a picked-up batch grants its shard tasks 70% of its tightest member's
    /// remaining budget (the rest covers merging and delivery) and may come
    /// back [`degraded`](RecommendResponse::degraded). `None` (the default)
    /// leaves requests without their own deadline unbounded.
    pub default_deadline: Option<Duration>,
}

/// Fraction of a batch's tightest remaining deadline budget granted to its
/// shard tasks; the holdback covers merging, re-ranking and delivery.
const SHARD_BUDGET_FRACTION: f64 = 0.7;

impl Default for ServerConfig {
    fn default() -> Self {
        Self { max_batch: 64, coalesce_wait: Duration::from_micros(200), max_queue: 1024, default_deadline: None }
    }
}

/// Why [`RecServer::submit`] rejected a request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already held [`ServerConfig::max_queue`] requests; the
    /// request was shed to protect the latency of the admitted ones. The
    /// caller may retry (ideally with backoff).
    QueueFull {
        /// The configured bound the queue was at.
        max_queue: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline ([`RecommendRequest::deadline`] or
    /// [`ServerConfig::default_deadline`]) expired while it was still
    /// queued; the dispatcher shed it before spending any scoring work —
    /// by the time a result existed the caller would no longer want it.
    DeadlineExpired {
        /// How long the request had waited when it was shed.
        waited_micros: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { max_queue } => {
                write!(f, "request shed: queue at capacity ({max_queue})")
            }
            SubmitError::ShuttingDown => write!(f, "request rejected: server shutting down"),
            SubmitError::DeadlineExpired { waited_micros } => {
                write!(f, "request shed: deadline expired after {waited_micros}µs in queue")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One queued request and the slot its response will be delivered to.
struct Pending {
    request: RecommendRequest,
    enqueued: Instant,
    /// Absolute expiry (request override or server default), resolved at
    /// admission so the dispatcher's expiry check is one comparison.
    deadline: Option<Instant>,
    slot: Arc<ResponseSlot>,
}

/// A one-shot rendezvous between the submitting thread and the dispatcher.
/// Carries a `Result` so the dispatcher can answer an admitted request with
/// a post-admission rejection (deadline expiry) as well as a response.
struct ResponseSlot {
    filled: Mutex<Option<Result<RecommendResponse, SubmitError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self { filled: Mutex::new(None), ready: Condvar::new() }
    }

    fn deliver(&self, response: Result<RecommendResponse, SubmitError>) {
        // A poisoned slot means some earlier holder panicked; the Option
        // inside is still structurally sound, so recover it — refusing to
        // deliver would strand the submitter forever.
        *self.filled.lock().unwrap_or_else(PoisonError::into_inner) = Some(response);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<RecommendResponse, SubmitError> {
        let mut filled = self.filled.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(response) = filled.take() {
                return response;
            }
            // Condvar poisoning carries the same recoverable guard.
            filled = self.ready.wait(filled).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Cumulative request accounting, maintained unconditionally (wait-free
/// relaxed atomics — cheap enough to stay on even with telemetry disabled,
/// and the fix for the shed-visibility gap: before this, a rejected
/// `submit` was the only record a shed ever happened).
#[derive(Debug, Default)]
struct ServerCounters {
    admitted: Counter,
    shed: Counter,
    completed: Counter,
    panic_isolated: Counter,
    /// Requests shed in-queue at their deadline (the error budget's "never
    /// served" bucket).
    deadline_expired: Counter,
    /// Responses answered without every shard (the "served degraded"
    /// bucket).
    degraded: Counter,
    /// Shards dropped from a merge for missing their deadline budget.
    shard_deadline_miss: Counter,
    /// Shards dropped from a merge because their scoring task panicked.
    shard_panic: Counter,
    /// Batches drained from the queue.
    batches: Counter,
    /// Pickups that lingered for company before draining.
    lingered: Counter,
    queue_depth: Gauge,
}

/// Per-shard metric handles, resolved lazily per shard id.
#[derive(Debug, Clone)]
struct ShardMetrics {
    score_micros: Histogram,
    deadline_miss: Counter,
}

/// Histograms resolved once at server start when telemetry is enabled.
#[derive(Debug)]
struct ServeMetrics {
    queue_micros: Histogram,
    service_micros: Histogram,
    total_micros: Histogram,
    batch_size: Histogram,
    stage_batch_assembly: Histogram,
    stage_shard_score: Histogram,
    stage_merge: Histogram,
    stage_rerank: Histogram,
    stage_solo: Histogram,
    /// Lazily resolved per-shard handles (`serve_shard_{s}_score_micros`,
    /// `serve_shard_{s}_deadline_miss_total`), indexed by shard id — the
    /// attribution that makes a slow shard visible *by name* before the
    /// multi-node split lands.
    per_shard: Mutex<Vec<Option<ShardMetrics>>>,
}

impl ServeMetrics {
    /// Resolves the serving metric set (and registers the always-on
    /// counters) in `telemetry`'s registry; `None` when disabled.
    fn resolve(telemetry: &Telemetry, counters: &ServerCounters) -> Option<Self> {
        let registry = telemetry.registry()?;
        registry.register_counter("serve_requests_admitted_total", &counters.admitted);
        registry.register_counter("serve_requests_shed_total", &counters.shed);
        registry.register_counter("serve_requests_completed_total", &counters.completed);
        registry.register_counter("serve_requests_panic_isolated_total", &counters.panic_isolated);
        registry.register_counter("serve_requests_deadline_expired_total", &counters.deadline_expired);
        registry.register_counter("serve_responses_degraded_total", &counters.degraded);
        registry.register_counter("serve_shard_deadline_miss_total", &counters.shard_deadline_miss);
        registry.register_counter("serve_shard_panic_total", &counters.shard_panic);
        registry.register_counter("serve_batches_total", &counters.batches);
        registry.register_counter("serve_lingers_total", &counters.lingered);
        registry.register_gauge("serve_queue_depth", &counters.queue_depth);
        Some(Self {
            queue_micros: registry.histogram("serve_queue_micros"),
            service_micros: registry.histogram("serve_service_micros"),
            total_micros: registry.histogram("serve_total_micros"),
            batch_size: registry.histogram("serve_batch_size"),
            stage_batch_assembly: registry.histogram("serve_stage_batch_assembly_micros"),
            stage_shard_score: registry.histogram("serve_stage_shard_score_micros"),
            stage_merge: registry.histogram("serve_stage_merge_micros"),
            stage_rerank: registry.histogram("serve_stage_rerank_micros"),
            stage_solo: registry.histogram("serve_stage_solo_gemv_micros"),
            per_shard: Mutex::new(Vec::new()),
        })
    }

    /// The metric handles for one shard id (resolved in `telemetry`'s
    /// registry on first use, cached after).
    fn shard(&self, telemetry: &Telemetry, shard: usize) -> ShardMetrics {
        // The cache is a plain Vec of resolved handles — valid even if a
        // prior holder panicked, so recover from poisoning.
        let mut per_shard = self.per_shard.lock().unwrap_or_else(PoisonError::into_inner);
        if per_shard.len() <= shard {
            per_shard.resize(shard + 1, None);
        }
        per_shard[shard]
            .get_or_insert_with(|| {
                // ham-lint: allow(panic, "ServeMetrics is only constructed by resolve(), which requires a registry")
                let registry = telemetry.registry().expect("ServeMetrics exists only with telemetry enabled");
                ShardMetrics {
                    score_micros: registry.histogram(&format!("serve_shard_{shard}_score_micros")),
                    deadline_miss: registry.counter(&format!("serve_shard_{shard}_deadline_miss_total")),
                }
            })
            .clone()
    }
}

/// Cumulative server-side request accounting, as returned by
/// [`RecServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed at admission ([`SubmitError::QueueFull`]).
    pub shed: u64,
    /// Requests answered (every admitted request eventually is).
    pub completed: u64,
    /// Requests whose solo retry also panicked and were answered with an
    /// empty ranking (delivered with [`RecommendResponse::degraded`] set).
    pub panic_isolated: u64,
    /// Admitted requests shed in-queue at their deadline
    /// ([`SubmitError::DeadlineExpired`]).
    pub deadline_expired: u64,
    /// Responses served without every shard's answer
    /// ([`RecommendResponse::degraded`]).
    pub degraded: u64,
    /// Shard-batch scoring tasks dropped for missing their deadline budget.
    pub shard_deadline_misses: u64,
    /// Shard-batch scoring tasks dropped because they panicked.
    pub shard_panics: u64,
    /// Batches the dispatcher drained from the queue; `completed / batches`
    /// is the mean coalesced batch size.
    pub batches: u64,
    /// Pickups at which the dispatcher lingered up to
    /// [`ServerConfig::coalesce_wait`] for company before draining.
    pub lingered: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
}

struct ServerShared {
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Pending>>,
    arrived: Condvar,
    shutdown: AtomicBool,
    counters: ServerCounters,
    telemetry: Telemetry,
    metrics: Option<ServeMetrics>,
    faults: FaultInjector,
}

/// An embeddable online recommendation server: micro-batching queue,
/// sharded scoring, hot-swappable model.
///
/// `submit` is called from any number of client threads; one dispatcher
/// thread owns the draining loop. Dropping the server flushes the queue
/// (every accepted request is answered) and joins the dispatcher.
pub struct RecServer {
    shared: Arc<ServerShared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl RecServer {
    /// Starts the dispatcher for the models published in `registry`.
    /// Telemetry follows the environment (`HAM_TELEMETRY=1` lights up the
    /// metric set of [`Self::start_with_telemetry`]), and so does fault
    /// injection (`HAM_FAULTS=<spec>` arms the deterministic injector —
    /// test/chaos builds only; unset serves faithfully).
    pub fn start(registry: Arc<ModelRegistry>, config: ServerConfig) -> Self {
        Self::start_instrumented(registry, config, Telemetry::from_env(), FaultInjector::from_env())
    }

    /// [`Self::start`] with an explicit [`Telemetry`] handle. An enabled
    /// handle gets the always-on counters registered
    /// (`serve_requests_{admitted,shed,completed,panic_isolated}_total`,
    /// `serve_requests_deadline_expired_total`,
    /// `serve_responses_degraded_total`, `serve_shard_*_total`,
    /// `serve_batches_total`, `serve_lingers_total`, `serve_queue_depth`),
    /// per-request latency histograms
    /// (`serve_{queue,service,total}_micros`, `serve_batch_size`), stage
    /// histograms (`serve_stage_*_micros`), per-shard score histograms and
    /// per-request span trees in the handle's flight recorder.
    pub fn start_with_telemetry(registry: Arc<ModelRegistry>, config: ServerConfig, telemetry: Telemetry) -> Self {
        Self::start_instrumented(registry, config, telemetry, FaultInjector::from_env())
    }

    /// [`Self::start_with_telemetry`] with an explicit [`FaultInjector`] —
    /// the full-control constructor used by the chaos suite and benches to
    /// arm deterministic faults without going through the environment.
    pub fn start_instrumented(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
        telemetry: Telemetry,
        faults: FaultInjector,
    ) -> Self {
        assert!(config.max_batch > 0, "RecServer: max_batch must be positive");
        assert!(config.max_queue > 0, "RecServer: max_queue must be positive");
        let counters = ServerCounters::default();
        let metrics = ServeMetrics::resolve(&telemetry, &counters);
        let shared = Arc::new(ServerShared {
            registry,
            config,
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
            telemetry,
            metrics,
            faults,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ham-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&shared))
                // ham-lint: allow(panic, "startup, before any traffic — a server without a dispatcher cannot run")
                .expect("failed to spawn dispatcher")
        };
        Self { shared, dispatcher: Some(dispatcher) }
    }

    /// Submits a request and blocks until its response is ready, or returns
    /// a [`SubmitError`] **immediately** when the request cannot be
    /// admitted — the queue is at [`ServerConfig::max_queue`] (shed) or the
    /// server is shutting down. Every admitted request is guaranteed a
    /// response: admission and shutdown are decided under the queue lock,
    /// so a request can never slip in behind the dispatcher's final drain.
    ///
    /// Concurrent submitters are coalesced into shared scoring batches; a
    /// lone submitter is served solo via the exact GEMV path, without the
    /// coalescing linger.
    ///
    /// A request the model itself rejects (unknown user id, a history the
    /// query builder panics on) comes back with an **empty** item list
    /// rather than wedging the server — the dispatcher isolates the panic
    /// and keeps serving the rest of the batch and all later traffic.
    pub fn submit(&self, request: RecommendRequest) -> Result<RecommendResponse, SubmitError> {
        let slot = Arc::new(ResponseSlot::new());
        {
            // A poisoned queue lock means the dispatcher died mid-drain;
            // admitting would strand this request with no thread left to
            // answer it, so shed instead (PR 8's degradation contract:
            // reject loudly rather than hang quietly).
            let Ok(mut queue) = self.shared.queue.lock() else {
                self.shared.counters.shed.inc();
                return Err(SubmitError::ShuttingDown);
            };
            // Both checks must happen under the lock: shutdown is flipped
            // while holding it (see `shutdown`), so an admitted request is
            // visible to the dispatcher's exit check, which only fires on an
            // empty queue — enqueue-then-never-answered cannot happen.
            // ordering: SeqCst pairs with the stores in `shutdown` — the
            // flag is part of the queue-lock admission protocol and must be
            // totally ordered with respect to it.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.len() >= self.shared.config.max_queue {
                self.shared.counters.shed.inc();
                return Err(SubmitError::QueueFull { max_queue: self.shared.config.max_queue });
            }
            let now = Instant::now();
            let deadline = request.deadline.or(self.shared.config.default_deadline).map(|budget| now + budget);
            queue.push_back(Pending { request, enqueued: now, deadline, slot: Arc::clone(&slot) });
            self.shared.counters.admitted.inc();
            self.shared.counters.queue_depth.set(queue.len() as i64);
            self.shared.arrived.notify_all();
        }
        slot.wait()
    }

    /// Cumulative admitted/shed/completed/panic-isolated counts and the
    /// current queue depth. Counts are maintained wait-free whether or not
    /// telemetry is enabled, so shed traffic is observable server-side —
    /// not only by the caller whose `submit` was rejected.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.shared.counters.admitted.get(),
            shed: self.shared.counters.shed.get(),
            completed: self.shared.counters.completed.get(),
            panic_isolated: self.shared.counters.panic_isolated.get(),
            deadline_expired: self.shared.counters.deadline_expired.get(),
            degraded: self.shared.counters.degraded.get(),
            shard_deadline_misses: self.shared.counters.shard_deadline_miss.get(),
            shard_panics: self.shared.counters.shard_panic.get(),
            batches: self.shared.counters.batches.get(),
            lingered: self.shared.counters.lingered.get(),
            queue_depth: self.shared.counters.queue_depth.get().max(0) as usize,
        }
    }

    /// The telemetry handle the server records into (disabled unless
    /// [`Self::start_with_telemetry`] got an enabled one or the environment
    /// set `HAM_TELEMETRY=1`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Begins shutdown: subsequent [`Self::submit`] calls return
    /// [`SubmitError::ShuttingDown`], while every already-admitted request
    /// is still drained and answered. Dropping the server joins the
    /// dispatcher (and shuts down first if this was never called).
    pub fn shutdown(&self) {
        // Shutdown must proceed even if a panicking holder poisoned the
        // lock — the guard is only held to order the flag flip against
        // admission, and the flag itself is an atomic.
        let _queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: SeqCst pairs with the loads in `submit` and
        // `dispatch_loop`; the flag participates in the admission/drain
        // protocol and must not be reordered around the queue lock.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrived.notify_all();
    }

    /// Current number of published model versions (see [`ModelRegistry`]).
    pub fn model_version(&self) -> u64 {
        self.shared.registry.version()
    }
}

impl Drop for RecServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _unused = dispatcher.join();
        }
    }
}

fn dispatch_loop(shared: &ServerShared) {
    // One scratch for the dispatcher's lifetime: the batch-of-1 GEMV path
    // scores its shards into the same reused tiles — no score allocation per
    // request on the hot path.
    let mut scratch = ServeScratch::new();
    // The bulkhead executor for deadline-bounded shard scoring, spawned by
    // the first batch that needs it and reused for the dispatcher's life.
    let mut executor: Option<ShardExecutor> = None;
    // Whether the previous pickup took two or more requests: callers that
    // came together are likely to come back together.
    let mut company = false;
    loop {
        let batch = {
            // The dispatcher is the thread every admitted request depends
            // on: recover the queue from poisoning (it is a plain VecDeque,
            // structurally sound whatever a panicking holder was doing) —
            // dying here would strand the whole queue.
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            // Sleep until work arrives or shutdown (then drain what's left).
            while queue.is_empty() {
                // ordering: SeqCst pairs with the store in `shutdown`,
                // which happens under this queue lock — see `submit` for
                // the admission/drain protocol this flag belongs to.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.arrived.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
            // Linger once to coalesce concurrent submitters into this batch —
            // only when they are evidently there: a lone closed-loop caller
            // cannot send a second request while it waits for this one.
            if (company || queue.len() >= 2)
                && queue.len() < shared.config.max_batch
                && !shared.config.coalesce_wait.is_zero()
                // ordering: SeqCst, same pairing as the exit check above.
                && !shared.shutdown.load(Ordering::SeqCst)
            {
                let (returned, _timeout) = shared
                    .arrived
                    .wait_timeout(queue, shared.config.coalesce_wait)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = returned;
                shared.counters.lingered.inc();
            }
            let take = queue.len().min(shared.config.max_batch);
            company = take >= 2;
            let batch = queue.drain(..take).collect::<Vec<Pending>>();
            shared.counters.queue_depth.set(queue.len() as i64);
            batch
        };
        if batch.is_empty() {
            continue;
        }
        shared.counters.batches.inc();
        serve_batch(shared, batch, &mut scratch, &mut executor);
    }
}

/// How completely one request of a batch was served.
#[derive(Debug, Clone, Copy)]
struct ResponseMeta {
    degraded: bool,
    shards_answered: usize,
}

fn serve_batch(
    shared: &ServerShared,
    batch: Vec<Pending>,
    scratch: &mut ServeScratch,
    executor: &mut Option<ShardExecutor>,
) {
    let published = shared.registry.current();
    let picked_up = Instant::now();
    // Move the requests out of their queue entries — the batch is scored
    // from the originals, no per-request clone on the hot path. Requests
    // already past their deadline are shed here: by the time a result
    // existed the caller would have moved on, so scoring them would only
    // tax their batch-mates.
    let mut requests = Vec::with_capacity(batch.len());
    let mut waiters = Vec::with_capacity(batch.len());
    for pending in batch {
        if pending.deadline.is_some_and(|deadline| picked_up >= deadline) {
            let waited_micros = picked_up.duration_since(pending.enqueued).as_micros() as u64;
            shared.counters.deadline_expired.inc();
            pending.slot.deliver(Err(SubmitError::DeadlineExpired { waited_micros }));
            continue;
        }
        requests.push(pending.request);
        waiters.push((pending.enqueued, pending.deadline, pending.slot));
    }
    if requests.is_empty() {
        return;
    }
    // One plan for every batch; only the executor of its shard tasks
    // varies. A deadline (the tightest member's) or armed fault injection
    // puts them on the bulkhead executor, which can give up on a shard; a
    // deadline-free, fault-free batch runs them to completion on the pool
    // and pays nothing for the machinery it does not use.
    let batch_deadline = waiters.iter().filter_map(|(_, deadline, _)| *deadline).min();
    let run = if batch_deadline.is_some() || shared.faults.is_enabled() {
        // The bulkhead is spawned by the first batch that needs it, one
        // worker per shard up to 8, and kept for the dispatcher's life.
        let shards = published.model.catalog().num_shards();
        let executor = executor.get_or_insert_with(|| ShardExecutor::new(shards.clamp(1, 8)));
        let deadline = batch_deadline
            .map(|deadline| picked_up + deadline.saturating_duration_since(picked_up).mul_f64(SHARD_BUDGET_FRACTION));
        ShardRun::Bulkhead { executor, deadline, faults: &shared.faults }
    } else {
        ShardRun::Scoped(Some(global_pool()))
    };
    let mut trace = shared.metrics.as_ref().map(|_| StageTrace::new());
    let (rankings, metas) = serve_requests(shared, &published, &requests, run, scratch, trace.as_mut());
    let service_micros = picked_up.elapsed().as_micros() as u64;
    let batch_len = waiters.len() as u64;
    if let (Some(metrics), Some(trace)) = (&shared.metrics, &trace) {
        metrics.batch_size.record(batch_len);
        metrics.service_micros.record(service_micros);
        match trace.solo_micros {
            Some(solo) => metrics.stage_solo.record(solo),
            None => {
                metrics.stage_batch_assembly.record(trace.batch_assembly_micros);
                metrics.stage_shard_score.record(trace.max_shard_micros());
                metrics.stage_merge.record(trace.merge_micros);
                if trace.rerank_micros > 0 {
                    metrics.stage_rerank.record(trace.rerank_micros);
                }
            }
        }
        // Batches, and lone requests whose shard tasks left the dispatcher.
        for &(shard, micros) in &trace.shard_score_micros {
            metrics.shard(&shared.telemetry, shard).score_micros.record(micros);
        }
    }
    for (((enqueued, _deadline, slot), items), meta) in waiters.into_iter().zip(rankings).zip(metas) {
        let queue_micros = picked_up.duration_since(enqueued).as_micros() as u64;
        if let (Some(metrics), Some(trace)) = (&shared.metrics, &trace) {
            metrics.queue_micros.record(queue_micros);
            metrics.total_micros.record(queue_micros + service_micros);
            if let Some(flight) = shared.telemetry.flight() {
                flight.record(request_span_tree(queue_micros, service_micros, trace));
            }
        }
        if meta.degraded {
            shared.counters.degraded.inc();
        }
        // Count before delivering: `deliver` unblocks the submitter, which
        // may read `stats()` immediately — its own completion must already
        // be visible.
        shared.counters.completed.inc();
        slot.deliver(Ok(RecommendResponse {
            items,
            model_version: published.version,
            queue_micros,
            service_micros,
            degraded: meta.degraded,
            shards_answered: meta.shards_answered,
            clusters_probed: published.model.clusters_probed(),
        }));
    }
}

/// The dispatcher's plan for one batch: one traced scoring call, its shard
/// tasks run as `run` says, panic-isolated per batch then per request.
fn serve_requests(
    shared: &ServerShared,
    published: &PublishedModel,
    requests: &[RecommendRequest],
    run: ShardRun<'_>,
    scratch: &mut ServeScratch,
    trace: Option<&mut StageTrace>,
) -> (Vec<Vec<ScoredItem>>, Vec<ResponseMeta>) {
    let num_shards = published.model.catalog().num_shards();
    // A malformed request (unknown user, history the model rejects) panics
    // inside the model's query builder, and a catalogue the merge cannot
    // order panics in the coordinator. The dispatcher is the only serving
    // thread, so no panic may unwind it: every waiter in the batch would
    // block forever and the server would wedge. Catch the batch panic and
    // retry each request solo so one poisoned request cannot take down its
    // batch-mates.
    match catch_unwind(AssertUnwindSafe(|| published.model.recommend_batch_run(requests, run, scratch, trace))) {
        Ok((rankings, tally)) => {
            shared.counters.shard_deadline_miss.add(tally.timed_out.len() as u64);
            shared.counters.shard_panic.add(tally.panicked.len() as u64);
            if let Some(metrics) = &shared.metrics {
                for &shard in &tally.timed_out {
                    metrics.shard(&shared.telemetry, shard).deadline_miss.inc();
                }
            }
            let meta = ResponseMeta { degraded: tally.dropped() > 0, shards_answered: num_shards - tally.dropped() };
            (rankings, vec![meta; requests.len()])
        }
        Err(_) => {
            // The panic may have unwound between marking and clearing the
            // scratch's seen bitmap; restore the all-clear invariant before
            // the solo retries.
            scratch.reset();
            solo_retry(shared, published, requests, num_shards)
        }
    }
}

/// Per-request panic isolation: each request is retried alone (the
/// allocating path on purpose — this branch is cold), and a request that
/// still panics is answered with an empty ranking **flagged degraded** so
/// the caller can tell it apart from a genuinely empty result.
fn solo_retry(
    shared: &ServerShared,
    published: &PublishedModel,
    requests: &[RecommendRequest],
    num_shards: usize,
) -> (Vec<Vec<ScoredItem>>, Vec<ResponseMeta>) {
    let mut rankings = Vec::with_capacity(requests.len());
    let mut metas = Vec::with_capacity(requests.len());
    for request in requests {
        match catch_unwind(AssertUnwindSafe(|| published.model.recommend(request))) {
            Ok(items) => {
                rankings.push(items);
                metas.push(ResponseMeta { degraded: false, shards_answered: num_shards });
            }
            Err(_) => {
                shared.counters.panic_isolated.inc();
                rankings.push(Vec::new());
                metas.push(ResponseMeta { degraded: true, shards_answered: 0 });
            }
        }
    }
    (rankings, metas)
}

/// Shapes one request's timing into the flight-recorder span tree:
/// `request → {queue, service → {batch_assembly, shard_score → {shard_i…},
/// merge, rerank}}`, or `service → {solo_gemv → {shard_i…}}` on the
/// batch-of-1 path (shard children only when the request fanned out on the
/// pool). Each `shard_i` span covers that shard's whole task — scoring fused
/// with the in-task select, and before it the cluster routing when the
/// catalogue is clustered — and `merge` only the coordinator's k-way merges
/// (see [`StageTrace`]). Stage offsets are laid out sequentially from the
/// measured durations — parallel shard children share their parent's start
/// offset.
fn request_span_tree(queue_micros: u64, service_micros: u64, trace: &StageTrace) -> SpanTree {
    let with_shards = |stage: SpanTree, at: u64| {
        let shards = trace.shard_score_micros.iter();
        shards.fold(stage, |stage, &(s, micros)| stage.with_child(SpanTree::leaf(format!("shard_{s}"), at, micros)))
    };
    let mut service = SpanTree::leaf("service", queue_micros, service_micros);
    match trace.solo_micros {
        Some(solo) => {
            service = service.with_child(with_shards(SpanTree::leaf("solo_gemv", queue_micros, solo), queue_micros));
        }
        None => {
            let mut at = queue_micros;
            service = service.with_child(SpanTree::leaf("batch_assembly", at, trace.batch_assembly_micros));
            at += trace.batch_assembly_micros;
            let score_wall = trace.max_shard_micros();
            service = service.with_child(with_shards(SpanTree::leaf("shard_score", at, score_wall), at));
            at += score_wall;
            service = service.with_child(SpanTree::leaf("merge", at, trace.merge_micros));
            at += trace.merge_micros;
            if trace.rerank_micros > 0 {
                service = service.with_child(SpanTree::leaf("rerank", at, trace.rerank_micros));
            }
        }
    }
    SpanTree::leaf("request", 0, queue_micros + service_micros)
        .with_child(SpanTree::leaf("queue", 0, queue_micros))
        .with_child(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServingModel;
    use ham_tensor::Matrix;

    fn registry(num_items: usize) -> Arc<ModelRegistry> {
        let w = Matrix::from_vec(num_items, 2, (0..num_items * 2).map(|i| i as f32 * 0.01).collect());
        let model = ServingModel::from_parts("toy", &w, 3, |user, _| vec![1.0, user as f32 * 0.1]);
        Arc::new(ModelRegistry::new(model))
    }

    #[test]
    fn single_request_round_trip() {
        let server = RecServer::start(registry(20), ServerConfig::default());
        let response = server.submit(RecommendRequest::new(1, vec![19], 5)).expect("request admitted");
        assert_eq!(response.items.len(), 5);
        assert!(!response.items.iter().any(|s| s.item == 19), "seen item must be masked");
        assert_eq!(response.model_version, 1);
    }

    #[test]
    fn concurrent_submitters_all_get_exact_answers() {
        let registry = registry(50);
        let reference_model = registry.current();
        let server = Arc::new(RecServer::start(Arc::clone(&registry), ServerConfig::default()));
        let handles: Vec<_> = (0..8)
            .map(|user| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let request = RecommendRequest::new(user, vec![user, user + 10], 7);
                    (user, server.submit(request).expect("request admitted"))
                })
            })
            .collect();
        for handle in handles {
            let (user, response) = handle.join().unwrap();
            let expected = reference_model.model.recommend(&RecommendRequest::new(user, vec![user, user + 10], 7));
            let got: Vec<usize> = response.items.iter().map(|s| s.item).collect();
            let want: Vec<usize> = expected.iter().map(|s| s.item).collect();
            assert_eq!(got, want, "user {user}");
            assert!(response.total_micros() >= response.service_micros);
        }
    }

    #[test]
    fn hot_swap_during_traffic_switches_versions_without_pausing() {
        let registry = registry(30);
        let server = Arc::new(RecServer::start(Arc::clone(&registry), ServerConfig::default()));
        let first = server.submit(RecommendRequest::new(0, vec![], 3)).expect("request admitted");
        assert_eq!(first.model_version, 1);
        let w = Matrix::from_vec(30, 2, (0..60).map(|i| -(i as f32)).collect());
        registry.publish(ServingModel::from_parts("toy-v2", &w, 2, |_, _| vec![1.0, 0.0]));
        let second = server.submit(RecommendRequest::new(0, vec![], 3)).expect("request admitted");
        assert_eq!(second.model_version, 2);
        // v2 scores are descending in item id, so item 0 wins.
        assert_eq!(second.items[0].item, 0);
    }

    /// A request the model panics on must not wedge the dispatcher: the
    /// poisoned request gets an empty ranking and later traffic is served.
    #[test]
    fn poisoned_request_does_not_wedge_the_server() {
        let w = Matrix::from_vec(10, 1, (0..10).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("picky", &w, 2, |user, _| {
            assert!(user < 5, "unknown user {user}");
            vec![1.0]
        });
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), ServerConfig::default()));
        let poisoned = server.submit(RecommendRequest::new(99, vec![], 3)).expect("request admitted");
        assert!(poisoned.items.is_empty(), "rejected request answers empty, not hangs");
        assert!(poisoned.degraded, "a panic-isolated empty answer is flagged, not a silent empty list");
        assert_eq!(poisoned.shards_answered, 0);
        let healthy = server.submit(RecommendRequest::new(1, vec![], 3)).expect("request admitted");
        assert_eq!(healthy.items.len(), 3, "server keeps serving after a poisoned request");
        assert!(!healthy.degraded, "healthy responses are not flagged");
        assert_eq!(server.stats().degraded, 1);
    }

    /// An admitted request whose deadline passes while it is still queued is
    /// shed with an explicit reason instead of being served late.
    #[test]
    fn expired_in_queue_requests_are_shed_with_deadline_reason() {
        // A slow model (2ms per query) with max_batch 1 so a burst queues.
        let w = Matrix::from_vec(16, 1, (0..16).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("slow", &w, 2, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            vec![1.0]
        });
        let config = ServerConfig { max_batch: 1, coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
        let barrier = Arc::new(std::sync::Barrier::new(12));
        let handles: Vec<_> = (0..12)
            .map(|user| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // 4ms deadline against ~2ms service: the first couple of
                    // requests fit, the back of the queue cannot.
                    server.submit(RecommendRequest::new(user % 8, vec![], 3).with_deadline(Duration::from_millis(4)))
                })
            })
            .collect();
        let mut served = 0u64;
        let mut expired = 0u64;
        for handle in handles {
            match handle.join().expect("submitter panicked") {
                Ok(response) => {
                    // A request picked up close to its deadline may come back
                    // degraded (the 2ms query build eats its shard budget);
                    // an un-degraded answer must be complete.
                    if !response.degraded {
                        assert_eq!(response.items.len(), 3, "un-degraded requests are complete");
                    }
                    served += 1;
                }
                Err(SubmitError::DeadlineExpired { waited_micros }) => {
                    assert!(waited_micros >= 4_000, "a shed request waited at least its deadline");
                    expired += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(served + expired, 12);
        assert!(expired > 0, "a 12-deep queue at 2ms/request must expire 4ms deadlines");
        assert!(served > 0, "the front of the queue fits its deadline");
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, expired, "server ledger counts every expiry");
        assert_eq!(stats.completed, served);
    }

    /// A healthy model under a generous deadline takes the bounded path and
    /// still answers exactly: complete, un-degraded, all shards accounted.
    #[test]
    fn bounded_path_with_generous_deadline_is_not_degraded() {
        let registry = registry(50);
        let reference = registry.current();
        let server = RecServer::start(Arc::clone(&registry), ServerConfig::default());
        for user in 0..8 {
            let request = RecommendRequest::new(user, vec![user, user + 10], 7);
            let expected = reference.model.recommend(&request);
            let response = server.submit(request.with_deadline(Duration::from_secs(5))).expect("request admitted");
            assert!(!response.degraded);
            assert_eq!(response.shards_answered, 3, "all shards answered");
            let got: Vec<usize> = response.items.iter().map(|s| s.item).collect();
            let want: Vec<usize> = expected.iter().map(|s| s.item).collect();
            assert_eq!(got, want, "bounded path is bit-identical for user {user}");
        }
        assert_eq!(server.stats().degraded, 0);
    }

    #[test]
    fn shutdown_flushes_accepted_requests() {
        let server =
            RecServer::start(registry(10), ServerConfig { coalesce_wait: Duration::ZERO, ..Default::default() });
        let response = server.submit(RecommendRequest::new(0, vec![], 2)).expect("request admitted");
        drop(server);
        assert_eq!(response.items.len(), 2);
    }

    #[test]
    fn submit_after_shutdown_is_rejected_with_reason() {
        let server = RecServer::start(registry(10), ServerConfig::default());
        server.shutdown();
        let rejected = server.submit(RecommendRequest::new(0, vec![], 2));
        assert_eq!(rejected.err(), Some(SubmitError::ShuttingDown));
    }

    /// Flooding past `max_queue` sheds with an explicit reason while every
    /// admitted request completes with a full ranking.
    #[test]
    fn flood_past_capacity_sheds_and_answers_the_admitted() {
        // A deliberately slow model (1ms per query) with a tiny queue, so a
        // burst of 24 concurrent submitters reliably overflows it.
        let w = Matrix::from_vec(16, 1, (0..16).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("slow", &w, 1, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            vec![1.0]
        });
        let config =
            ServerConfig { max_batch: 1, coalesce_wait: Duration::ZERO, max_queue: 4, ..ServerConfig::default() };
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
        let barrier = Arc::new(std::sync::Barrier::new(24));
        let handles: Vec<_> = (0..24)
            .map(|user| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    server.submit(RecommendRequest::new(user % 8, vec![], 3))
                })
            })
            .collect();
        let mut admitted = 0usize;
        let mut shed = 0usize;
        for handle in handles {
            match handle.join().expect("submitter panicked") {
                Ok(response) => {
                    assert_eq!(response.items.len(), 3, "admitted requests must complete fully");
                    admitted += 1;
                }
                Err(SubmitError::QueueFull { max_queue }) => {
                    assert_eq!(max_queue, 4, "the shed reason names the configured bound");
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(admitted + shed, 24);
        assert!(shed > 0, "a 24-request burst into a 4-slot queue must shed");
        assert!(admitted > 0, "some requests must be admitted");
        // The server-side ledger agrees with what the callers saw — the
        // shed-visibility fix: sheds are now recorded where they happen.
        let stats = server.stats();
        assert_eq!(stats.admitted, admitted as u64, "server counted every admission");
        assert_eq!(stats.shed, shed as u64, "server counted every shed");
        assert_eq!(stats.completed, admitted as u64, "every admitted request completed (submit blocks on delivery)");
        assert_eq!(stats.panic_isolated, 0, "no request panicked");
        assert_eq!(stats.queue_depth, 0, "queue drained once all submitters returned");
    }

    /// A toy model whose query builder takes 2ms: requests released
    /// together pile up in the queue while the dispatcher serves the first.
    fn slow_model() -> ServingModel {
        let w = Matrix::from_vec(40, 2, (0..80).map(|i| i as f32 * 0.01).collect());
        ServingModel::from_parts("slow", &w, 4, |user, _| {
            assert!(user < 30, "unknown user {user}");
            std::thread::sleep(Duration::from_millis(2));
            vec![1.0, user as f32 * 0.1]
        })
    }

    fn slow_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(slow_model()))
    }

    /// `submitters` threads released together by a barrier, each submitting
    /// one request for its own user; returns the requests with their answers.
    fn burst(server: &Arc<RecServer>, submitters: usize) -> Vec<(RecommendRequest, RecommendResponse)> {
        let barrier = Arc::new(std::sync::Barrier::new(submitters));
        let handles: Vec<_> = (0..submitters)
            .map(|user| {
                let (server, barrier) = (Arc::clone(server), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let request = RecommendRequest::new(user, vec![user, user + 10], 5);
                    barrier.wait();
                    (request.clone(), server.submit(request).expect("request admitted"))
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("submitter panicked")).collect()
    }

    /// A lone closed-loop caller never waits on the linger: with a 1s
    /// `coalesce_wait`, fifty sequential requests are fifty batches, none of
    /// them lingered, and all fifty finish well inside one linger.
    #[test]
    fn a_lone_caller_is_served_without_lingering() {
        let config = ServerConfig { coalesce_wait: Duration::from_secs(1), ..ServerConfig::default() };
        let server = RecServer::start(registry(20), config);
        let started = Instant::now();
        for user in 0..50 {
            let response = server.submit(RecommendRequest::new(user % 5, vec![19], 5)).expect("request admitted");
            assert_eq!(response.items.len(), 5);
        }
        let elapsed = started.elapsed();
        let stats = server.stats();
        assert_eq!((stats.batches, stats.lingered), (50, 0), "one batch per request, no linger");
        assert!(elapsed < Duration::from_secs(1), "50 lone requests took {elapsed:?}");
    }

    /// Callers that arrive together still coalesce: requests piled up behind
    /// a slow first batch make the next pickup linger and take them at once,
    /// and every coalesced answer is the exact one — with a deadline (shard
    /// tasks on the bulkhead) or without, on a flat, an int8 and a clustered
    /// (`nprobe = all`) catalogue.
    #[test]
    fn concurrent_callers_coalesce_and_stay_exact() {
        let tiers: [fn(ServingModel) -> ServingModel; 3] = [
            |model| model,
            ServingModel::with_quantized_catalog,
            |model| model.with_cluster_index(&crate::IvfConfig::auto()),
        ];
        let ids = |items: &[ScoredItem]| items.iter().map(|s| s.item).collect::<Vec<_>>();
        for default_deadline in [None, Some(Duration::from_secs(5))] {
            for (tier, freeze) in ["flat", "int8", "ivf"].into_iter().zip(tiers) {
                let registry = Arc::new(ModelRegistry::new(freeze(slow_model())));
                let reference = registry.current();
                let config = ServerConfig { default_deadline, ..ServerConfig::default() };
                let server = Arc::new(RecServer::start(Arc::clone(&registry), config));
                let case = format!("{tier}, deadline {default_deadline:?}");
                for (request, response) in burst(&server, 8) {
                    let want = ids(&reference.model.recommend(&request));
                    assert_eq!(ids(&response.items), want, "{case}, user {}", request.user);
                    assert!(!response.degraded && response.shards_answered == 4, "{case}: {response:?}");
                }
                let stats = server.stats();
                assert_eq!(stats.completed, 8);
                assert!(stats.batches < 8, "{case}: 8 concurrent requests were served one by one");
                assert!(stats.lingered >= 1, "{case}: a queue of several requests never lingered for company");
            }
        }
    }

    /// The telemetry-enabled path: counters and stage histograms populate,
    /// panic isolation is counted, and the flight recorder holds span trees
    /// with the documented stage hierarchy.
    #[test]
    fn telemetry_records_latencies_spans_and_panic_isolation() {
        let telemetry = Telemetry::with_flight_capacity(8);
        let server = Arc::new(RecServer::start_with_telemetry(
            slow_registry(),
            ServerConfig { coalesce_wait: Duration::from_millis(4), ..ServerConfig::default() },
            telemetry.clone(),
        ));
        // A barrier-released burst against the slow builder, so the requests
        // behind the first pile up and a multi-request batch forms.
        let answers = burst(&server, 6);
        assert!(answers.iter().all(|(_, response)| response.items.len() == 5));
        let poisoned = server.submit(RecommendRequest::new(99, vec![], 3)).expect("admitted");
        assert!(poisoned.items.is_empty());

        let stats = server.stats();
        assert_eq!(stats.admitted, 7);
        assert_eq!(stats.completed, 7);
        assert_eq!(stats.panic_isolated, 1, "the poisoned request was isolated and counted");

        let snap = telemetry.snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("serve_requests_admitted_total"), Some(7));
        assert_eq!(snap.counter("serve_requests_panic_isolated_total"), Some(1));
        assert_eq!(snap.histogram("serve_total_micros").map(|h| h.count), Some(7), "one total sample per request");
        assert_eq!(snap.histogram("serve_queue_micros").map(|h| h.count), Some(7));
        assert!(snap.histogram("serve_batch_size").is_some_and(|h| h.count >= 2 && h.max >= 2), "no batch coalesced");
        assert_eq!(snap.counter("serve_batches_total"), Some(stats.batches));
        assert_eq!(snap.counter("serve_lingers_total"), Some(stats.lingered));

        let flight = telemetry.flight().expect("telemetry enabled");
        assert!(!flight.is_empty(), "served requests left span trees in the ring");
        let tree = flight.slowest().expect("at least one tree");
        assert_eq!(tree.name, "request");
        assert!(tree.find("queue").is_some() && tree.find("service").is_some());
        // Every tree ends in either the solo GEMV stage or the batch stages.
        for tree in flight.last(8) {
            assert!(
                tree.find("solo_gemv").is_some() || tree.find("shard_score").is_some(),
                "unexpected span shape:\n{}",
                tree.render()
            );
        }
    }

    /// The shutdown race: a request admitted concurrently with shutdown must
    /// still receive a response (admission and the shutdown flag share the
    /// queue lock, so the dispatcher's final drain cannot miss it). Repeated
    /// loom-style: many iterations of submitters racing `shutdown()`.
    #[test]
    fn racing_shutdown_never_strands_an_admitted_request() {
        for round in 0u64..200 {
            let server = RecServer::start(
                registry(12),
                ServerConfig { coalesce_wait: Duration::ZERO, max_batch: 2, ..Default::default() },
            );
            std::thread::scope(|scope| {
                for submitter in 0..2 {
                    let server = &server;
                    scope.spawn(move || {
                        for user in 0..20 {
                            match server.submit(RecommendRequest::new((submitter + user) % 5, vec![], 2)) {
                                // every admitted request must come back whole
                                Ok(response) => assert_eq!(response.items.len(), 2),
                                Err(SubmitError::ShuttingDown) => return,
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                    });
                }
                let server = &server;
                scope.spawn(move || {
                    // vary the interleaving between instant and late shutdown
                    if round % 3 != 0 {
                        std::thread::sleep(Duration::from_micros((round % 7) * 13));
                    }
                    server.shutdown();
                });
            });
            // drop joins the dispatcher; reaching the next iteration proves
            // no submitter hung on a stranded slot
        }
    }
}
