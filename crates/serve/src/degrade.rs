//! Deadline-bounded, fault-isolated shard scoring — the graceful-degradation
//! path of the serving layer.
//!
//! The classic scoring path (`ServingModel::recommend_batch_traced`) runs
//! every shard to completion on the caller or the shared work-stealing pool:
//! correct and fast, but a shard that stalls (or panics on a worker) holds
//! the whole batch hostage — there is no way to abandon a `pool.scope` that
//! has not finished. This module adds the bounded alternative the server
//! routes to whenever a batch carries a deadline or fault injection is armed:
//!
//! * a dedicated **bulkhead executor** ([`ShardExecutor`]) scores shard
//!   blocks on its own threads, so a stalled shard task never occupies the
//!   process-wide pool other subsystems (training, evaluation) share;
//! * the batch coordinator waits for shard results **only until the shard
//!   deadline**; shards that miss it (or panic) are dropped and the k-way
//!   merge runs over the survivors — a bounded, *flagged* degradation
//!   ([`BoundedOutcome::degraded`]) instead of a hang or a silent lie;
//! * abandoned tasks observe a cancellation flag and bail out of injected
//!   delays and scoring work within ~1ms, so a backlog of timed-out shard
//!   tasks drains quickly instead of wedging the executor.
//!
//! ## Exactness when nothing degrades
//!
//! When every shard answers within budget, the result is **bit-identical to
//! the classic path**: every shard task makes the classic path's own
//! per-shard ranking call (`ShardedCatalog::rank_shard` — GEMV for a batch of
//! one, packed-panel GEMM tiles otherwise, int8 on a quantized catalogue,
//! cluster-routed on a clustered one), the k-way merge is the very function
//! the classic path uses, and the quantized pre-selection re-ranks through
//! the same exact f32 kernel. The chaos suite pins this: under any injected
//! single-shard fault, a response is either bit-identical to the exact path
//! or explicitly flagged degraded.

use crate::shard::{quantize_rows, select_widths, ScoredItem, ShardedCatalog};
use ham_core::SeenMask;
use ham_data::dataset::ItemId;
use ham_faults::FaultInjector;
use ham_tensor::{Matrix, QuantizedQuery};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// A dedicated thread pool for deadline-bounded shard scoring.
///
/// Deliberately **not** the process-wide work-stealing pool: its `scope`
/// blocks until every task finishes, which is exactly the semantics a
/// deadline must escape, and a slow shard parked on a shared worker would
/// starve unrelated work. This bulkhead owns its backlog; abandoned tasks
/// self-cancel (see [`ShardedCatalog::rank_shard_faulted`]) so the
/// queue drains even under sustained shard slowness.
pub(crate) struct ShardExecutor {
    shared: Arc<ExecutorShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type Task = Box<dyn FnOnce() + Send>;

struct ExecutorShared {
    /// (task queue, shutdown flag) under one lock so workers can check both.
    tasks: Mutex<(VecDeque<Task>, bool)>,
    arrived: Condvar,
}

impl ShardExecutor {
    /// Spawns `workers.max(1)` bulkhead threads.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(ExecutorShared { tasks: Mutex::new((VecDeque::new(), false)), arrived: Condvar::new() });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ham-shard-exec-{i}"))
                    .spawn(move || loop {
                        let task = {
                            // The (queue, flag) tuple stays structurally
                            // sound whatever a holder was doing when it
                            // panicked; recover rather than lose a bulkhead
                            // worker to someone else's poison.
                            let mut guard = shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
                            loop {
                                if let Some(task) = guard.0.pop_front() {
                                    break task;
                                }
                                if guard.1 {
                                    return;
                                }
                                guard = shared.arrived.wait(guard).unwrap_or_else(PoisonError::into_inner);
                            }
                        };
                        // Tasks contain their own catch_unwind; a panic never
                        // reaches (and never kills) the worker.
                        task();
                    })
                    // ham-lint: allow(panic, "bulkhead startup, before any batch is scored — cannot serve without workers")
                    .expect("failed to spawn shard executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    fn submit(&self, task: Task) {
        // Recoverable for the same reason as the worker loop: the tuple is
        // plain data, and a submit that panicked here would cascade into a
        // degraded batch for an unrelated coordinator.
        let mut guard = self.shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.push_back(task);
        self.shared.arrived.notify_one();
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
            guard.1 = true;
            // Unsubmitted work is dropped: the only caller joins every batch
            // before shutdown, so anything still queued here was cancelled.
            guard.0.clear();
            self.shared.arrived.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _unused = worker.join();
        }
    }
}

/// What one shard task reported back to its batch.
enum SlotState {
    /// Task not finished (yet, or ever — the batch stops waiting at the
    /// deadline regardless).
    Pending,
    /// Per-request shortlists ranked in-task + the task's wall time
    /// (scoring and select) in microseconds.
    Ranked(Vec<Vec<ScoredItem>>, u64),
    /// The task panicked (injected or organic); the shard is dropped.
    Panicked,
    /// The task observed cancellation and skipped its work.
    Skipped,
}

/// The rendezvous between a batch coordinator and its shard tasks.
struct SlotBoard {
    slots: Mutex<Vec<SlotState>>,
    done: Condvar,
    cancelled: AtomicBool,
}

impl SlotBoard {
    fn new(shards: usize) -> Self {
        Self {
            slots: Mutex::new((0..shards).map(|_| SlotState::Pending).collect()),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }

    fn fill(&self, shard: usize, state: SlotState) {
        // Shard tasks can panic (that is the point of the bulkhead), so the
        // board lock can be poisoned by a sibling — the Vec of slots is
        // still valid, and already-filled results must not be thrown away.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        // A cancelled task can report after the coordinator has already
        // drained the board; its slot is gone and the result is discarded.
        // Indexing here would panic *outside* the task's catch_unwind and
        // kill a bulkhead worker.
        if let Some(slot) = slots.get_mut(shard) {
            *slot = state;
        }
        self.done.notify_all();
    }

    fn cancelled(&self) -> bool {
        // ordering: Relaxed — an advisory flag with no data published
        // alongside it; a task that misses the very latest value just does
        // some wasted scoring before its result is discarded.
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Blocks until every slot is non-pending, or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) {
        // Poison recovery mirrors `fill`: slots a panicked sibling never
        // filled stay Pending and are counted into the degraded response —
        // exactly the contract this module exists to provide.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !slots.iter().any(|s| matches!(s, SlotState::Pending)) {
                return;
            }
            match deadline {
                None => slots = self.done.wait(slots).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return;
                    }
                    let (returned, _timeout) =
                        self.done.wait_timeout(slots, deadline - now).unwrap_or_else(PoisonError::into_inner);
                    slots = returned;
                }
            }
        }
    }
}

/// The result of one deadline-bounded batch.
pub(crate) struct BoundedOutcome {
    /// Per-request rankings over the surviving shards, batch order.
    pub rankings: Vec<Vec<ScoredItem>>,
    /// Shards whose scores made it into the merge (empty shards count — they
    /// answer vacuously).
    pub shards_answered: usize,
    /// Total shards in the catalogue.
    pub shards_total: usize,
    /// Shard ids dropped because they missed the deadline budget.
    pub timed_out: Vec<usize>,
    /// Shard ids dropped because their scoring task panicked.
    pub panicked: Vec<usize>,
    /// `(shard id, scoring micros)` of the shards that answered in time.
    pub shard_micros: Vec<(usize, u64)>,
    /// Wall time of the k-way merges over the survivors, microseconds.
    pub merge_micros: u64,
    /// Wall time of the exact re-rank (quantized catalogues only).
    pub rerank_micros: u64,
}

impl BoundedOutcome {
    /// Whether any shard was dropped from the merge.
    pub fn degraded(&self) -> bool {
        self.shards_answered < self.shards_total
    }
}

/// Scores `queries` against every shard on the bulkhead executor, waits at
/// most until `shard_deadline` (forever when `None` — then only panics can
/// degrade), and ranks each request over the shards that answered.
///
/// `seen_items[i]` / `ks[i]` follow the same per-row convention as the
/// classic batched path.
pub(crate) fn score_bounded(
    catalog: &Arc<ShardedCatalog>,
    queries: Matrix,
    ks: &[usize],
    seen_items: &[Option<&[ItemId]>],
    executor: &ShardExecutor,
    shard_deadline: Option<Instant>,
    faults: &FaultInjector,
) -> BoundedOutcome {
    let b = queries.rows();
    let shards_total = catalog.num_shards();
    let quantized = catalog.is_quantized();
    let qqueries: Option<Arc<Vec<QuantizedQuery>>> = quantized.then(|| Arc::new(quantize_rows(&queries)));
    let queries = Arc::new(queries);
    // Shard tasks are 'static closures, so the per-request ranking inputs
    // they need — the pre-selection widths and owned copies of the seen
    // histories — ride along behind Arcs (O(total history) copied once per
    // batch).
    let select_ks: Arc<Vec<usize>> = Arc::new(select_widths(ks, quantized));
    let owned_seen: Arc<Vec<Option<Vec<ItemId>>>> =
        Arc::new(seen_items.iter().map(|items| items.map(<[ItemId]>::to_vec)).collect());
    let board = Arc::new(SlotBoard::new(shards_total));
    for shard in 0..shards_total {
        if catalog.shards()[shard].is_empty() {
            // An empty shard answers vacuously — no task, no fault surface.
            board.fill(shard, SlotState::Ranked(vec![Vec::new(); b], 0));
            continue;
        }
        let catalog = Arc::clone(catalog);
        let queries = Arc::clone(&queries);
        let qqueries = qqueries.clone();
        let select_ks = Arc::clone(&select_ks);
        let owned_seen = Arc::clone(&owned_seen);
        let board = Arc::clone(&board);
        let faults = faults.clone();
        executor.submit(Box::new(move || {
            if board.cancelled() {
                board.fill(shard, SlotState::Skipped);
                return;
            }
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                catalog.rank_shard_faulted(
                    shard,
                    &queries,
                    qqueries.as_deref().map(Vec::as_slice),
                    &select_ks,
                    &owned_seen,
                    &faults,
                    &|| board.cancelled(),
                )
            }));
            let state = match result {
                Ok(Some(lists)) => SlotState::Ranked(lists, started.elapsed().as_micros() as u64),
                Ok(None) => SlotState::Skipped,
                Err(_) => SlotState::Panicked,
            };
            board.fill(shard, state);
        }));
    }
    board.wait(shard_deadline);
    // Whatever is still pending has missed the budget: flip the cancellation
    // flag so those tasks drain cheaply, then classify the slots.
    // ordering: Relaxed — advisory-only; see `SlotBoard::cancelled`.
    board.cancelled.store(true, Ordering::Relaxed);
    let slots = {
        // Recover from a panicked shard task's poison; unfilled slots read
        // as Pending below and become part of the degraded answer.
        let mut slots = board.slots.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *slots)
    };
    let mut survivors: Vec<Vec<Vec<ScoredItem>>> = Vec::with_capacity(shards_total);
    let mut timed_out = Vec::new();
    let mut panicked = Vec::new();
    let mut shard_micros = Vec::new();
    for (shard, state) in slots.into_iter().enumerate() {
        match state {
            SlotState::Ranked(lists, micros) => {
                shard_micros.push((shard, micros));
                survivors.push(lists);
            }
            SlotState::Panicked => panicked.push(shard),
            SlotState::Pending | SlotState::Skipped => timed_out.push(shard),
        }
    }
    let shards_answered = survivors.len();

    // Merge each request over the surviving shards' shortlists — the same
    // k-way merge and (quantized) exact re-rank as the classic path,
    // restricted to the shards that answered.
    let merge_started = Instant::now();
    let mut rerank_seen = quantized.then(SeenMask::default);
    let (rankings, rerank_micros) =
        catalog.merge_shortlists(survivors, &queries, ks, seen_items, rerank_seen.as_mut(), true);
    let merge_micros = (merge_started.elapsed().as_micros() as u64).saturating_sub(rerank_micros);

    BoundedOutcome {
        rankings,
        shards_answered,
        shards_total,
        timed_out,
        panicked,
        shard_micros,
        merge_micros,
        rerank_micros,
    }
}
