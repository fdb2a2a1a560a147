//! The bulkhead arm of the shard fan-out — deadline-bounded, fault-isolated
//! shard scoring, the graceful-degradation path of the serving layer.
//!
//! Every request is served by one plan (`ShardedCatalog::rank_batch`): build
//! the queries, rank every shard in a task of its own, merge the shortlists.
//! Only the executor of the shard tasks varies. The scoped arm runs them to
//! completion on the caller or the shared work-stealing pool: correct and
//! fast, but a shard that stalls (or panics on a worker) holds the whole
//! batch hostage — there is no way to abandon a `pool.scope` that has not
//! finished. The server picks this module's arm instead whenever a batch
//! carries a deadline or fault injection is armed:
//!
//! * a dedicated **bulkhead executor** ([`ShardExecutor`]) runs the shard
//!   tasks on its own threads, so a stalled shard task never occupies the
//!   process-wide pool other subsystems (training, evaluation) share;
//! * the coordinator waits for shard results **only until the shard
//!   deadline**; shards that miss it (or panic) are left out and the k-way
//!   merge runs over the survivors — a bounded, *flagged* degradation
//!   (`RecommendResponse::degraded`) instead of a hang or a silent lie;
//! * abandoned tasks observe a cancellation flag and bail out of injected
//!   delays and scoring work within ~1ms, so a backlog of timed-out shard
//!   tasks drains quickly instead of wedging the executor.
//!
//! ## Exactness when nothing degrades
//!
//! When every shard answers within budget, the result is **bit-identical to
//! the scoped arm**: every shard task makes the scoped arm's own per-shard
//! ranking call (`ShardedCatalog::rank_shard` — GEMV for a batch of one,
//! packed-panel GEMM tiles otherwise, int8 on a quantized catalogue,
//! cluster-routed on a clustered one), and the k-way merge and the
//! quantized exact re-rank are one call made after either arm. The chaos
//! suite pins this: under any injected single-shard fault, a response is
//! either bit-identical to the exact path or explicitly flagged degraded.

use crate::shard::{ShardTally, ShardedCatalog, Shortlists};
use ham_data::dataset::ItemId;
use ham_faults::{FaultInjector, ShardFault};
use ham_tensor::{Matrix, QuantizedQuery};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A dedicated thread pool for deadline-bounded shard scoring.
///
/// Deliberately **not** the process-wide work-stealing pool: its `scope`
/// blocks until every task finishes, which is exactly the semantics a
/// deadline must escape, and a slow shard parked on a shared worker would
/// starve unrelated work. This bulkhead owns its backlog; abandoned tasks
/// self-cancel (see `BoundedBatch::run`) so the queue drains even under
/// sustained shard slowness.
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
    Ranked(Shortlists, u64),
    /// The task panicked (injected or organic); the shard is dropped.
    Panicked,
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

    /// Gives up on the tasks still pending — flips the cancellation flag so
    /// they drain cheaply — and takes every slot's state.
    fn cancel(&self) -> Vec<SlotState> {
        // ordering: Relaxed — advisory-only; see `cancelled`.
        self.cancelled.store(true, Ordering::Relaxed);
        // Recover from a panicked shard task's poison; unfilled slots read
        // as Pending and become part of the degraded answer.
        std::mem::take(&mut *self.slots.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Blocks until every slot is non-pending, or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) {
        // Poison recovery mirrors `fill`: slots a panicked sibling never
        // filled stay Pending and are counted into the degraded response —
        // exactly the contract this module exists to provide.
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let pending = |slots: &mut Vec<SlotState>| slots.iter().any(|s| matches!(s, SlotState::Pending));
        let _done = match deadline {
            None => self.done.wait_while(slots, pending).unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let budget = deadline.saturating_duration_since(Instant::now());
                self.done.wait_timeout_while(slots, budget, pending).unwrap_or_else(PoisonError::into_inner).0
            }
        };
    }
}

/// One bounded batch as its shard tasks see it. A task that misses the
/// deadline outlives its batch, so it owns what it reads: a catalogue handle
/// (a cheap clone) and copies of the ranking inputs (O(batch + total
/// history), once per batch).
struct BoundedBatch {
    catalog: ShardedCatalog,
    queries: Matrix,
    qqueries: Option<Vec<QuantizedQuery>>,
    select_ks: Vec<usize>,
    seen_items: Vec<Option<Vec<ItemId>>>,
    faults: FaultInjector,
    board: SlotBoard,
}

impl BoundedBatch {
    /// Shard `shard`'s task: the fault prelude, then the scoped arm's own
    /// per-shard call (`ShardedCatalog::rank_shard`), so an undegraded
    /// bounded response is bit-identical to a scoped one. A task the batch
    /// already gave up on skips its work, and so does one whose injected
    /// delay outlasts the batch — it sleeps in ~1ms slices, so it stops
    /// clogging the executor within ~1ms, not `delay`. A panic, injected or
    /// organic, is caught and reported instead of unwinding into the worker.
    fn run(&self, shard: usize) {
        let board = &self.board;
        if board.cancelled() {
            return;
        }
        let started = Instant::now();
        let ranked = catch_unwind(AssertUnwindSafe(|| {
            match self.faults.shard_fault(shard) {
                Some(ShardFault::Delay(delay)) => {
                    let until = started + delay;
                    while let Some(left) = until.checked_duration_since(Instant::now()).filter(|_| !board.cancelled()) {
                        std::thread::sleep(left.min(Duration::from_millis(1)));
                    }
                }
                Some(ShardFault::Panic) => panic!("ham-faults: injected panic in shard {shard}"),
                None => {}
            }
            let (queries, qqueries) = (&self.queries, self.qqueries.as_deref());
            let rank = || {
                self.catalog.rank_shard(shard, queries, qqueries, &self.select_ks, &self.seen_items, &mut Vec::new())
            };
            (!board.cancelled()).then(rank)
        }));
        // A skipped task's slot is gone with its batch; it reports nothing.
        match ranked {
            Ok(Some(lists)) => board.fill(shard, SlotState::Ranked(lists, started.elapsed().as_micros() as u64)),
            Ok(None) => {}
            Err(_) => board.fill(shard, SlotState::Panicked),
        }
    }
}

impl ShardExecutor {
    /// The bulkhead arm of the shard fan-out (`ShardRun::Bulkhead`): ranks
    /// every non-empty shard of `catalog` in a task of its own on this
    /// executor and waits for them until `deadline` (forever when `None` —
    /// then only panics can degrade), then gives up on the rest. Returns each
    /// shard's shortlists (`None` for a shard left out; an empty shard
    /// answers vacuously, with no task and no fault surface), the answered
    /// tasks' wall times as `(shard, micros)`, and the tally.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rank_shards(
        &self,
        catalog: &ShardedCatalog,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        deadline: Option<Instant>,
        faults: &FaultInjector,
    ) -> (Vec<Option<Shortlists>>, Vec<(usize, u64)>, ShardTally) {
        let shards = catalog.num_shards();
        let batch = Arc::new(BoundedBatch {
            catalog: catalog.clone(),
            queries: queries.clone(),
            qqueries: qqueries.map(<[QuantizedQuery]>::to_vec),
            select_ks: select_ks.to_vec(),
            seen_items: seen_items.iter().map(|items| items.map(<[ItemId]>::to_vec)).collect(),
            faults: faults.clone(),
            board: SlotBoard::new(shards),
        });
        for shard in 0..shards {
            if catalog.shards()[shard].is_empty() {
                batch.board.fill(shard, SlotState::Ranked(vec![Vec::new(); queries.rows()], 0));
            } else {
                let batch = Arc::clone(&batch);
                self.submit(Box::new(move || batch.run(shard)));
            }
        }
        batch.board.wait(deadline);
        let (mut shard_micros, mut tally) = (Vec::new(), ShardTally::default());
        let states = batch.board.cancel().into_iter().enumerate();
        let per_shard = states.map(|(shard, state)| match state {
            SlotState::Ranked(lists, micros) => {
                shard_micros.push((shard, micros));
                Some(lists)
            }
            SlotState::Panicked => {
                tally.panicked.push(shard);
                None
            }
            SlotState::Pending => {
                tally.timed_out.push(shard);
                None
            }
        });
        (per_shard.collect(), shard_micros, tally)
    }
}
