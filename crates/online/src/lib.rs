//! # ham-online
//!
//! The incremental training loop that closes **train → publish → serve**
//! inside one process.
//!
//! The pieces existed separately: the batched trainer (`ham-core`) makes a
//! retrain cheap, and the registry hot-swap (`ham-serve`) makes publishing
//! free of traffic pauses — but nothing connected them, and a *full* retrain
//! per round still costs time proportional to the whole interaction log.
//! [`OnlineTrainer`] connects them and makes each round cost proportional to
//! the **fresh** data only:
//!
//! ```text
//!        ┌──────────────────────────────────────────────────────┐
//!        │                     OnlineTrainer                    │
//!        │                                                      │
//!  ingest│  AppendableDataset ──delta_view──▶ BatchSampler      │
//!  ──────┼─▶ (watermarked log)               ::over_delta       │
//!        │        ▲                              │ fresh        │
//!        │        │ mark_trained                 ▼ windows      │
//!        │        └────────────────── TrainerState::train_round │
//!        │                            (warm Adam moments,       │
//!        │                             grown embedding rows)    │
//!        │                                      │ snapshot      │
//!        └──────────────────────────────────────┼───────────────┘
//!                                               ▼ publish
//!          RecServer ◀──versioned Arc──  ModelRegistry
//!          (keeps serving v_n while v_{n+1} swaps in)
//! ```
//!
//! Per [`OnlineTrainer::run_round`]:
//!
//! 1. the embedding tables and Adam moments **grow row-wise** for any users
//!    or items first seen since the last round (deterministic per-row init),
//! 2. [`BatchSampler::over_delta`] packs mini-batches from exactly the
//!    sliding windows the watermark has not covered — negatives drawn
//!    against each user's full history,
//! 3. [`TrainerState::train_round`] runs the blocked analytic gradient
//!    pipeline for the configured epochs, warm-starting from the previous
//!    round's Adam moments with **per-row bias correction** (a cold row
//!    first touched at global step 10 000 gets the same damped first update
//!    a row touched at step 1 gets),
//! 4. the updated parameters are frozen into a
//!    [`ServingModel`], **shadow-gated** against
//!    the currently served snapshot on a held-out slice of the fresh data
//!    (see [`PublishGate`] — a candidate that regresses past the tolerance
//!    never reaches the registry; the gate counts ranks on the exact f32
//!    scores of both snapshots with [`ServingModel::count_hits`] rather than
//!    serving the probes), and published through the
//!    [`ModelRegistry`] with capped-backoff retries — a live
//!    [`RecServer`](ham_serve::RecServer) on the same registry keeps
//!    answering throughout; in-flight requests finish on the snapshot they
//!    started with, and [`ModelRegistry::rollback_to`] can republish any
//!    archived version if a published model misbehaves in production.
//!
//! ## Determinism contract
//!
//! The trained parameters after any round are a pure function of the
//! (initial data, append schedule, round schedule, seed): replaying the same
//! stream from scratch — or resuming from an [`OnlineCheckpoint`] in a
//! fresh process — reproduces them bit for bit. Pinned by the tests in
//! `tests/online_loop.rs`.
//!
//! ## Quickstart
//!
//! ```
//! use ham_core::{HamConfig, HamVariant, TrainConfig};
//! use ham_data::SequenceDataset;
//! use ham_online::{OnlineConfig, OnlineTrainer};
//! use ham_serve::{RecServer, RecommendRequest, ServerConfig};
//!
//! let initial = SequenceDataset::new("toy", vec![(0..10).collect(); 6], 12);
//! let config = OnlineConfig {
//!     model: HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1),
//!     train: TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() },
//!     shards: 2,
//!     quantize_serving: false,
//!     ivf: None,
//!     seed: 7,
//!     gate: ham_online::PublishGate::default(),
//! };
//! let mut trainer = OnlineTrainer::bootstrap(&initial, config);
//! let server = RecServer::start(trainer.registry(), ServerConfig::default());
//!
//! // fresh traffic arrives while version 1 serves...
//! trainer.ingest(0, 5);
//! trainer.ingest(0, 9);
//! let report = trainer.run_round();
//! assert_eq!(report.version, 2);
//! let response = server.submit(RecommendRequest::new(0, vec![5, 9], 3)).unwrap();
//! assert_eq!(response.model_version, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ham_core::{HamConfig, HamModel, TrainConfig, TrainerState};
use ham_data::append::AppendableDataset;
use ham_data::batch::BatchSampler;
use ham_data::dataset::{ItemId, SequenceDataset, UserId};
use ham_faults::FaultInjector;
use ham_serve::{IvfConfig, ModelRegistry, ServingModel};
use ham_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "gate-parity")]
mod parity;

/// Configuration of the online loop.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Model hyper-parameters (fixed across rounds).
    pub model: HamConfig,
    /// Training hyper-parameters; `epochs` is the epoch count **per round**
    /// (over the fresh windows only, except the bootstrap round which covers
    /// the full initial history).
    pub train: TrainConfig,
    /// Shard count of the published serving snapshots.
    pub shards: usize,
    /// Freeze an int8 panel next to every published shard and serve through
    /// the quantized pre-selection + exact re-rank path (¼ of the
    /// candidate-matrix traffic per request; results stay bit-identical to
    /// the exact path under the serving layer's recall guardrail).
    pub quantize_serving: bool,
    /// Build an IVF cluster index over every published snapshot's catalogue
    /// (rebuilt at each publish from the fresh embedding rows) and serve
    /// through cluster-routed approximate retrieval. `None` falls back to
    /// the environment (`HAM_RETRIEVAL=ivf` / `HAM_IVF_NPROBE`), which the
    /// serving layer reads when the snapshot is frozen; the explicit config
    /// wins over the environment when both are set.
    pub ivf: Option<IvfConfig>,
    /// Master seed: model init, growth rows and every round's shuffle /
    /// negative stream derive from it deterministically.
    pub seed: u64,
    /// Publish gating: shadow evaluation of every candidate snapshot plus
    /// retry/backoff behaviour of the registry swap.
    pub gate: PublishGate,
}

/// How candidate snapshots are gated before they reach the registry, and
/// how a failing registry swap is retried.
///
/// Before publishing, the trainer **shadow-evaluates** the candidate against
/// the currently served model on a held-out probe set built from the
/// freshest interaction per user (the last item of each fresh sequence,
/// predicted from everything before it). A candidate that scores markedly
/// worse than the live model — beyond [`Self::tolerance`] — is rejected:
/// the round's training is kept (the next round trains on top of it), but
/// serving stays on the healthy snapshot. Probes are restricted to users
/// and items the **live** model already knows, so both models answer every
/// probe and the comparison is apples-to-apples.
///
/// A hit is counted, not served: [`ServingModel::count_hits`] scores the
/// probes 64 at a time with one tiled GEMM over the snapshot's exact f32
/// catalogue and asks whether fewer than [`Self::probe_k`] items rank ahead
/// of the target (score descending, id ascending, NaN never ranks). What
/// that judges per serving tier:
///
/// * exact, and IVF at `nprobe = all` (the default, which only regroups
///   rows): the ranking a batched request is served;
/// * int8: the same, whenever the exact winners survive the int8
///   pre-selection — the served ids are re-ranked exactly, and the online
///   suite pins them to the exact tier's;
/// * IVF under a narrower `nprobe`: the model's exact ranking, not the
///   approximate retrieval's. Both sides are judged the same way and serve
///   through the same retrieval, so the comparison stays fair.
#[derive(Debug, Clone, Copy)]
pub struct PublishGate {
    /// Shadow-evaluate candidates before publishing (`true` by default).
    /// With `false`, every trained round publishes unconditionally (the
    /// pre-gate behaviour).
    pub shadow_eval: bool,
    /// Top-k cutoff of the shadow evaluation's hit metric.
    pub probe_k: usize,
    /// Minimum probe count for the gate to act; with fewer fresh probes the
    /// comparison is noise and the candidate publishes ungated.
    pub min_probes: usize,
    /// Maximum tolerated regression, as a fraction of the probe count:
    /// reject when `(live_hits - candidate_hits) / probes > tolerance`.
    pub tolerance: f64,
    /// Registry-swap retry budget (the swap itself is infallible today, but
    /// the fault injector exercises transient publish failures and real
    /// transports will too).
    pub max_publish_retries: u32,
    /// First retry backoff; doubled per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for PublishGate {
    fn default() -> Self {
        Self {
            shadow_eval: true,
            probe_k: 10,
            min_probes: 8,
            tolerance: 0.10,
            max_publish_retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

/// What the shadow evaluation of one round's candidate snapshot measured.
#[derive(Debug, Clone, Copy)]
pub struct ShadowEval {
    /// Held-out probes both models were scored on.
    pub probes: usize,
    /// Probes whose target the **candidate** ranked in its top-`probe_k`.
    pub candidate_hits: usize,
    /// Probes whose target the **live** model ranked in its top-`probe_k`.
    pub live_hits: usize,
}

impl ShadowEval {
    /// Whether the candidate regressed past `gate`'s tolerance:
    /// `(live_hits - candidate_hits) / probes > tolerance`.
    fn rejects(&self, gate: &PublishGate) -> bool {
        let regression = self.live_hits.saturating_sub(self.candidate_hits) as f64;
        regression > gate.tolerance.max(0.0) * self.probes as f64
    }
}

/// What one incremental round did.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index (the bootstrap round is 1).
    pub round: u64,
    /// Registry version serving this round's snapshot (unchanged if the
    /// round had nothing to train and skipped publishing).
    pub version: u64,
    /// Interactions appended since the previous round.
    pub fresh_interactions: usize,
    /// Sliding-window instances trained (per epoch).
    pub instances_trained: usize,
    /// Wall-clock seconds spent in gradient/optimizer work.
    pub train_seconds: f64,
    /// Wall-clock seconds spent freezing, gating and publishing the snapshot
    /// (the registry swap itself is nanoseconds). Includes
    /// [`Self::gate_seconds`].
    pub publish_seconds: f64,
    /// Wall-clock seconds of the shadow gate alone: both models' hit counts
    /// (0 when no gate ran this round).
    pub gate_seconds: f64,
    /// Whether this round's snapshot reached the registry.
    pub published: bool,
    /// Whether the shadow gate rejected the candidate (serving stayed on
    /// the previous version; training is kept).
    pub publish_rejected: bool,
    /// Registry-swap attempts that failed transiently and were retried.
    pub publish_retries: u32,
    /// Whether the swap still failed after exhausting
    /// [`PublishGate::max_publish_retries`] (serving stayed on the previous
    /// version; the next trained round will try again with newer weights).
    pub publish_failed: bool,
    /// The shadow evaluation, when one ran this round.
    pub shadow: Option<ShadowEval>,
    /// Per-epoch loss/throughput statistics of the round.
    pub epochs: Vec<ham_core::EpochStats>,
}

/// Everything needed to resume the loop in a fresh process: the model
/// parameters, the optimizer moments (with per-row step counts), the
/// watermarked interaction log and the round counter.
#[derive(Debug, Clone)]
pub struct OnlineCheckpoint {
    /// The model parameters at checkpoint time.
    pub model: HamModel,
    /// The warm Adam state.
    pub adam: ham_autograd::AdamState,
    /// The optimizer configuration the moments were accumulated under
    /// (restoring with a different scheme would reinterpret the warm
    /// moments and silently break the bit-identical-resume contract).
    pub adam_config: ham_autograd::AdamConfig,
    /// The interaction log with its per-user trained watermarks.
    pub data: AppendableDataset,
    /// Completed round count.
    pub round: u64,
}

/// The loop's metric handles, resolved once from a [`Telemetry`] registry.
/// `None` when telemetry is disabled — the loop then records nothing.
struct OnlineMetrics {
    round_micros: Histogram,
    train_micros: Histogram,
    publish_micros: Histogram,
    gate_micros: Histogram,
    rounds_total: Counter,
    fresh_interactions_total: Counter,
    instances_trained_total: Counter,
    table_growth_rows_total: Counter,
    publishes_total: Counter,
    publish_rejected_total: Counter,
    publish_retries_total: Counter,
    publish_failed_total: Counter,
    serving_staleness_seconds: Gauge,
}

impl OnlineMetrics {
    fn resolve(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(Self {
            round_micros: registry.histogram("online_round_micros"),
            train_micros: registry.histogram("online_train_micros"),
            publish_micros: registry.histogram("online_publish_micros"),
            gate_micros: registry.histogram("online_gate_micros"),
            rounds_total: registry.counter("online_rounds_total"),
            fresh_interactions_total: registry.counter("online_fresh_interactions_total"),
            instances_trained_total: registry.counter("online_instances_trained_total"),
            table_growth_rows_total: registry.counter("online_table_growth_rows_total"),
            publishes_total: registry.counter("online_publishes_total"),
            publish_rejected_total: registry.counter("online_publish_rejected_total"),
            publish_retries_total: registry.counter("online_publish_retries_total"),
            publish_failed_total: registry.counter("online_publish_failed_total"),
            serving_staleness_seconds: registry.gauge("online_serving_staleness_seconds"),
        })
    }
}

/// The owner of the train→publish→serve loop. See the module docs.
pub struct OnlineTrainer {
    config: OnlineConfig,
    data: AppendableDataset,
    state: TrainerState,
    registry: Arc<ModelRegistry>,
    round: u64,
    telemetry: Telemetry,
    metrics: Option<OnlineMetrics>,
    faults: FaultInjector,
    last_publish: Option<Instant>,
    /// `(users, items)` the **currently served** snapshot was frozen with —
    /// the bound the shadow gate's probes must respect (a probe outside it
    /// would panic the live model's query builder instead of comparing).
    live_dims: (usize, usize),
}

impl OnlineTrainer {
    /// Trains the bootstrap round on `initial`'s full history, publishes the
    /// resulting model as version 1 and returns the running loop. Start a
    /// [`RecServer`](ham_serve::RecServer) on [`Self::registry`] to serve.
    ///
    /// # Panics
    /// Panics if `initial` has no users or items, or the configuration is
    /// invalid.
    pub fn bootstrap(initial: &SequenceDataset, config: OnlineConfig) -> Self {
        Self::bootstrap_instrumented(initial, config, Telemetry::from_env(), FaultInjector::from_env())
    }

    /// [`Self::bootstrap`] with an explicit [`Telemetry`] handle. With an
    /// enabled handle every round records `online_*` metrics into its
    /// registry (the bootstrap round included); a disabled handle makes
    /// recording a no-op. Fault injection follows the environment
    /// (`HAM_FAULTS`).
    pub fn bootstrap_with_telemetry(initial: &SequenceDataset, config: OnlineConfig, telemetry: Telemetry) -> Self {
        Self::bootstrap_instrumented(initial, config, telemetry, FaultInjector::from_env())
    }

    /// [`Self::bootstrap_with_telemetry`] with an explicit [`FaultInjector`]
    /// — the full-control constructor used by the chaos suite to inject
    /// deterministic publish failures and snapshot corruption.
    pub fn bootstrap_instrumented(
        initial: &SequenceDataset,
        config: OnlineConfig,
        telemetry: Telemetry,
        faults: FaultInjector,
    ) -> Self {
        let data = AppendableDataset::from_dataset(initial);
        let state = TrainerState::new(
            data.num_users().max(1),
            data.num_items().max(1),
            &config.model,
            &config.train,
            config.seed,
        );
        let metrics = OnlineMetrics::resolve(&telemetry);
        let mut trainer = Self {
            config,
            data,
            state,
            // placeholder registry; the bootstrap round's publish replaces v1
            registry: Arc::new(ModelRegistry::new(ServingModel::from_parts(
                "bootstrap-empty",
                &ham_tensor::Matrix::zeros(1, 1),
                1,
                |_, _| vec![0.0],
            ))),
            round: 0,
            telemetry,
            metrics,
            faults,
            last_publish: None,
            live_dims: (1, 1),
        };
        trainer.run_round();
        trainer
    }

    /// Resumes a checkpointed loop: training on is bit-identical to the
    /// trainer that exported the checkpoint (given the same `config`).
    pub fn restore(checkpoint: OnlineCheckpoint, config: OnlineConfig) -> Self {
        Self::restore_with_telemetry(checkpoint, config, Telemetry::from_env())
    }

    /// [`Self::restore`] with an explicit [`Telemetry`] handle.
    fn restore_with_telemetry(checkpoint: OnlineCheckpoint, config: OnlineConfig, telemetry: Telemetry) -> Self {
        let state = TrainerState::from_model(
            &checkpoint.model,
            &config.train,
            checkpoint.adam_config,
            checkpoint.adam,
            config.seed,
        );
        let live_dims = (state.num_users(), state.num_items());
        let serving = freeze(checkpoint.model, config.shards, config.quantize_serving, config.ivf, checkpoint.round);
        let metrics = OnlineMetrics::resolve(&telemetry);
        Self {
            config,
            data: checkpoint.data,
            state,
            registry: Arc::new(ModelRegistry::new(serving)),
            round: checkpoint.round,
            telemetry,
            metrics,
            faults: FaultInjector::from_env(),
            last_publish: None,
            live_dims,
        }
    }

    /// Exports the loop's full state for [`Self::restore`].
    pub fn checkpoint(&self) -> OnlineCheckpoint {
        OnlineCheckpoint {
            model: self.state.snapshot(),
            adam: self.state.adam_state(),
            adam_config: self.state.adam_config(),
            data: self.data.clone(),
            round: self.round,
        }
    }

    /// The registry the loop publishes into (share it with a `RecServer`).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// The telemetry handle the loop records into (disabled unless the loop
    /// was built with an enabled handle or `HAM_TELEMETRY` is set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Updates the `online_serving_staleness_seconds` gauge to the seconds
    /// elapsed since the last publish and returns that value. The gauge only
    /// moves when the loop publishes or someone calls this — call it from
    /// whatever cadence scrapes the registry. Returns 0 before any publish.
    pub fn refresh_staleness(&self) -> u64 {
        let staleness = self.last_publish.map_or(0, |at| at.elapsed().as_secs());
        if let Some(metrics) = &self.metrics {
            metrics.serving_staleness_seconds.set(staleness as i64);
        }
        staleness
    }

    /// Appends one fresh interaction. Unknown users and items are accepted;
    /// the next round grows the embedding tables to cover them.
    pub fn ingest(&mut self, user: UserId, item: ItemId) {
        self.data.append(user, item);
    }

    /// Interactions ingested since the last completed round.
    pub fn pending_interactions(&self) -> usize {
        self.data.fresh_interactions()
    }

    /// Completed rounds (bootstrap included).
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// The interaction log backing the loop.
    pub fn data(&self) -> &AppendableDataset {
        &self.data
    }

    /// A snapshot of the current (possibly not-yet-published) parameters.
    pub fn model(&self) -> HamModel {
        self.state.snapshot()
    }

    /// Runs one incremental round: grow → train the fresh windows →
    /// shadow-gate → publish. With nothing fresh to train the round is a
    /// no-op (no publish, version unchanged). See the module docs for the
    /// loop and [`PublishGate`] for the gate.
    pub fn run_round(&mut self) -> RoundReport {
        let fresh_interactions = self.data.fresh_interactions();
        let round = self.round + 1;
        let round_started = Instant::now();
        let train_started = Instant::now();
        let rows_before = self.state.num_users() + self.state.num_items();
        self.state.grow_to(self.data.num_users().max(1), self.data.num_items().max(1));
        let grown_rows = (self.state.num_users() + self.state.num_items()).saturating_sub(rows_before);
        let delta = self.data.delta_view(self.config.model.n_h, self.config.model.n_p);
        // Held-out probes for the shadow gate: each fresh user's latest
        // interaction, predicted from everything before it, restricted to
        // the users/items the *live* snapshot knows so both models answer
        // every probe. Built before training so the candidate cannot be
        // graded on windows it just memorised in this very round — the
        // probe target is still unseen by the *previous* rounds' weights
        // the live model serves.
        let probes = if self.config.gate.shadow_eval && round > 1 {
            build_probes(&delta, self.live_dims.0, self.live_dims.1)
        } else {
            Vec::new()
        };
        let (instances_trained, epochs) = if delta.is_empty() {
            (0, Vec::new())
        } else {
            let mut sampler = BatchSampler::over_delta(
                &delta,
                self.data.num_items().max(1),
                self.config.model.n_h,
                self.config.model.n_p,
                self.config.model.n_l,
                self.config.train.batch_size.max(1),
                round_seed(self.config.seed, round),
            );
            let epochs = self.state.train_round(&mut sampler, self.config.train.epochs.max(1));
            self.data.mark_trained();
            (sampler.num_instances(), epochs)
        };
        let train_seconds = train_started.elapsed().as_secs_f64();

        // Publish: freeze the updated parameters, shadow-gate the candidate
        // against the live snapshot and hot-swap the registry (with retries
        // — the injector exercises transient failures). Round 1 (bootstrap)
        // replaces the placeholder model installed by `bootstrap`, so the
        // first *served* version is already trained; it has no live model
        // to gate against.
        let publish_started = Instant::now();
        let gate = self.config.gate;
        let mut version = self.registry.version();
        let mut published = false;
        let mut publish_rejected = false;
        let mut publish_retries = 0u32;
        let mut publish_failed = false;
        let mut shadow = None;
        let mut gate_seconds = 0.0;
        if instances_trained > 0 || round == 1 {
            let snapshot = self.state.snapshot();
            let serving = if self.faults.corrupt_snapshot(round) {
                freeze_corrupted(snapshot, self.config.shards, self.config.quantize_serving, self.config.ivf, round)
            } else {
                freeze(snapshot, self.config.shards, self.config.quantize_serving, self.config.ivf, round)
            };
            let accepted = if gate.shadow_eval && round > 1 && probes.len() >= gate.min_probes.max(1) {
                let gate_started = Instant::now();
                let live = &self.registry.current().model;
                let eval = shadow_evaluate(live, &serving, &probes, gate.probe_k);
                gate_seconds = gate_started.elapsed().as_secs_f64();
                #[cfg(feature = "gate-parity")]
                parity::check_decision(round, live, &serving, &probes, &gate, &eval);
                shadow = Some(eval);
                !eval.rejects(&gate)
            } else {
                true
            };
            if accepted {
                let mut serving = Some(serving);
                loop {
                    if !self.faults.fail_publish() {
                        // ham-lint: allow(panic, "the Option is taken exactly once — every loop path below breaks or retries before re-taking")
                        let serving = serving.take().expect("publish attempted twice");
                        version = if round == 1 {
                            // keep version 1 == first trained model
                            self.registry = Arc::new(ModelRegistry::new(serving));
                            self.registry.version()
                        } else {
                            self.registry.publish(serving)
                        };
                        published = true;
                        self.last_publish = Some(Instant::now());
                        self.live_dims = (self.state.num_users(), self.state.num_items());
                        break;
                    }
                    if publish_retries >= gate.max_publish_retries {
                        // Out of budget: serving stays on the previous
                        // version; the next trained round retries with
                        // newer weights. Nothing is stranded — the
                        // registry swap is all-or-nothing.
                        publish_failed = true;
                        break;
                    }
                    let backoff = gate
                        .backoff_base
                        .saturating_mul(1u32 << publish_retries.min(16))
                        .min(gate.backoff_cap.max(gate.backoff_base));
                    std::thread::sleep(backoff);
                    publish_retries += 1;
                }
            } else {
                publish_rejected = true;
            }
        }
        let publish_seconds = publish_started.elapsed().as_secs_f64();
        self.round = round;
        if let Some(metrics) = &self.metrics {
            metrics.rounds_total.inc();
            metrics.fresh_interactions_total.add(fresh_interactions as u64);
            metrics.instances_trained_total.add(instances_trained as u64);
            metrics.table_growth_rows_total.add(grown_rows as u64);
            metrics.train_micros.record((train_seconds * 1e6) as u64);
            metrics.publish_micros.record((publish_seconds * 1e6) as u64);
            if shadow.is_some() {
                metrics.gate_micros.record((gate_seconds * 1e6) as u64);
            }
            metrics.round_micros.record(round_started.elapsed().as_micros() as u64);
            metrics.publish_retries_total.add(publish_retries as u64);
            if publish_rejected {
                metrics.publish_rejected_total.inc();
            }
            if publish_failed {
                metrics.publish_failed_total.inc();
            }
            if published {
                metrics.publishes_total.inc();
                metrics.serving_staleness_seconds.set(0);
            }
        }
        RoundReport {
            round,
            version,
            fresh_interactions,
            instances_trained,
            train_seconds,
            publish_seconds,
            gate_seconds,
            published,
            publish_rejected,
            publish_retries,
            publish_failed,
            shadow,
            epochs,
        }
    }
}

/// Builds the shadow gate's probe set from a round's fresh delta: one probe
/// per affected user — the last item of the user's full sequence as the
/// target, everything before it as the history — restricted to users and
/// items within `(known_users, known_items)` (the live snapshot's tables)
/// so both sides of the comparison can answer.
fn build_probes(delta: &ham_data::append::DeltaView, known_users: usize, known_items: usize) -> Vec<Probe<'_>> {
    delta
        .users
        .iter()
        .zip(&delta.seen)
        .filter_map(|(&user, seen)| {
            let (&target, history) = seen.split_last()?;
            let answerable = user < known_users
                && target < known_items
                && !history.is_empty()
                && history.iter().all(|&item| item < known_items);
            answerable.then_some((user, history, target))
        })
        .collect()
}

/// One shadow-gate probe: `(user, history, target)`, the history borrowed
/// from the round's delta.
type Probe<'a> = (UserId, &'a [ItemId], ItemId);

/// Counts `live`'s and `candidate`'s hits on the same probes: a hit is the
/// probe's target ranked inside the top-`k` of the model's exact f32
/// scores ([`ServingModel::count_hits`]), nothing masked — a target
/// repeating an earlier interaction must stay rankable.
fn shadow_evaluate(live: &ServingModel, candidate: &ServingModel, probes: &[Probe<'_>], k: usize) -> ShadowEval {
    let k = k.max(1);
    ShadowEval {
        probes: probes.len(),
        candidate_hits: candidate.count_hits(probes, k),
        live_hits: live.count_hits(probes, k),
    }
}

/// Freezes a model snapshot into a named, sharded serving snapshot. Takes
/// the snapshot by value: it is already an owned copy, and the serving
/// snapshot keeps it whole — the shards are row ranges of its shared output
/// table — so publishing does not copy the embedding tables a second time.
fn freeze(model: HamModel, shards: usize, quantize: bool, ivf: Option<IvfConfig>, round: u64) -> ServingModel {
    let serving = ServingModel::from_scorer(&format!("ham-online-r{round}"), Arc::new(model), shards.max(1))
        // ham-lint: allow(panic, "from_scorer is always Some")
        .expect("from_scorer always builds a snapshot");
    let serving = if quantize { serving.with_quantized_catalog() } else { serving };
    match ivf {
        Some(config) => serving.with_cluster_index(&config),
        None => serving,
    }
}

/// Freezes a deliberately **corrupted** snapshot: the query vectors are
/// negated, so the candidate ranks its catalogue in reverse and regresses
/// hard on any probe set. Only reachable through the fault injector's
/// `snapshot_corrupt=r<round>` rule — it exists so the chaos suite can
/// prove the shadow gate keeps a regressing candidate out of the registry.
fn freeze_corrupted(
    model: HamModel,
    shards: usize,
    quantize: bool,
    ivf: Option<IvfConfig>,
    round: u64,
) -> ServingModel {
    let model = Arc::new(model);
    let query_model = Arc::clone(&model);
    let serving = ServingModel::from_parts(
        &format!("ham-online-r{round}-corrupted"),
        model.candidate_item_embeddings(),
        shards.max(1),
        move |user, history| query_model.query_vector(user, history).iter().map(|q| -q).collect(),
    );
    let serving = if quantize { serving.with_quantized_catalog() } else { serving };
    match ivf {
        Some(config) => serving.with_cluster_index(&config),
        None => serving,
    }
}

/// The sampler seed of a round: depends on the master seed and the round
/// index only, so replaying the stream reproduces every shuffle and
/// negative draw.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ 0x0C0F_FEE0_2718_2818 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
