//! # ham-serve
//!
//! The online serving subsystem of the HAM reproduction: everything needed
//! to turn a trained scorer into a **sharded, pooled, hot-swappable
//! recommendation service**.
//!
//! The offline side of the workspace got fast first — batched `Q·Wᵀ` scoring
//! kernels, threaded evaluation — but the ROADMAP's north star is a system
//! that *serves*. This crate adds the serving-shaped layers on top of the
//! same kernels:
//!
//! * [`shard`] — [`ShardedCatalog`]: the candidate matrix `W` split row-wise
//!   into per-worker shards — row ranges of one shared `W`, the model's own
//!   table when its head shares it, never a copy per shard. Each shard is
//!   scored in place with the existing GEMV /
//!   packed-panel GEMM kernels, seen items are masked shard-locally through
//!   the fused mask+select top-k (no `-inf` writes), and the per-shard top-k
//!   lists are merged by a k-way heap into the **exact** global top-k —
//!   bit-identical ids, stable tie-break, for every shard count.
//! * [`model`] — [`ServingModel`]: a frozen serving snapshot (sharded
//!   catalogue + owned query builder; a HAM snapshot shares the model's
//!   output table instead of copying it) constructed from any
//!   [`ham_core::Scorer`] or anything else with a [`ham_core::LinearHead`]
//!   (all `ham-baselines` recommenders qualify).
//! * [`registry`] — [`ModelRegistry`]: versioned `Arc` hot-swap, so a
//!   retrained model is published without pausing traffic; in-flight
//!   requests finish on the snapshot they started with.
//! * [`server`] — [`RecServer`]: the request layer. Concurrent
//!   [`RecommendRequest`]s are coalesced by a micro-batching queue into one
//!   task per shard — tiled GEMM fused with the in-task top-k select, run in
//!   parallel on the process-wide work-stealing pool (`ham_tensor::pool`) —
//!   and every [`RecommendResponse`] carries its queue/service latency split.
//!   The dispatcher lingers for company only when concurrency is evident, so
//!   a lone caller is answered as soon as the dispatcher wakes;
//!   [`ServerStats`] counts batches and lingers.
//! * deadlines & degradation — requests carry deadlines
//!   ([`RecommendRequest::with_deadline`] or
//!   [`ServerConfig::default_deadline`]): expired-in-queue requests are shed
//!   with [`server::SubmitError::DeadlineExpired`]. Every batch is served by
//!   one plan — build the queries, rank each shard in its own task, merge —
//!   and only the executor of the shard tasks varies: a deadline-carrying
//!   (or fault-injected) batch runs them on a bulkhead executor, where a
//!   shard that misses its budget (or panics) is dropped from the k-way
//!   merge — the response comes back flagged [`RecommendResponse::degraded`]
//!   with [`RecommendResponse::shards_answered`] naming how complete it is.
//!   A panic anywhere in the plan falls back to per-request retries; it
//!   never takes the dispatcher down.
//!   [`ModelRegistry::rollback_to`] republishes an archived snapshot when a
//!   freshly published model misbehaves. Deterministic fault injection for
//!   all of this lives in `ham-faults` (`HAM_FAULTS=<spec>`).
//!
//! ## Quickstart
//!
//! ```
//! use ham_core::{HamConfig, HamModel, HamVariant};
//! use ham_serve::{ModelRegistry, RecServer, RecommendRequest, ServerConfig, ServingModel};
//! use std::sync::Arc;
//!
//! let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(16, 4, 2, 2, 2);
//! let model = Arc::new(HamModel::new(10, 100, config, 7));
//! let serving = ServingModel::from_scorer("ham-sm", model, 4).unwrap();
//! let registry = Arc::new(ModelRegistry::new(serving));
//! let server = RecServer::start(Arc::clone(&registry), ServerConfig::default());
//! let response = server.submit(RecommendRequest::new(3, vec![5, 17, 42], 10)).expect("request admitted");
//! assert_eq!(response.items.len(), 10);
//! ```
//!
//! `submit` applies admission control: past [`ServerConfig::max_queue`]
//! queued requests it sheds with [`server::SubmitError::QueueFull`] instead
//! of queueing unboundedly, and during shutdown it rejects with
//! [`server::SubmitError::ShuttingDown`] while every admitted request is
//! still answered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degrade;
pub mod ivf;
pub mod model;
pub mod registry;
pub mod request;
pub mod server;
pub mod shard;
pub mod trace;

pub use ivf::{IvfConfig, PROBE_ALL};
pub use model::{ServeScratch, ServingModel};
pub use registry::{ModelRegistry, PublishedModel, RollbackError};
pub use request::{LatencyStats, RecommendRequest, RecommendResponse};
pub use server::{RecServer, ServerConfig, ServerStats, SubmitError};
pub use shard::{merge_top_k, ScoredItem, Shard, ShardedCatalog};
pub use trace::StageTrace;
