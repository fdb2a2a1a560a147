//! # ham
//!
//! Facade crate of the HAM reproduction workspace: re-exports the public API
//! of every member crate so applications can depend on a single crate.
//!
//! * [`tensor`] — dense matrix math substrate.
//! * [`autograd`] — tape-based reverse-mode automatic differentiation.
//! * [`data`] — datasets, preprocessing, splits, windows, negative sampling
//!   and the synthetic benchmark generators.
//! * [`core`] — the Hybrid Associations Models (the paper's contribution).
//! * [`baselines`] — Caser, SASRec, HGN, PopRec and BPR-MF.
//! * [`eval`] — Recall/NDCG metrics, evaluation protocol, significance tests
//!   and run-time measurement.
//! * [`serve`] — the online serving subsystem: sharded catalogue scoring,
//!   micro-batching request queue, hot-swappable model registry.
//! * [`online`] — the incremental training loop closing train → publish →
//!   serve: delta-window retraining with warm-started Adam, published through
//!   the registry while a live server keeps answering.
//! * [`experiments`] — the harness regenerating every table and figure of the
//!   paper.
//!
//! ## Quickstart
//!
//! ```
//! use ham::data::synthetic::DatasetProfile;
//! use ham::data::split::{split_dataset, EvalSetting};
//! use ham::core::{train, HamConfig, HamVariant, Scorer, TrainConfig};
//!
//! let data = DatasetProfile::tiny("facade-doc").generate(1);
//! let split = split_dataset(&data, EvalSetting::Cut8020);
//! let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(16, 4, 2, 2, 1);
//! let model = train(&split.train, data.num_items, &config, &TrainConfig { epochs: 1, ..Default::default() }, 7);
//! let top5 = model.recommend_top_k(0, &split.train[0], 5, true);
//! assert_eq!(top5.len(), 5);
//! ```

#![warn(missing_docs)]

pub use ham_autograd as autograd;
pub use ham_baselines as baselines;
pub use ham_core as core;
pub use ham_data as data;
pub use ham_eval as eval;
pub use ham_experiments as experiments;
pub use ham_online as online;
pub use ham_serve as serve;
pub use ham_tensor as tensor;

pub use ham_core::{HamConfig, HamModel, HamVariant, TrainConfig};
pub use ham_data::synthetic::DatasetProfile;
pub use ham_data::{EvalSetting, SequenceDataset};
