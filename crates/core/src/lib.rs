//! # ham-core
//!
//! The paper's primary contribution: **Hybrid Associations Models (HAM)** for
//! sequential recommendation.
//!
//! A HAM model scores a candidate item `j` for user `i` given the user's most
//! recent items as the sum of three inner products (Eq. 7/8 of the paper):
//!
//! ```text
//! r_ij = u_i·w_j + h·w_j + o·w_j          (HAMx / HAMm)
//! r_ij = u_i·w_j + s·w_j + o·w_j          (HAMs_x / HAMs_m)
//! ```
//!
//! where `u_i` is the user's long-term preference embedding, `h` / `o` are the
//! mean- or max-pooled embeddings of the previous `n_h` / `n_l` items
//! (high-/low-order associations) and `s` adds recursive item synergies via
//! the latent-cross term `s = h + Σ_k c^(k) ∘ h`.
//!
//! ## Crate layout
//!
//! * [`config`] — model hyper-parameters ([`HamConfig`]), named variants
//!   ([`HamVariant`]) and training settings ([`TrainConfig`]).
//! * [`model`] — the [`HamModel`] itself: embeddings, query-vector
//!   construction, scoring and top-k recommendation.
//! * [`synergy`] — the closed form of the recursive order-`p` synergies.
//! * [`trainer`] — BPR training: a fast manual-gradient path and an
//!   autograd-backed reference path (the two are cross-checked in tests).
//! * [`scorer`] — the [`Scorer`] trait every model in the workspace
//!   implements (a query vector against a candidate matrix; scoring,
//!   batching and top-k provided once) and the seen-item mask.
//! * [`serialize`] — JSON snapshots of trained models.
//!
//! ## Quickstart
//!
//! ```
//! use ham_core::{HamConfig, HamVariant, TrainConfig, train};
//! use ham_data::synthetic::DatasetProfile;
//! use ham_data::split::{split_dataset, EvalSetting};
//!
//! let data = DatasetProfile::tiny("quickstart").generate(7);
//! let split = split_dataset(&data, EvalSetting::Cut8020);
//! let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(16, 4, 2, 2, 2);
//! let train_cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
//! let model = train(&split.train, data.num_items, &config, &train_cfg, 42);
//! let scores = model.score_all(0, split.train[0].as_slice());
//! assert_eq!(scores.len(), data.num_items);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod generalized;
pub mod model;
pub mod scorer;
pub mod serialize;
pub mod synergy;
pub mod trainer;

pub use config::{HamConfig, HamVariant, TrainConfig};
pub use generalized::{GeneralizedHamConfig, GeneralizedHamModel};
pub use model::HamModel;
pub use scorer::{Scorer, SeenMask};
pub use trainer::{train, train_with_history, EpochStats, TrainerState};
