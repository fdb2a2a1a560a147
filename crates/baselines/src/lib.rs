//! # ham-baselines
//!
//! The baseline sequential recommenders the HAM paper compares against,
//! re-implemented from scratch on the `ham-autograd` substrate:
//!
//! * [`Caser`] — convolutional sequence embeddings (horizontal full-width
//!   filters of every height plus vertical filters), Tang & Wang (WSDM'18);
//! * [`SasRec`] — a single-block causal self-attention recommender with
//!   position embeddings and a point-wise feed-forward layer, Kang & McAuley
//!   (ICDM'18);
//! * [`Hgn`] — hierarchical gating (feature gating + instance gating + the
//!   item–item product term), Ma et al. (KDD'19), the paper's state-of-the-art
//!   baseline;
//! * [`PopRec`] and [`BprMf`] — non-sequential sanity baselines (popularity
//!   ranking and BPR matrix factorisation).
//!
//! All trainable baselines share one BPR training harness
//! ([`common::train_bpr`]) built on sliding windows, per-user negative
//! sampling and sparse Adam — the same pipeline the HAM models use — so
//! run-time and accuracy comparisons across methods exercise identical data
//! paths.
//!
//! Every baseline scores through the same trait as the HAM models,
//! [`ham_core::Scorer`]: each implements only its query vector and its
//! candidate matrix `W`, and scoring, batching, top-k and serving
//! (`ham_serve::ServingModel::from_scorer`) are provided once.
//!
//! These are architectural reproductions, not bit-exact ports of the authors'
//! PyTorch code (see DESIGN.md §4, substitution 2): each model keeps the
//! mechanism the paper credits it for (convolution / attention / gating) with
//! a single block and the hyper-parameters exposed through its config struct.
//!
//! ## Example
//!
//! ```
//! use ham_baselines::common::BaselineTrainConfig;
//! use ham_baselines::{Hgn, HgnConfig};
//! use ham_core::Scorer;
//! use ham_data::synthetic::DatasetProfile;
//!
//! let data = DatasetProfile::tiny("baseline-doc").generate(3);
//! let cfg = HgnConfig { d: 8, seq_len: 4, targets: 2, ..HgnConfig::default() };
//! let train_cfg = BaselineTrainConfig { epochs: 1, ..BaselineTrainConfig::default() };
//! let model = Hgn::fit(&data.sequences, data.num_items, &cfg, &train_cfg, 7);
//! let scores = model.score_all(0, &data.sequences[0]);
//! assert_eq!(scores.len(), data.num_items);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bprmf;
pub mod caser;
pub mod common;
pub mod gru4rec;
pub mod hgn;
pub mod poprec;
pub mod sasrec;

pub use bprmf::{BprMf, BprMfConfig};
pub use caser::{Caser, CaserConfig};
pub use common::BaselineTrainConfig;
pub use gru4rec::{Gru4Rec, Gru4RecConfig};
pub use hgn::{Hgn, HgnConfig};
pub use poprec::PopRec;
pub use sasrec::{SasRec, SasRecConfig};
