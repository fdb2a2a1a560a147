//! # ham-data
//!
//! Data substrate for the HAM reproduction: interaction datasets, the
//! preprocessing protocol of the paper, the three experimental splits
//! (80-20-CUT, 80-3-CUT, 3-LOS), sliding-window training instances, negative
//! sampling, dataset statistics, and synthetic generators standing in for the
//! six public benchmark datasets (Amazon CDs/Books, Goodreads
//! Children/Comics, MovieLens 1M/20M).
//!
//! ## Why synthetic data
//!
//! The original benchmark datasets cannot be downloaded in this environment.
//! [`synthetic::DatasetProfile`] generates interaction sequences whose
//! aggregate statistics match Table 2 of the paper at a configurable scale and
//! whose generative process contains exactly the structure the HAM models
//! exploit: per-user long-term preferences over item clusters, low- and
//! high-order sequential (Markov) associations, item-pair synergies and
//! Zipfian item popularity. See DESIGN.md §4 for the full substitution
//! rationale.
//!
//! ## Example
//!
//! ```
//! use ham_data::synthetic::DatasetProfile;
//! use ham_data::split::{EvalSetting, split_dataset};
//! use ham_data::batch::BatchSampler;
//!
//! let dataset = DatasetProfile::cds().with_scale(0.01).generate(42);
//! let split = split_dataset(&dataset, EvalSetting::Cut8020);
//! // Windows of 5 input and 3 target items, the last 2 inputs as the
//! // low-order window, 64 instances per batch.
//! let mut sampler = BatchSampler::new(&split.train, dataset.num_items, 5, 3, 2, 64, 7);
//! sampler.start_epoch();
//! let batch = sampler.next_batch().expect("the split has windows");
//! assert_eq!(batch[0].targets.len(), batch[0].negatives.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod append;
pub mod batch;
pub mod dataset;
pub mod interaction;
pub mod loader;
pub mod negative;
pub mod preprocess;
pub mod split;
pub mod stats;
pub mod synthetic;
pub mod window;

pub use append::{AppendableDataset, DeltaView};
pub use batch::{BatchSampler, PreparedInstance};
pub use dataset::SequenceDataset;
pub use interaction::Interaction;
pub use negative::NegativeSampler;
pub use split::{split_dataset, DataSplit, EvalSetting};
pub use stats::DatasetStats;
pub use window::WindowStore;
