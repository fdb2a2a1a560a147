//! # ham-autograd
//!
//! A small tape-based reverse-mode automatic-differentiation engine over
//! [`ham_tensor::Matrix`], purpose-built for the HAM reproduction.
//!
//! The HAM models themselves have simple analytic gradients, but the paper
//! compares against deep baselines — Caser (convolutions), SASRec
//! (self-attention) and HGN (gating) — whose training requires a general
//! gradient engine. Rather than pulling in `tch`/`burn`, this crate implements
//! the minimal set of differentiable operations those models need, from
//! scratch:
//!
//! * embedding **gather** with sparse gradient accumulation (the embedding
//!   matrices are large; their gradients are kept as `(row index, row grad)`
//!   pairs and applied with a lazy/sparse Adam update),
//! * dense matrix products (plain and against a transposed right operand),
//! * element-wise arithmetic, sigmoid / tanh / relu / softplus,
//! * mean / max pooling over rows, row-wise softmax, full-width 1-D
//!   convolution (for Caser), reshape / concatenation / slicing,
//! * scalar reductions used as losses.
//!
//! ## Architecture
//!
//! * [`ParamStore`] owns the trainable parameters ([`ParamId`] handles).
//! * [`Graph`] is a tape: every operation appends a node holding its forward
//!   value and enough information to run the backward rule.
//! * [`Graph::backward`] walks the tape in reverse and produces a
//!   [`GradStore`] holding a dense or sparse gradient per touched parameter.
//! * [`optim::Adam`] applies a `GradStore` to a `ParamStore`.
//! * [`gradcheck`] provides finite-difference checking used extensively by the
//!   test-suites of this crate and of the model crates built on top of it.
//!
//! ## Example
//!
//! ```
//! use ham_autograd::{Graph, ParamStore};
//! use ham_tensor::Matrix;
//!
//! let mut params = ParamStore::new();
//! let w = params.add_dense("w", Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 2.0]]));
//!
//! let mut g = Graph::new();
//! let x = g.constant(Matrix::row_vector(&[1.0, 2.0]));
//! let wv = g.param(&params, w);
//! let y = g.matmul(x, wv);          // 1x2 · 2x2
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//!
//! let gw = grads.dense(w).expect("w received a gradient");
//! assert_eq!(gw.shape(), (2, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradcheck;
pub mod graph;
pub mod optim;
pub mod params;

pub use graph::{Graph, VarId};
pub use optim::{Adam, AdamConfig, AdamState, RowSet};
pub use params::{GradStore, ParamId, ParamStore, SparseGrad};
