//! Pooling over the rows of a matrix, and the shared worker pool.
//!
//! Pooling is the core mechanism of HAM (Section 4.2.1 of the paper): the
//! embeddings of the previous `n_h` (high-order) or `n_l` (low-order) items
//! are aggregated into a single vector either by mean pooling or by max
//! pooling, instead of a parameterised attention/gating mechanism.
//!
//! The [`workers`] submodule hosts the other kind of pool: a reusable
//! work-stealing [`ThreadPool`] of persistent worker threads, replacing the
//! per-call `std::thread::scope` spawns the evaluation protocol used before.
//! The two share a module because both sit directly under the hot paths —
//! row pooling inside every query-vector build, the worker pool under every
//! threaded evaluation and the sharded serving layer.

pub mod workers;

pub use workers::{global_pool, Scope, ThreadPool};

use crate::Matrix;
use serde::{Deserialize, Serialize};

/// The pooling mechanism used to aggregate a window of item embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pooling {
    /// Arithmetic mean over the rows (HAMm / HAMs_m).
    Mean,
    /// Element-wise maximum over the rows (HAMx / HAMs_x).
    Max,
}

impl Pooling {
    /// Short lowercase name used in experiment configuration and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pooling::Mean => "mean",
            Pooling::Max => "max",
        }
    }
}

/// Mean pooling over rows. An empty matrix pools to the all-zero vector of
/// width `cols` (the paper's models never pool an empty window, but ablated
/// models with `n_l = 0` conceptually contribute nothing).
pub fn mean_pool_rows(m: &Matrix) -> Vec<f32> {
    let (rows, cols) = m.shape();
    let mut out = vec![0.0f32; cols];
    if rows == 0 {
        return out;
    }
    for r in 0..rows {
        for (o, v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
    let inv = 1.0 / rows as f32;
    for o in &mut out {
        *o *= inv;
    }
    out
}

/// Max pooling over rows. Returns the pooled vector and, per output column,
/// the row index that attained the maximum (needed to route gradients in the
/// manual backward pass). An empty matrix pools to zeros with arg-max 0.
pub fn max_pool_rows(m: &Matrix) -> (Vec<f32>, Vec<usize>) {
    let (rows, cols) = m.shape();
    if rows == 0 {
        return (vec![0.0; cols], vec![0; cols]);
    }
    let mut out = m.row(0).to_vec();
    let mut argmax = vec![0usize; cols];
    for r in 1..rows {
        for (c, &v) in m.row(r).iter().enumerate() {
            if v > out[c] {
                out[c] = v;
                argmax[c] = r;
            }
        }
    }
    (out, argmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_pool_simple() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(mean_pool_rows(&m), vec![2.0, 4.0]);
    }

    #[test]
    fn mean_pool_single_row_is_identity() {
        let m = Matrix::from_rows(&[&[1.5, -2.0, 0.0]]);
        assert_eq!(mean_pool_rows(&m), vec![1.5, -2.0, 0.0]);
    }

    #[test]
    fn mean_pool_empty_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(mean_pool_rows(&m), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_picks_columnwise_max_and_argmax() {
        let m = Matrix::from_rows(&[&[1.0, 5.0, -1.0], &[2.0, 0.0, -3.0], &[0.0, 4.0, -2.0]]);
        let (pooled, argmax) = max_pool_rows(&m);
        assert_eq!(pooled, vec![2.0, 5.0, -1.0]);
        assert_eq!(argmax, vec![1, 0, 0]);
    }

    #[test]
    fn max_pool_handles_all_negative_values() {
        let m = Matrix::from_rows(&[&[-5.0, -1.0], &[-2.0, -4.0]]);
        let (pooled, argmax) = max_pool_rows(&m);
        assert_eq!(pooled, vec![-2.0, -1.0]);
        assert_eq!(argmax, vec![1, 0]);
    }

    #[test]
    fn pooling_enum_names() {
        assert_eq!(Pooling::Mean.name(), "mean");
        assert_eq!(Pooling::Max.name(), "max");
    }

    #[test]
    fn matrix_convenience_methods_agree() {
        let m = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 2.0]]);
        assert_eq!(m.mean_rows(), vec![2.0, 3.0]);
        assert_eq!(m.max_rows(), vec![3.0, 4.0]);
    }
}
