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

/// Mean pooling over fixed-size row blocks: pools each consecutive group of
/// `block` rows of an `(b·block, d)` matrix into one output row, yielding a
/// `(b, d)` matrix. Row `i` of the output is `mean_pool_rows` of rows
/// `i·block .. (i+1)·block` — bit-identical to pooling each block alone,
/// which is what lets the mini-batched trainer pool every instance window of
/// a batch in one pass.
///
/// # Panics
/// Panics if `block == 0` or the row count is not a multiple of `block`.
pub fn mean_pool_row_blocks(m: &Matrix, block: usize) -> Matrix {
    assert!(block > 0, "mean_pool_row_blocks: block size must be positive");
    let (rows, cols) = m.shape();
    assert_eq!(rows % block, 0, "mean_pool_row_blocks: {rows} rows are not a multiple of block size {block}");
    let blocks = rows / block;
    let mut out = Matrix::zeros(blocks, cols);
    let inv = 1.0 / block as f32;
    for b in 0..blocks {
        let dst = out.row_mut(b);
        for r in b * block..(b + 1) * block {
            for (o, v) in dst.iter_mut().zip(m.row(r)) {
                *o += v;
            }
        }
        for o in dst.iter_mut() {
            *o *= inv;
        }
    }
    out
}

/// Max pooling over fixed-size row blocks (see [`mean_pool_row_blocks`]).
///
/// Returns the `(b, d)` pooled matrix and, per output element, the row
/// offset **within its block** (`0..block`) that attained the maximum —
/// `argmax[b·d + c]` routes the gradient of output `(b, c)` to input row
/// `b·block + argmax[b·d + c]`. Ties resolve to the earliest row, matching
/// [`max_pool_rows`].
///
/// # Panics
/// Panics if `block == 0` or the row count is not a multiple of `block`.
pub fn max_pool_row_blocks(m: &Matrix, block: usize) -> (Matrix, Vec<usize>) {
    assert!(block > 0, "max_pool_row_blocks: block size must be positive");
    let (rows, cols) = m.shape();
    assert_eq!(rows % block, 0, "max_pool_row_blocks: {rows} rows are not a multiple of block size {block}");
    let blocks = rows / block;
    let mut out = Matrix::zeros(blocks, cols);
    let mut argmax = vec![0usize; blocks * cols];
    for b in 0..blocks {
        out.row_mut(b).copy_from_slice(m.row(b * block));
        for off in 1..block {
            let row = m.row(b * block + off);
            let dst = out.row_mut(b);
            for (c, &v) in row.iter().enumerate() {
                if v > dst[c] {
                    dst[c] = v;
                    argmax[b * cols + c] = off;
                }
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
    fn block_pooling_matches_per_block_pooling() {
        // 3 blocks of 2 rows; each pooled block must match pooling the block
        // alone, bit for bit.
        let m = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 1.0], &[-1.0, -2.0], &[-4.0, 0.5], &[2.0, 2.0], &[2.0, 7.0]]);
        let mean = mean_pool_row_blocks(&m, 2);
        let (max, argmax) = max_pool_row_blocks(&m, 2);
        assert_eq!(mean.shape(), (3, 2));
        for b in 0..3 {
            let block = Matrix::from_rows(&[m.row(2 * b), m.row(2 * b + 1)]);
            assert_eq!(mean.row(b), mean_pool_rows(&block).as_slice(), "mean block {b}");
            let (alone, alone_arg) = max_pool_rows(&block);
            assert_eq!(max.row(b), alone.as_slice(), "max block {b}");
            assert_eq!(&argmax[2 * b..2 * b + 2], alone_arg.as_slice(), "argmax block {b}");
        }
    }

    #[test]
    fn block_pooling_with_block_one_is_identity() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(mean_pool_row_blocks(&m, 1), m);
        let (max, argmax) = max_pool_row_blocks(&m, 1);
        assert_eq!(max, m);
        assert!(argmax.iter().all(|&a| a == 0));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn block_pooling_rejects_ragged_blocks() {
        let _ = mean_pool_row_blocks(&Matrix::zeros(5, 2), 2);
    }

    #[test]
    fn matrix_convenience_methods_agree() {
        let m = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 2.0]]);
        assert_eq!(m.mean_rows(), vec![2.0, 3.0]);
        assert_eq!(m.max_rows(), vec![3.0, 4.0]);
    }
}
