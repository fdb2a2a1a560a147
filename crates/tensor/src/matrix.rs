//! The dense row-major [`Matrix`] type and its core operations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// This is the single tensor type used throughout the workspace. Embedding
/// matrices store one embedding per row; batched sequences of embeddings are
/// represented as `(len, d)` matrices.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a `1 x n` row-vector matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a matrix from nested row slices (useful in tests).
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_cols, "Matrix::from_rows: row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Self { rows: n_rows, cols: n_cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Returns a new matrix containing only the selected rows, in order.
    ///
    /// This is the embedding-lookup ("gather") primitive.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Grows the matrix to `new_rows` rows, zero-filling the new rows.
    /// A no-op when the matrix already has `new_rows` rows.
    ///
    /// Embedding tables (and their optimizer moment matrices) grow row-wise
    /// when unseen users/items arrive in an online-training stream; existing
    /// rows keep their values and layout.
    ///
    /// # Panics
    /// Panics if `new_rows` is smaller than the current row count.
    pub fn resize_rows(&mut self, new_rows: usize) {
        assert!(new_rows >= self.rows, "Matrix::resize_rows: cannot shrink from {} to {new_rows} rows", self.rows);
        self.data.resize(new_rows * self.cols, 0.0);
        self.rows = new_rows;
    }

    /// Appends the rows of `other` below the rows of `self`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "Matrix::append_rows: column mismatch ({} vs {})", self.cols, other.cols);
        self.data.extend_from_slice(other.as_slice());
        self.rows += other.rows;
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`, computed by the cache-blocked
    /// [`kernels::matmul`](crate::kernels::matmul).
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::kernels::matmul(self, other)
    }

    /// Matrix product `self * other^T`, computed by the register-tiled
    /// [`kernels::matmul_transposed`](crate::kernels::matmul_transposed).
    ///
    /// Computing against a transposed right operand is the common case when
    /// scoring candidate items (`pooled · Wᵀ` / the batched `Q · Wᵀ`), and
    /// doing it directly avoids materialising the transpose.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        crate::kernels::matmul_transposed(self, other)
    }

    /// Scores one query vector against every row of `self` in a single fused
    /// pass: `out[j] = self.row(j) · q` (the one-user/whole-catalogue fast
    /// path; see [`kernels::matvec_transposed`](crate::kernels::matvec_transposed)).
    ///
    /// # Panics
    /// Panics if `q.len() != self.cols()`.
    pub fn matvec_transposed(&self, q: &[f32]) -> Vec<f32> {
        crate::kernels::matvec_transposed(self, q)
    }

    /// [`Self::matvec_transposed`] into a caller-provided buffer
    /// (overwritten), so serving loops can reuse one scratch allocation
    /// across requests; see
    /// [`kernels::matvec_transposed_into`](crate::kernels::matvec_transposed_into).
    ///
    /// # Panics
    /// Panics if `q.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_transposed_into(&self, q: &[f32], out: &mut [f32]) {
        crate::kernels::matvec_transposed_into(self, q, out)
    }

    /// [`Self::matmul_transposed`] into a caller-provided matrix
    /// (overwritten); see
    /// [`kernels::matmul_transposed_into`](crate::kernels::matmul_transposed_into).
    ///
    /// # Panics
    /// Panics if the column dimensions do not agree or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_transposed_into(&self, other: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_transposed_into(self, other, out)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Returns `self` scaled by a scalar.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Applies a function element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies a binary function element-wise against another matrix.
    ///
    /// # Panics
    /// Panics if shapes differ.
    fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch {:?} vs {:?}", self.shape(), other.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Adds `row` (a length-`cols` slice) to every row of the matrix.
    pub fn add_row_broadcast(&self, row: &[f32]) -> Matrix {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
        out
    }

    /// Mean of every element.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean pooling over rows: returns a length-`cols` vector.
    pub fn mean_rows(&self) -> Vec<f32> {
        crate::pool::mean_pool_rows(self)
    }

    /// Max pooling over rows: returns a length-`cols` vector.
    pub fn max_rows(&self) -> Vec<f32> {
        crate::pool::max_pool_rows(self).0
    }

    /// Returns true when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Dot product of two equal-length slices (the multi-accumulator kernel from
/// [`crate::kernels`]).
///
/// # Panics
/// Panics if the slices differ in length.
pub use crate::kernels::dot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 4).is_empty());
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 2.0, 2.0], &[0.0, 1.0, 0.0], &[3.0, -3.0, 3.0]]);
        let direct = a.matmul_transposed(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert_eq!(direct, via_transpose);
        assert_eq!(direct.shape(), (2, 4));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_rows_picks_in_index_order() {
        let table = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let picked = table.gather_rows(&[2, 0]);
        assert_eq!(picked.row(0), &[3.0, 3.0]);
        assert_eq!(picked.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn hadamard_and_add_sub() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 2.0], &[0.5, -1.0]]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 4.0, 1.5, -4.0]);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 4.0, 3.5, 3.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-1.0, 0.0, 2.5, 5.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn resize_rows_keeps_old_rows_and_zero_fills() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.resize_rows(4);
        assert_eq!(a.shape(), (4, 2));
        assert_eq!(a.row(0), &[1.0, 2.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.row(2), &[0.0, 0.0]);
        assert_eq!(a.row(3), &[0.0, 0.0]);
        // growing to the current size is a no-op
        a.resize_rows(4);
        assert_eq!(a.shape(), (4, 2));
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn resize_rows_refuses_to_shrink() {
        Matrix::zeros(3, 2).resize_rows(2);
    }

    #[test]
    fn append_rows_stacks_matrices() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.append_rows(&Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        assert_eq!(a.shape(), (3, 2));
        assert_eq!(a.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn append_rows_rejects_width_mismatch() {
        Matrix::zeros(1, 2).append_rows(&Matrix::zeros(1, 3));
    }
}
