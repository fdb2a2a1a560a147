//! Int8 affine quantization of candidate matrices and query vectors.
//!
//! Serving millions of candidate items per node is a memory-bandwidth
//! problem before it is a FLOP problem: every request streams the candidate
//! matrix `W` once, and at f32 that stream saturates the bus long before the
//! FMA units saturate. Quantizing `W` to 8 bits cuts the streamed bytes per
//! row 4x — the [`QuantizedMatrix`] here is the storage side of that trade,
//! and the `quantized_*` kernels in [`crate::kernels`] are the compute side.
//!
//! ## The scheme
//!
//! Each **candidate row** is quantized independently with the standard
//! asymmetric affine (scale + zero-point) int8 scheme:
//!
//! ```text
//! w[k] ≈ scale_r · (p[k] − zp_r)        p[k] ∈ [0, 255]
//! ```
//!
//! The quantization range of a row is `[min(w) ∪ 0, max(w) ∪ 0]` (nudged to
//! contain zero, so 0.0 always round-trips near-exactly and a degenerate
//! constant row still gets a positive scale). `p` is stored biased by the
//! zero-point into `u8` — the natural layout for the widening
//! unsigned×signed integer multiplies of the SIMD kernels; `zp_r` itself is
//! kept as `i32` so the integer dot can subtract it exactly.
//!
//! The **query** is quantized symmetrically to `i8` ([`QuantizedQuery`]):
//! `q[k] ≈ scale_q · s[k]`, `s[k] ∈ [−127, 127]`. A query is d elements —
//! quantizing it per request is nanoseconds next to streaming the catalogue.
//!
//! A quantized score then reduces to one integer dot product plus one
//! per-row fixup:
//!
//! ```text
//! r_j ≈ scale_r · scale_q · ( Σ_k p[k]·s[k]  −  zp_r · Σ_k s[k] )
//! ```
//!
//! `Σ s[k]` is computed once per query ([`QuantizedQuery::sum`]). The inner
//! sum is **exact integer arithmetic** — `u8·i8` products accumulated in
//! `i32` cannot overflow below d ≈ 66 000 and integer addition is
//! associative — so a quantized score is **bit-identical across tiers and
//! across shard/panel positions** by construction. The only rounding is the
//! final f32 multiply, identical everywhere. That determinism is what lets
//! the serving layer's quantized candidate-selection stage stay exact across
//! shard counts (the re-rank guardrail in `ham-serve` does the rest).
//!
//! ## Error bound
//!
//! Rounding to nearest bounds the per-element errors by half a step:
//! `|w[k] − ŵ[k]| ≤ scale_r / 2` and `|q[k] − q̂[k]| ≤ scale_q / 2`, so a
//! d-length score obeys
//!
//! ```text
//! |r − r̂| ≤ Σ_k ( |q[k]|·scale_r/2 + |w[k]|·scale_q/2 + scale_r·scale_q/4 )
//! ```
//!
//! — proportional to the per-row magnitude through `scale_r`. The property
//! suite in `tests/quantized.rs` pins this bound for every row.

use crate::Matrix;

/// A-priori upper bound on `|exact − quantized|` for scoring `w_row`
/// against `q` under this module's scheme, computed from the same
/// scale formulas the quantizers use.
///
/// The ideal-arithmetic bound (module docs) uses half a step per element;
/// this function doubles the per-element terms to absorb the two non-ideal
/// effects — payload clamping at the range edge can cost up to a full step
/// on an element, and the scales themselves are f32-rounded — so the
/// property suite can assert it unconditionally. Still proportional to the
/// per-row magnitude through `scale_r = (max−min)/255`.
pub fn score_error_bound(w_row: &[f32], q: &[f32]) -> f32 {
    let lo = w_row.iter().copied().fold(0.0f32, f32::min);
    let hi = w_row.iter().copied().fold(0.0f32, f32::max);
    let scale_r = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let amax = q.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale_q = if amax > 0.0 { amax / 127.0 } else { 1.0 };
    w_row.iter().zip(q).map(|(&w, &qv)| qv.abs() * scale_r + w.abs() * scale_q + scale_r * scale_q).sum()
}

/// A row-quantized int8 snapshot of a candidate matrix (see module docs).
///
/// Immutable by design: it is built once at publish time from a frozen f32
/// matrix and then only read by the scoring kernels. The f32 original stays
/// authoritative — exact re-ranking reads it, the quantized panel only
/// preselects.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major zero-point-biased payload: `data[r*cols + k] ∈ [0, 255]`.
    data: Vec<u8>,
    /// Per-row dequantization scale (always > 0).
    scales: Vec<f32>,
    /// Per-row zero-point in payload space.
    zero_points: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes `w` row-by-row with the asymmetric affine scheme.
    pub fn quantize(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut zero_points = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = w.row(r);
            // Nudge the range to contain zero: 0.0 then maps (near-)exactly
            // to the zero-point, and a constant row keeps a positive scale.
            let lo = row.iter().copied().fold(0.0f32, f32::min);
            let hi = row.iter().copied().fold(0.0f32, f32::max);
            let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
            let zp = (-lo / scale).round() as i32;
            let zp = zp.clamp(0, 255);
            for &v in row {
                let p = (v / scale).round() as i32 + zp;
                data.push(p.clamp(0, 255) as u8);
            }
            scales.push(scale);
            zero_points.push(zp);
        }
        Self { rows, cols, data, scales, zero_points }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the embedding dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The biased `u8` payload of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "QuantizedMatrix::row: index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantization scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Zero-point of row `r` (payload space).
    #[inline]
    pub fn zero_point(&self, r: usize) -> i32 {
        self.zero_points[r]
    }

    /// The full row-major payload (kernel entry points).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.data
    }

    /// Per-row scales (kernel entry points).
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row zero-points (kernel entry points).
    #[inline]
    pub fn zero_points(&self) -> &[i32] {
        &self.zero_points
    }

    /// Reconstructs row `r` as f32 values (tests and diagnostics — the
    /// serving path never dequantizes, it re-ranks against the f32 original).
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let scale = self.scales[r];
        let zp = self.zero_points[r];
        self.row(r).iter().map(|&p| scale * (p as i32 - zp) as f32).collect()
    }
}

/// A query vector quantized symmetrically to `i8` (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedQuery {
    /// Symmetric `i8` payload: `data[k] ∈ [−127, 127]`.
    data: Vec<i8>,
    /// Dequantization scale (always > 0).
    scale: f32,
    /// `Σ_k data[k]`, precomputed for the per-row zero-point fixup.
    sum: i32,
}

impl QuantizedQuery {
    /// Quantizes one query vector.
    pub fn quantize(q: &[f32]) -> Self {
        let mut out = Self { data: Vec::new(), scale: 1.0, sum: 0 };
        out.requantize(q);
        out
    }

    /// Re-quantizes `q` in place, reusing the payload allocation — the
    /// serving scratch holds one `QuantizedQuery` across requests.
    pub fn requantize(&mut self, q: &[f32]) {
        let amax = q.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        self.data.clear();
        let mut sum = 0i32;
        for &v in q {
            let s = ((v / scale).round() as i32).clamp(-127, 127);
            sum += s;
            self.data.push(s as i8);
        }
        self.scale = scale;
        self.sum = sum;
    }

    /// The `i8` payload.
    #[inline]
    pub fn payload(&self) -> &[i8] {
        &self.data
    }

    /// Dequantization scale.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Precomputed payload sum.
    #[inline]
    pub fn sum(&self) -> i32 {
        self.sum
    }

    /// Query length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the query is empty (d = 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_matrix() -> Matrix {
        Matrix::from_rows(&[
            &[0.5, -1.25, 3.0, 0.0],
            &[-2.0, -2.0, -2.0, -2.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[1e-3, -1e-3, 5e-4, 0.0],
        ])
    }

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let w = toy_matrix();
        let qm = QuantizedMatrix::quantize(&w);
        for r in 0..w.rows() {
            let back = qm.dequantize_row(r);
            for (k, (&orig, &deq)) in w.row(r).iter().zip(&back).enumerate() {
                assert!(
                    (orig - deq).abs() <= qm.scale(r) * 0.5 + 1e-7,
                    "row {r} col {k}: {orig} vs {deq} (scale {})",
                    qm.scale(r)
                );
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_exact_zero() {
        let qm = QuantizedMatrix::quantize(&toy_matrix());
        assert!(qm.dequantize_row(2).iter().all(|&v| v == 0.0));
        // The nudged range keeps 0.0 representable in every row.
        for r in 0..4 {
            let zp = qm.zero_point(r);
            assert!((0..=255).contains(&zp), "row {r} zero point {zp}");
            assert_eq!(qm.scale(r) * (zp - zp) as f32, 0.0);
        }
    }

    #[test]
    fn constant_rows_keep_a_positive_scale() {
        let qm = QuantizedMatrix::quantize(&toy_matrix());
        for r in 0..4 {
            assert!(qm.scale(r) > 0.0, "row {r}");
        }
        let back = qm.dequantize_row(1);
        for &v in &back {
            assert!((v - -2.0).abs() <= qm.scale(1) * 0.5 + 1e-6, "{v}");
        }
    }

    #[test]
    fn query_quantization_is_symmetric_and_summed() {
        let q = [1.0f32, -0.5, 0.25, 0.0];
        let qq = QuantizedQuery::quantize(&q);
        assert_eq!(qq.len(), 4);
        assert_eq!(qq.payload()[0], 127);
        assert_eq!(qq.payload()[3], 0);
        assert_eq!(qq.sum(), qq.payload().iter().map(|&v| v as i32).sum::<i32>());
        for (k, &v) in q.iter().enumerate() {
            let deq = qq.scale() * qq.payload()[k] as f32;
            assert!((v - deq).abs() <= qq.scale() * 0.5 + 1e-7, "col {k}");
        }
    }

    #[test]
    fn zero_query_quantizes_cleanly() {
        let qq = QuantizedQuery::quantize(&[0.0; 8]);
        assert!(qq.payload().iter().all(|&v| v == 0));
        assert_eq!(qq.sum(), 0);
        assert!(qq.scale() > 0.0);
    }

    #[test]
    fn requantize_reuses_the_buffer() {
        let mut qq = QuantizedQuery::quantize(&[1.0, 2.0, 3.0]);
        qq.requantize(&[-4.0, 0.0]);
        assert_eq!(qq.len(), 2);
        assert_eq!(qq.payload()[0], -127);
        assert_eq!(qq.payload()[1], 0);
    }
}
