//! Property suite for the int8 quantized scoring path: the a-priori error
//! bound (scaled by the per-row magnitude through `scale_r`), exact
//! integer-accumulation bit-identity across tiers, and round-trip behaviour
//! of the affine scheme on arbitrary inputs.

use ham_tensor::kernels::{
    quantized_dot_with_tier, quantized_matmul_transposed_into_with_tier, quantized_matvec_into_with_tier, KernelTier,
};
use ham_tensor::quant::score_error_bound;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery};
use proptest::prelude::*;

/// Every tier runnable on this machine; the quantized kernels must agree
/// bit-for-bit across all of them (integer accumulation is exact).
fn all_tiers() -> Vec<KernelTier> {
    [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512].into_iter().filter(|t| t.supported()).collect()
}

fn exact_score(row: &[f32], q: &[f32]) -> f32 {
    row.iter().zip(q).map(|(w, x)| (*w as f64) * (*x as f64)).sum::<f64>() as f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantized score of every row stays within the a-priori bound of
    /// the exact score — the bound scales with the per-row magnitude
    /// (`scale_r = (max − min)/255`), so large-magnitude rows are allowed
    /// proportionally more absolute error and small rows almost none.
    #[test]
    fn quantized_score_respects_the_error_bound(
        rows in proptest::collection::vec(proptest::collection::vec(-8.0f32..8.0, 12..13), 1..12),
        q in proptest::collection::vec(-3.0f32..3.0, 12..13),
    ) {
        let n = rows.len();
        let w = Matrix::from_vec(n, 12, rows.concat());
        let qw = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&q);
        let mut scores = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &qw, &qq, &mut scores);
        for (j, &score) in scores.iter().enumerate() {
            let exact = exact_score(w.row(j), &q);
            let bound = score_error_bound(w.row(j), &q);
            prop_assert!(
                (exact - score).abs() <= bound,
                "row {j}: |{exact} - {score}| > bound {bound}"
            );
        }
    }

    /// Scaling a row scales its permitted error: the bound itself must be
    /// (close to) homogeneous in the row magnitude, which pins the
    /// "scaled by per-row magnitude" property directly.
    #[test]
    fn error_bound_scales_with_row_magnitude(
        row in proptest::collection::vec(-4.0f32..4.0, 1..24),
        q in proptest::collection::vec(-2.0f32..2.0, 24..25),
        factor in 2.0f32..16.0,
    ) {
        let q = &q[..row.len()];
        let scaled: Vec<f32> = row.iter().map(|v| v * factor).collect();
        let base = score_error_bound(&row, q);
        let grown = score_error_bound(&scaled, q);
        // The |w|·scale_q terms scale exactly; the scale_r terms scale
        // exactly too — the whole bound is homogeneous degree 1 in the row.
        prop_assert!(
            (grown - factor * base).abs() <= 1e-3 * (1.0 + grown.abs()),
            "bound {base} scaled by {factor} gave {grown}"
        );
    }

    /// Quantized scores are bit-identical across every supported tier and
    /// across row groupings (integer accumulation is associative), for all
    /// three kernel entry points.
    #[test]
    fn quantized_kernels_are_bit_identical_across_tiers(
        n in 1usize..20,
        d in 1usize..48,
        seed in 0usize..32,
    ) {
        let w = Matrix::from_vec(
            n, d,
            (0..n * d).map(|i| (((i * 31 + seed * 7) % 41) as f32 - 20.0) * 0.21).collect(),
        );
        let qf: Vec<f32> = (0..d).map(|k| ((k * 13 + seed) % 23) as f32 * 0.17 - 1.9).collect();
        let qw = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&qf);
        let mut reference = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &qw, &qq, &mut reference);
        for tier in all_tiers() {
            let mut fast = vec![f32::NAN; n];
            quantized_matvec_into_with_tier(tier, &qw, &qq, &mut fast);
            for j in 0..n {
                prop_assert_eq!(fast[j].to_bits(), reference[j].to_bits(), "{} matvec row {}", tier, j);
                let single = quantized_dot_with_tier(tier, &qw, j, &qq);
                prop_assert_eq!(single.to_bits(), reference[j].to_bits(), "{} dot row {}", tier, j);
            }
            let mut batch = Matrix::zeros(2, n);
            quantized_matmul_transposed_into_with_tier(tier, &[qq.clone(), qq.clone()], &qw, &mut batch);
            for b in 0..2 {
                for (j, r) in reference.iter().enumerate() {
                    prop_assert_eq!(batch.get(b, j).to_bits(), r.to_bits(), "{} gemm ({},{})", tier, b, j);
                }
            }
        }
    }

    /// Row-grouping independence: scoring a slice of the rows alone gives the
    /// same bits as the corresponding entries of the full panel — the
    /// property the sharded quantized pre-selection rests on.
    #[test]
    fn quantized_scores_are_position_independent(split in 1usize..19) {
        let (n, d) = (20usize, 24usize);
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 37) % 29) as f32 * 0.13 - 1.8).collect());
        let qf: Vec<f32> = (0..d).map(|k| (k as f32 * 0.23).sin()).collect();
        let qq = QuantizedQuery::quantize(&qf);
        let full = QuantizedMatrix::quantize(&w);
        let mut full_scores = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &full, &qq, &mut full_scores);
        for (start, len) in [(0, split), (split, n - split)] {
            let shard = Matrix::from_vec(len, d, w.as_slice()[start * d..(start + len) * d].to_vec());
            let panel = QuantizedMatrix::quantize(&shard);
            let mut part = vec![0.0f32; len];
            for tier in all_tiers() {
                quantized_matvec_into_with_tier(tier, &panel, &qq, &mut part);
                for j in 0..len {
                    prop_assert_eq!(
                        part[j].to_bits(), full_scores[start + j].to_bits(),
                        "{} shard {}+{} row {}", tier, start, len, j
                    );
                }
            }
        }
    }

    /// Affine round-trip: every dequantized element lands within one step of
    /// the original (half a step from rounding, up to another half from
    /// clamping at the nudged range edge).
    #[test]
    fn round_trip_is_within_one_step(row in proptest::collection::vec(-10.0f32..10.0, 1..40)) {
        let w = Matrix::from_vec(1, row.len(), row.clone());
        let qw = QuantizedMatrix::quantize(&w);
        let back = qw.dequantize_row(0);
        for (k, (&orig, &deq)) in row.iter().zip(&back).enumerate() {
            prop_assert!(
                (orig - deq).abs() <= qw.scale(0) + 1e-6,
                "col {k}: {orig} vs {deq} (scale {})", qw.scale(0)
            );
        }
    }
}

/// Every tail of the integer dot: lengths 0..=100 run its `2 * LANES` step
/// zero to six times at 8 lanes and zero to three at 16, each followed by
/// every scalar-tail length, and all tiers must still agree bit for bit.
#[test]
fn quantized_dot_is_bit_identical_across_tiers_for_all_tail_lengths() {
    for d in 0..=100usize {
        let w = Matrix::from_vec(3, d, (0..3 * d).map(|i| ((i * 29) % 37) as f32 * 0.19 - 3.3).collect());
        let qf: Vec<f32> = (0..d).map(|k| ((k * 11) % 17) as f32 * 0.23 - 1.7).collect();
        let (qw, qq) = (QuantizedMatrix::quantize(&w), QuantizedQuery::quantize(&qf));
        for j in 0..3 {
            let reference = quantized_dot_with_tier(KernelTier::Portable, &qw, j, &qq);
            for tier in all_tiers() {
                let got = quantized_dot_with_tier(tier, &qw, j, &qq);
                assert_eq!(got.to_bits(), reference.to_bits(), "{tier} d={d} row {j}");
            }
        }
    }
}
