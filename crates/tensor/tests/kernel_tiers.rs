//! Tier-parity suite for the kernel layer: every explicit SIMD tier (AVX2,
//! AVX-512) must agree with the portable reference tier on every kernel —
//! ≤ 1e-5 on arbitrary floats, **bit-exact** on integer-valued inputs (whose
//! products and sums are exactly representable, so any accumulation order and
//! FMA contraction yield the same bits) — across tail lengths 0..=200 (two `4 * LANES` main
//! steps of `dot` plus every remainder rung at both lane widths) and odd
//! shapes. Also pins the dispatch machinery: `HAM_KERNEL_TIER` forcing is
//! honored (verified in a subprocess so the one-time resolution actually runs
//! under the variable) and `force_tier` overrides in-process.

use ham_tensor::kernels::{
    active_tier, axpy_with_tier, dot_with_tier, matmul_transposed_with_tier, matmul_with_tier,
    matvec_transposed_into_with_tier, KernelTier,
};
use ham_tensor::Matrix;
use proptest::prelude::*;

/// The SIMD tiers under test, whichever this machine can run. Every parity
/// test is vacuously green on hardware without AVX2+FMA (the portable tier is
/// the reference — there is nothing to compare), which keeps the suite
/// portable; on AVX-512 hardware both SIMD tiers are checked.
fn simd_tiers() -> Vec<KernelTier> {
    [KernelTier::Avx2, KernelTier::Avx512].into_iter().filter(|t| t.supported()).collect()
}

/// ≤ 1e-5 agreement, scaled by magnitude: the tiers reassociate and fuse the
/// same ascending-k accumulation, so the divergence is rounding noise
/// proportional to the accumulated magnitude.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * (1.0 + a.abs().max(b.abs()))
}

/// [`close`] against an explicit accumulated magnitude `Σ|a_k · b_k|`: what a
/// long row needs, whose terms can cancel to a result far smaller than the
/// sums the rounding happened in. Only the lengths past 40 use it.
fn close_at(a: f32, b: f32, magnitude: f32) -> bool {
    (a - b).abs() <= 1e-5 * (1.0 + magnitude)
}

fn float_matrix(rows: usize, cols: usize, seed: &[f32]) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| seed[i % seed.len()] * ((i % 17) as f32 - 8.0)).collect())
}

/// Integer-valued matrix in a range where every product and partial sum is
/// exactly representable in f32.
fn integer_matrix(rows: usize, cols: usize, offset: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| ((i + offset) % 19) as f32 - 9.0).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_tiers_agree_on_floats(values in proptest::collection::vec(-4.0f32..4.0, 0..201)) {
        let a = values.clone();
        let b: Vec<f32> = values.iter().rev().map(|v| v * 0.75 + 0.125).collect();
        let portable = dot_with_tier(KernelTier::Portable, &a, &b);
        for simd in simd_tiers() {
            let fast = dot_with_tier(simd, &a, &b);
            prop_assert!(close(portable, fast), "{simd} len {}: {portable} vs {fast}", a.len());
        }
    }

    #[test]
    fn matvec_tiers_agree_on_floats(n in 1usize..70, d in 1usize..40, scale in 0.1f32..2.0) {
        let w = float_matrix(n, d, &[scale, -scale * 0.5, scale * 0.25]);
        let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.31).sin() * scale).collect();
        let mut reference = vec![0.0f32; n];
        matvec_transposed_into_with_tier(KernelTier::Portable, &w, &q, &mut reference);
        for simd in simd_tiers() {
            let mut fast = vec![0.0f32; n];
            matvec_transposed_into_with_tier(simd, &w, &q, &mut fast);
            for j in 0..n {
                prop_assert!(close(reference[j], fast[j]), "{simd} n={n} d={d} j={j}");
            }
        }
    }

    /// The lengths that reach `dot`'s `4 * LANES` main step. Rows this long
    /// cancel to results far below the sums they were rounded in, so the
    /// bound scales with the accumulated magnitude instead of the result.
    #[test]
    fn long_matvec_tiers_agree_on_floats(n in 1usize..70, d in 40usize..201, scale in 0.1f32..2.0) {
        let w = float_matrix(n, d, &[scale, -scale * 0.5, scale * 0.25]);
        let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.31).sin() * scale).collect();
        let mut reference = vec![0.0f32; n];
        matvec_transposed_into_with_tier(KernelTier::Portable, &w, &q, &mut reference);
        for simd in simd_tiers() {
            let mut fast = vec![0.0f32; n];
            matvec_transposed_into_with_tier(simd, &w, &q, &mut fast);
            for j in 0..n {
                let magnitude: f32 = w.row(j).iter().zip(&q).map(|(x, y)| (x * y).abs()).sum();
                prop_assert!(close_at(reference[j], fast[j], magnitude), "{simd} n={n} d={d} j={j}");
            }
        }
    }

    #[test]
    fn gemm_tiers_agree_on_floats(m in 1usize..12, n in 1usize..70, d in 1usize..40) {
        let a = float_matrix(m, d, &[0.7, -0.3, 1.1]);
        let b = float_matrix(n, d, &[0.4, 0.9, -0.6]);
        let reference = matmul_transposed_with_tier(KernelTier::Portable, &a, &b);
        for simd in simd_tiers() {
            let fast = matmul_transposed_with_tier(simd, &a, &b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!(close(reference.get(i, j), fast.get(i, j)), "{simd} ({m},{n},{d}) at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matmul_tiers_agree_on_floats(m in 1usize..8, p in 1usize..20, n in 1usize..150) {
        let a = float_matrix(m, p, &[0.5, -1.2, 0.8]);
        let b = float_matrix(p, n, &[0.3, 0.9, -0.4]);
        let reference = matmul_with_tier(KernelTier::Portable, &a, &b);
        for simd in simd_tiers() {
            let fast = matmul_with_tier(simd, &a, &b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!(close(reference.get(i, j), fast.get(i, j)), "{simd} ({m},{p},{n}) at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matmul_tiers_agree_on_sparse_rows(m in 1usize..6, p in 4usize..20, n in 1usize..150, hot in 0usize..4) {
        // One-hot / mostly-zero left rows take the zero-skip path in every
        // tier; results must be bit-identical to the dense classification
        // (integer inputs make the comparison exact).
        let mut a = Matrix::zeros(m, p);
        for i in 0..m {
            a.set(i, (hot + i) % p, (i + 2) as f32);
        }
        let b = integer_matrix(p, n, 3);
        let reference = matmul_with_tier(KernelTier::Portable, &a, &b);
        for simd in simd_tiers() {
            let fast = matmul_with_tier(simd, &a, &b);
            prop_assert_eq!(reference.as_slice(), fast.as_slice(), "{}", simd);
        }
    }

    #[test]
    fn axpy_tiers_agree_on_floats(values in proptest::collection::vec(-4.0f32..4.0, 0..40), alpha in -2.0f32..2.0) {
        let x = values.clone();
        let base: Vec<f32> = values.iter().rev().map(|v| v * 0.5 - 0.25).collect();
        let mut reference = base.clone();
        axpy_with_tier(KernelTier::Portable, &mut reference, alpha, &x);
        for simd in simd_tiers() {
            let mut fast = base.clone();
            axpy_with_tier(simd, &mut fast, alpha, &x);
            for j in 0..x.len() {
                prop_assert!(close(reference[j], fast[j]), "{simd} len {} j={j}: {} vs {}", x.len(), reference[j], fast[j]);
            }
        }
    }
}

/// Bit-exactness on integer-valued inputs, all four kernels, every tail
/// length 0..=200 (dot/axpy) and a sweep of odd shapes (GEMM/matmul).
#[test]
fn tiers_are_bit_exact_on_integer_values() {
    for simd in simd_tiers() {
        for len in 0..=200 {
            let a: Vec<f32> = (0..len).map(|i| (i % 11) as f32 - 5.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i % 7) as f32 - 3.0).collect();
            let portable = dot_with_tier(KernelTier::Portable, &a, &b);
            let fast = dot_with_tier(simd, &a, &b);
            assert_eq!(portable.to_bits(), fast.to_bits(), "{simd} dot len {len}");

            let mut axpy_ref = b.clone();
            let mut axpy_fast = b.clone();
            axpy_with_tier(KernelTier::Portable, &mut axpy_ref, 3.0, &a);
            axpy_with_tier(simd, &mut axpy_fast, 3.0, &a);
            assert_eq!(axpy_ref, axpy_fast, "{simd} axpy len {len}");
        }
        for (m, n, d) in [
            (1, 1, 1),
            (3, 17, 5),
            (4, 33, 39),
            (5, 130, 8),
            (7, 40, 32),
            (2, 16, 16),
            (3, 9, 80),
            (2, 21, 150),
            (1, 5, 200),
        ] {
            let a = integer_matrix(m, d, 1);
            let b = integer_matrix(n, d, 7);
            let q: Vec<f32> = (0..d).map(|k| (k % 5) as f32 - 2.0).collect();

            let mut mv_ref = vec![0.0f32; n];
            let mut mv_fast = vec![0.0f32; n];
            matvec_transposed_into_with_tier(KernelTier::Portable, &b, &q, &mut mv_ref);
            matvec_transposed_into_with_tier(simd, &b, &q, &mut mv_fast);
            assert_eq!(mv_ref, mv_fast, "{simd} matvec ({n},{d})");

            let gemm_ref = matmul_transposed_with_tier(KernelTier::Portable, &a, &b);
            let gemm_fast = matmul_transposed_with_tier(simd, &a, &b);
            assert_eq!(gemm_ref.as_slice(), gemm_fast.as_slice(), "{simd} gemm ({m},{n},{d})");

            let bb = integer_matrix(d, n, 5);
            let mm_ref = matmul_with_tier(KernelTier::Portable, &a, &bb);
            let mm_fast = matmul_with_tier(simd, &a, &bb);
            assert_eq!(mm_ref.as_slice(), mm_fast.as_slice(), "{simd} matmul ({m},{d},{n})");
        }
    }
}

/// Within each SIMD tier, a GEMV row's bits must not depend on the shard it
/// sits in — the property the serving layer's exactness rests on.
#[test]
fn simd_gemv_rows_are_position_independent() {
    for simd in simd_tiers() {
        // d = 23 never reaches a main step; 80 / 96 / 150 run one or two of
        // them and then each remainder rung of `dot` at both lane widths.
        for d in [23, 80, 96, 150] {
            let w = float_matrix(57, d, &[0.9, -0.2, 0.6]);
            let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.17).cos()).collect();
            let mut full = vec![0.0f32; 57];
            matvec_transposed_into_with_tier(simd, &w, &q, &mut full);
            for (start, len) in [(0usize, 10usize), (10, 21), (31, 26), (56, 1)] {
                let shard = Matrix::from_vec(len, d, w.as_slice()[start * d..(start + len) * d].to_vec());
                let mut part = vec![0.0f32; len];
                matvec_transposed_into_with_tier(simd, &shard, &q, &mut part);
                for j in 0..len {
                    assert_eq!(
                        part[j].to_bits(),
                        full[start + j].to_bits(),
                        "{simd} d={d} shard {start}+{len} row {j}"
                    );
                }
            }
        }
    }
}

/// Prints the resolved tier; run as a subprocess by
/// `env_var_forcing_is_honored` so the one-time dispatch resolution actually
/// happens under a controlled `HAM_KERNEL_TIER`.
#[test]
fn tier_probe() {
    println!("active-tier={}", active_tier());
}

/// `HAM_KERNEL_TIER` must win over auto-detection. The resolution is cached
/// in a process-wide atomic, so the honest test is a fresh process: re-run
/// this same test binary filtered to `tier_probe` with the variable set and
/// check what the probe printed.
#[test]
fn env_var_forcing_is_honored() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cases = vec![("scalar", KernelTier::Portable), ("portable", KernelTier::Portable)];
    if KernelTier::Avx2.supported() {
        cases.push(("avx2", KernelTier::Avx2));
        cases.push(("simd", KernelTier::Avx2));
    }
    if KernelTier::Avx512.supported() {
        cases.push(("avx512", KernelTier::Avx512));
    }
    for (value, expected) in cases {
        let output = std::process::Command::new(&exe)
            .args(["tier_probe", "--exact", "--nocapture", "--test-threads", "1"])
            .env("HAM_KERNEL_TIER", value)
            .output()
            .expect("failed to re-run the test binary");
        assert!(output.status.success(), "probe run failed for {value}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&format!("active-tier={expected}")),
            "HAM_KERNEL_TIER={value} resolved wrongly; probe output:\n{stdout}"
        );
    }
}

/// `force_tier` overrides the dispatched tier in-process and `None` clears
/// the override back to auto-resolution — for every supported tier.
#[test]
fn force_tier_round_trip() {
    ham_tensor::kernels::force_tier(Some(KernelTier::Portable));
    assert_eq!(active_tier(), KernelTier::Portable);
    for simd in simd_tiers() {
        ham_tensor::kernels::force_tier(Some(simd));
        assert_eq!(active_tier(), simd);
    }
    ham_tensor::kernels::force_tier(None);
    assert!(active_tier().supported());
}
