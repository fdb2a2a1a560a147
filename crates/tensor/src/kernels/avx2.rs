//! The x86_64 AVX2+FMA tier: the kernel template of `simd.rs` at `LANES` = 8.
//!
//! This file supplies the 256-bit lane vocabulary the template is written
//! against — renames of the `std::arch` intrinsics plus the two fixed-order
//! horizontal sums — and stamps the kernels with `avx2,fma` enabled, so the
//! tier needs no `-C target-cpu=native` to emit vector FMAs.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_castps256_ps128, _mm256_castsi256_si128, _mm256_extractf128_ps, _mm256_extracti128_si256,
    _mm_add_epi32, _mm_add_ps, _mm_add_ss, _mm_cvtsi128_si32, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_epi32,
    _mm_shuffle_ps,
};
use core::arch::x86_64::{
    _mm256_add_epi32 as iadd, _mm256_add_ps as add, _mm256_cvtepi32_ps as cvt_f32, _mm256_cvtepi8_epi16 as widen_i8,
    _mm256_cvtepu8_epi16 as widen_u8, _mm256_fmadd_ps as fma, _mm256_loadu_ps as loadu, _mm256_loadu_si256 as iloadu,
    _mm256_madd_epi16 as madd16, _mm256_mul_ps as mul, _mm256_mullo_epi32 as imullo, _mm256_set1_epi32 as isplat,
    _mm256_set1_ps as splat, _mm256_setzero_ps as zero, _mm256_setzero_si256 as izero, _mm256_storeu_ps as storeu,
    _mm256_storeu_si256 as istoreu, _mm256_sub_epi32 as isub, _mm_loadu_si128 as hloadu,
};

/// f32 (and i32) lanes per vector register.
const LANES: usize = 8;

/// Horizontal sum of one 8-float vector in a fixed reduction order:
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let q = _mm_add_ps(lo, hi);
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps::<0b01>(h, h));
    _mm_cvtss_f32(s)
}

/// Horizontal sum of 8 `i32` lanes (exact in any order).
#[inline]
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
fn ihsum(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let q = _mm_add_epi32(lo, hi);
    let h = _mm_add_epi32(q, _mm_shuffle_epi32::<0b0100_1110>(q));
    let s = _mm_add_epi32(h, _mm_shuffle_epi32::<0b0101_0101>(h));
    _mm_cvtsi128_si32(s)
}

simd_tier_kernels!("avx2,fma");
