//! The x86_64 AVX-512 tier: the kernel template of `simd.rs` at `LANES` = 16.
//!
//! This file supplies the 512-bit lane vocabulary the template is written
//! against — renames of the `std::arch` intrinsics plus the fixed-order f32
//! horizontal sum — and stamps the kernels with `avx512f,avx512bw` enabled:
//! `avx512f` covers the f32 FMA kernels, `avx512bw` the 512-bit byte/word
//! conversions and the widening `pmaddwd` of the quantized kernels (the
//! `vl`/`dq` extensions most such CPUs also expose are not needed).

use core::arch::x86_64::{
    __m512, _mm256_add_ps, _mm256_castpd_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm512_castps512_ps256,
    _mm512_castps_pd, _mm512_extractf64x4_pd, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
};
use core::arch::x86_64::{
    _mm256_loadu_si256 as hloadu, _mm512_add_epi32 as iadd, _mm512_add_ps as add, _mm512_cvtepi32_ps as cvt_f32,
    _mm512_cvtepi8_epi16 as widen_i8, _mm512_cvtepu8_epi16 as widen_u8, _mm512_fmadd_ps as fma,
    _mm512_loadu_ps as loadu, _mm512_loadu_si512 as iloadu, _mm512_madd_epi16 as madd16, _mm512_mul_ps as mul,
    _mm512_mullo_epi32 as imullo, _mm512_reduce_add_epi32 as ihsum, _mm512_set1_epi32 as isplat,
    _mm512_set1_ps as splat, _mm512_setzero_ps as zero, _mm512_setzero_si512 as izero, _mm512_storeu_ps as storeu,
    _mm512_storeu_si512 as istoreu, _mm512_sub_epi32 as isub,
};

/// f32 (and i32) lanes per vector register.
const LANES: usize = 16;

/// Horizontal sum of one 16-float vector in a fixed reduction order: the
/// two 256-bit halves are added lane-wise, then reduced with the same
/// explicit shuffle tree as the AVX2 tier's `hsum`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
fn hsum(v: __m512) -> f32 {
    let lo = _mm512_castps512_ps256(v);
    // Extract the upper 256 bits via the f64 view: `_mm512_extractf64x4_pd`
    // only needs avx512f (the f32 flavour would pull in avx512dq).
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
    let o = _mm256_add_ps(lo, hi);
    let q = _mm_add_ps(_mm256_castps256_ps128(o), _mm256_extractf128_ps::<1>(o));
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps::<0b01>(h, h));
    _mm_cvtss_f32(s)
}

simd_tier_kernels!("avx512f,avx512bw");
