//! Batched linear-algebra kernels: the hot-path substrate behind scoring,
//! training and evaluation — now a tiered subsystem with one-time runtime
//! dispatch.
//!
//! The HAM scorer is `r_ij = q_i · w_j`: one query vector per user against
//! every row of the candidate-embedding matrix `W ∈ R^{n×d}`. Done naively
//! (one [`dot`] per item) that walk is latency-bound — each row's accumulator
//! chain serialises the FMAs and `W` is streamed once per user. The kernels
//! here restructure the same arithmetic for instruction- and cache-level
//! parallelism while keeping every per-element accumulation in ascending-`k`
//! order, so results stay within float-rounding distance (≤ 1e-5) of the
//! scalar loops they replace:
//!
//! * [`dot`] — multi-accumulator dot product (eight scalar partial sums on
//!   the portable tier, four `LANES`-wide FMA chains on the SIMD tiers).
//! * [`matvec_transposed`] / [`matvec_transposed_into`] — `W · q` for one
//!   query against the whole catalogue in one fused pass over `W` (one user,
//!   all items: the serving fast path; the `_into` variant writes a caller
//!   buffer so the serving loop allocates nothing per request;
//!   [`matvec_transposed_rows_into`] is its row-range entry, what the tier
//!   kernels implement, and scores a shard of a shared catalogue in place).
//! * [`matmul_transposed`] / [`matmul_transposed_into`] — packed-panel
//!   `A · Bᵀ` whose inner loop is a contiguous axpy over an L1-resident
//!   transposed panel of `B` (many users, all items: the `Q · Wᵀ`
//!   batched-evaluation fast path; register-blocked 4 × `2·LANES` FMA tiles
//!   on the SIMD tiers).
//! * [`matmul_transposed_rows_into`] /
//!   [`quantized_matmul_transposed_rows_into`] — the **row-range entry** of
//!   the scoring GEMMs: `A · B[rows]ᵀ` into a caller's slice, reading the
//!   rows of `B` in place. It is what the tier kernels actually implement
//!   (they take row-major slices plus dims; the `&Matrix` entry points above
//!   are thin wrappers over the full range), and it lets the serving layer
//!   walk a shard in L2-sized column tiles ([`gemm_tile_rows`]) through one
//!   reusable buffer instead of materialising the `batch × shard` block —
//!   with no per-tile copies of `B` anywhere, at freeze or at request time.
//! * [`matmul`] — cache-blocked `A · B` with a branch-free dense inner loop;
//!   rows that are mostly zero (the one-hot and masked matrices the autograd
//!   tape produces) take a bit-identical skip path instead.
//! * [`axpy`] — scaled row update `out += α·x` (the rank-1 updates the
//!   mini-batched BPR trainer accumulates embedding gradients with).
//!
//! ## Tiers and runtime dispatch
//!
//! | tier | selected when | implementation |
//! |---|---|---|
//! | [`KernelTier::Portable`] | always available (the fallback) | safe multi-accumulator loops in `portable.rs`; vectorize under `-C target-cpu=native`, stay correct (scalar/SSE2) without it |
//! | [`KernelTier::Avx2`] | `x86_64` with `avx2`+`fma` detected at runtime | the explicit `std::arch` kernel template of `simd.rs` stamped at `LANES` = 8 by `avx2.rs`; needs **no** `target-cpu=native` to emit vector FMAs |
//! | [`KernelTier::Avx512`] | `x86_64` with `avx512f`+`avx512bw` detected at runtime | the same template stamped at `LANES` = 16 by `avx512.rs`; preferred over AVX2 when present |
//!
//! The two SIMD tiers are **one source**: every explicit-SIMD kernel body is
//! written once in `simd.rs` against a small lane vocabulary, and each tier
//! module is that vocabulary (renamed intrinsics, its horizontal sums) plus
//! one `simd_tier_kernels!` line. `portable.rs` stays hand-written on
//! purpose — it is the safe reference every tier-parity test compares
//! against, and its shapes (eight scalar partial sums, `+=` rather than FMA)
//! are not the SIMD tiers'. Every `*_impl` dispatcher below routes through
//! the single `on_tier!` arm, which carries the SAFETY argument once.
//!
//! The dispatcher resolves the tier **once** per process (cached in an
//! atomic): the `HAM_KERNEL_TIER` environment variable wins if set
//! (`scalar`/`portable`, `avx2`/`simd`, `avx512`, or `auto`), otherwise
//! `is_x86_feature_detected!` picks the best supported tier
//! (avx512 > avx2 > portable). [`active_tier`]
//! reports the decision; [`force_tier`] overrides it in-process for tests
//! and benchmarks. `-C target-cpu=native` is no longer required for vector
//! speed — it still buys better codegen for the *portable* tier and for all
//! non-kernel code, but portable builds now hit the best SIMD tier at runtime.
//!
//! ## Quantized kernels
//!
//! The int8 candidate-scoring path ([`crate::quant`]) has its own kernel
//! family behind the same dispatcher: [`quantized_dot`],
//! [`quantized_matvec_into`] and [`quantized_matmul_transposed_into`] score
//! a [`QuantizedMatrix`] panel (1 byte/element instead of 4) against
//! [`QuantizedQuery`] vectors. Their integer accumulation is exact, so —
//! unlike the f32 kernels — quantized scores are **bit-identical across
//! every tier** and every shard/panel grouping by construction.
//!
//! ## Which entry point applies?
//!
//! | call site | kernel |
//! |---|---|
//! | score one user, few candidate items | [`dot`] per candidate |
//! | score one user, whole catalogue | [`matvec_transposed`] (serving: [`matvec_transposed_into`]) |
//! | score one user against one shard's rows, in place | [`matvec_transposed_rows_into`] |
//! | score a user batch, whole catalogue | [`matmul_transposed`] (`Q·Wᵀ`) |
//! | score a user batch and rank it, tile by tile | [`matmul_transposed_rows_into`] over [`gemm_tile_rows`]-row tiles |
//! | dense forward/backward products | [`matmul`] |
//!
//! All kernels are exact for exactly-representable inputs (the unit tests
//! pin integer-valued cases bit-for-bit) and agree with the naive loops to
//! within accumulation-order rounding otherwise. Within one tier, an output
//! element's bits never depend on how rows are grouped into panels, shards
//! or register tiles — for the GEMMs every element is a single accumulation
//! chain in ascending-`k` order regardless of tile path, and for
//! [`dot`]/[`matvec_transposed`] each row uses one fixed multi-chain
//! reduction shape that depends only on the row's length, never its
//! position (on the SIMD tiers: whole `4·LANES` steps into four named
//! accumulators, then up to three lone `LANES`-chunks into accumulators 0, 1,
//! 2 in order, one fixed-order horizontal sum, a scalar-FMA tail). That
//! per-row/per-element position-independence is what keeps the sharded
//! serving layer bit-identical to the single-node path — and it
//! is load-bearing twice over since the batch path went tiled: the serving
//! driver scores a shard as a sequence of row-range GEMMs and relies on every
//! tile element carrying the bits the whole-matrix product would have given
//! it (`row_range_entries_match_the_full_product_bit_for_bit` pins this per
//! tier, for ranges that split panels and quantized row groups). (The two
//! properties differ: a new tier must match its *own* rows across groupings,
//! not reproduce another tier's chain shape.)

// Declared ahead of the tier modules: `simd_tier_kernels!` is in textual
// scope for the modules that follow, and nowhere outside `kernels`.
#[cfg(target_arch = "x86_64")]
#[macro_use]
mod simd;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod counters;
mod portable;

use crate::quant::{QuantizedMatrix, QuantizedQuery};
use crate::Matrix;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Column-panel width for the blocked [`matmul`]: the output row segment
/// (4 B/element) and the corresponding panel of `B` stay L1/L2-resident.
const MATMUL_J_BLOCK: usize = 128;

/// Row-panel height for the blocked [`matmul_transposed`]: a panel of `B`
/// rows is re-packed k-major and kept L1-resident while every row of `A` is
/// scored against it (`128 rows × d floats`; 16 KB at d = 32).
const GEMM_B_PANEL: usize = 128;

/// Output-block budget of one column tile of the scoring GEMM
/// ([`gemm_tile_rows`]): half a MiB of scores leaves the rest of a 1–2 MiB
/// L2 to the tile's rows of `B` (256 KiB at 2 048 rows × d = 32) and the
/// packed panel, so the select that follows the GEMM reads the tile from
/// cache, not from memory.
const GEMM_TILE_BYTES: usize = 512 * 1024;

/// Number of independent partial sums in the portable [`dot`]: one full
/// vector register of accumulators, so the reduction vectorizes instead of
/// serialising on a single accumulator chain.
const DOT_LANES: usize = 8;

/// One implementation tier of the kernel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Safe, architecture-independent loops (the reference implementation).
    Portable,
    /// Explicit x86_64 AVX2+FMA microkernels (runtime-detected).
    Avx2,
    /// Explicit x86_64 AVX-512 (F+BW) microkernels (runtime-detected).
    Avx512,
}

impl KernelTier {
    /// Whether this tier can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Portable => true,
            KernelTier::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelTier::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The tier's canonical name (the value `HAM_KERNEL_TIER` accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelTier::Portable => TIER_PORTABLE,
            KernelTier::Avx2 => TIER_AVX2,
            KernelTier::Avx512 => TIER_AVX512,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

const TIER_UNRESOLVED: u8 = 0;
const TIER_PORTABLE: u8 = 1;
const TIER_AVX2: u8 = 2;
const TIER_AVX512: u8 = 3;

/// The process-wide tier decision: resolved on first kernel call, then a
/// single relaxed atomic load per dispatch.
static ACTIVE_TIER: AtomicU8 = AtomicU8::new(TIER_UNRESOLVED);

#[inline]
fn dispatch() -> KernelTier {
    match ACTIVE_TIER.load(Ordering::Relaxed) {
        TIER_PORTABLE => KernelTier::Portable,
        TIER_AVX2 => KernelTier::Avx2,
        TIER_AVX512 => KernelTier::Avx512,
        _ => resolve_tier(),
    }
}

/// One-time tier resolution: `HAM_KERNEL_TIER` wins, otherwise runtime
/// feature detection. Unknown values and unsupported requests degrade to
/// auto-detection with a warning rather than aborting a serving process.
#[cold]
fn resolve_tier() -> KernelTier {
    let requested = std::env::var("HAM_KERNEL_TIER").ok();
    let tier = match requested.as_deref() {
        Some("scalar") | Some("portable") => KernelTier::Portable,
        Some("avx2") | Some("simd") => {
            if KernelTier::Avx2.supported() {
                KernelTier::Avx2
            } else {
                eprintln!("HAM_KERNEL_TIER requested the avx2 tier but the CPU lacks avx2+fma; using portable");
                KernelTier::Portable
            }
        }
        Some("avx512") => {
            if KernelTier::Avx512.supported() {
                KernelTier::Avx512
            } else {
                eprintln!(
                    "HAM_KERNEL_TIER requested the avx512 tier but the CPU lacks avx512f+avx512bw; auto-detecting"
                );
                detect_tier()
            }
        }
        None | Some("") | Some("auto") => detect_tier(),
        Some(other) => {
            eprintln!("HAM_KERNEL_TIER={other:?} not recognised (expected scalar|avx2|avx512|auto); auto-detecting");
            detect_tier()
        }
    };
    // compare_exchange rather than store: a concurrent `force_tier` must not
    // be clobbered by a resolution that was already in flight — whoever wrote
    // first wins and this resolution adopts the winner.
    match ACTIVE_TIER.compare_exchange(TIER_UNRESOLVED, tier.code(), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => tier,
        Err(TIER_AVX512) => KernelTier::Avx512,
        Err(TIER_AVX2) => KernelTier::Avx2,
        Err(_) => KernelTier::Portable,
    }
}

/// The best tier the current CPU supports (avx512 > avx2 > portable).
fn detect_tier() -> KernelTier {
    if KernelTier::Avx512.supported() {
        KernelTier::Avx512
    } else if KernelTier::Avx2.supported() {
        KernelTier::Avx2
    } else {
        KernelTier::Portable
    }
}

/// The tier the kernels currently dispatch to (resolving it if this is the
/// first kernel-layer touch of the process).
pub fn active_tier() -> KernelTier {
    dispatch()
}

/// Overrides the dispatched tier for this process (tests and benchmarks).
///
/// `Some(tier)` routes every subsequent kernel call to `tier`; `None` clears
/// the override so the next call re-resolves from `HAM_KERNEL_TIER` /
/// feature detection. Prefer the `*_with_tier` entry points for comparing
/// tiers side by side — they do not touch global state.
///
/// # Panics
/// Panics if the requested tier is not supported on this CPU.
pub fn force_tier(tier: Option<KernelTier>) {
    match tier {
        Some(t) => {
            assert!(t.supported(), "force_tier: the {t} tier is not supported on this CPU");
            ACTIVE_TIER.store(t.code(), Ordering::Relaxed);
        }
        None => ACTIVE_TIER.store(TIER_UNRESOLVED, Ordering::Relaxed),
    }
}

/// Packs `jw` rows of `b` (starting at row `j0`) k-major into `packed`:
/// `packed[k * jw + jj] = b[j0 + jj][k]` — the transposed panel every tier's
/// GEMM streams its inner loop over.
fn pack_panel_kmajor(b_data: &[f32], d: usize, j0: usize, jw: usize, packed: &mut [f32]) {
    for jj in 0..jw {
        let b_row = &b_data[(j0 + jj) * d..(j0 + jj + 1) * d];
        for (k, &bv) in b_row.iter().enumerate() {
            packed[k * jw + jj] = bv;
        }
    }
}

/// Classifies a row of the left operand of [`matmul`] as sparse: at least
/// half its entries are exactly zero, so the zero-skip loop beats the
/// branch-free dense loop. The one-hot and masked matrices the autograd tape
/// produces are almost entirely zero; dense model rows almost never contain
/// an exact 0.0. Both paths produce bit-identical results for finite inputs,
/// so the threshold affects speed only.
fn row_is_sparse(row: &[f32]) -> bool {
    let zeros = row.iter().filter(|&&v| v == 0.0).count();
    zeros * 2 >= row.len().max(1)
}

/// Turns the exact integer accumulator of a quantized dot into the
/// approximate f32 score:
/// `score ≈ scale_r · scale_q · (Σ p·s  −  zp_r · Σ s)`.
///
/// Shared by every tier so the (single) float rounding step is the identical
/// expression everywhere — together with the exact integer accumulation this
/// makes quantized scores bit-identical across tiers and row groupings.
#[inline]
fn quantized_score(acc: i32, zp: i32, scale_r: f32, q: &QuantizedQuery) -> f32 {
    (scale_r * q.scale()) * (acc - zp * q.sum()) as f32
}

/// The one dispatch arm: runs `kernel(args…)` on `tier`'s implementation —
/// the safe portable reference, or that tier's instantiation of the SIMD
/// template. Every `*_impl` function below ends in it.
macro_rules! on_tier {
    ($tier:expr, $kernel:ident($($arg:expr),*)) => {
        match $tier {
            KernelTier::Portable => portable::$kernel($($arg),*),
            // SAFETY: (both SIMD arms) every `*_impl` caller validated the
            // tier — `dispatch()` only yields a SIMD tier after runtime
            // feature detection, `checked()` asserts support for an explicit
            // one, and the `debug_assert_dispatchable` at the top of each
            // `*_impl` re-checks it in debug builds — so the CPU features the
            // arm's kernels were compiled for (avx2+fma, resp.
            // avx512f+avx512bw) are present.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe { avx2::$kernel($($arg),*) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => unsafe { avx512::$kernel($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 | KernelTier::Avx512 => unreachable!("SIMD tiers are never selected off x86_64"),
        }
    };
}

/// Dot product of two equal-length slices (tier-dispatched).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_impl(dispatch(), a, b)
}

/// [`dot`] on an explicit tier (tier-parity tests and benchmarks).
///
/// # Panics
/// Panics on length mismatch or an unsupported tier.
pub fn dot_with_tier(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    dot_impl(checked(tier), a, b)
}

fn dot_impl(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_dispatchable(tier);
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    counters::note(tier, 8 * a.len() as u64);
    on_tier!(tier, dot(a, b))
}

/// Scores one query against every row of `w`: returns `w · q`, i.e.
/// `out[j] = w.row(j) · q`, in a single fused pass over `w`.
///
/// This is the one-user/whole-catalogue fast path: `w` is streamed exactly
/// once while `q` stays register/L1-resident. Allocates the result; serving
/// loops that reuse a buffer should call [`matvec_transposed_into`].
///
/// # Panics
/// Panics if `q.len() != w.cols()`.
pub fn matvec_transposed(w: &Matrix, q: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; w.rows()];
    matvec_transposed_into(w, q, &mut out);
    out
}

/// [`matvec_transposed`] into a caller-provided buffer (overwritten), so the
/// serving hot path performs no per-request allocation.
///
/// # Panics
/// Panics if `q.len() != w.cols()` or `out.len() != w.rows()`.
#[inline]
pub fn matvec_transposed_into(w: &Matrix, q: &[f32], out: &mut [f32]) {
    matvec_transposed_into_impl(dispatch(), w, q, out)
}

/// [`matvec_transposed_into`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn matvec_transposed_into_with_tier(tier: KernelTier, w: &Matrix, q: &[f32], out: &mut [f32]) {
    matvec_transposed_into_impl(checked(tier), w, q, out)
}

/// The whole-`w` GEMV as a thin wrapper over the row-range entry.
fn matvec_transposed_into_impl(tier: KernelTier, w: &Matrix, q: &[f32], out: &mut [f32]) {
    let n = w.rows();
    assert_eq!(out.len(), n, "matvec_transposed_into: buffer holds {} scores for {} rows", out.len(), n);
    matvec_transposed_rows_into_impl(tier, w, q, 0..n, out)
}

/// The row-range entry of the GEMV: `out[j] = w.row(rows.start + j) · q`
/// into `out` (overwritten), reading the rows of `w` in place. It is what
/// the tier kernels implement (each row is the tier's [`dot`]), so a range
/// scores with the bits the whole-matrix GEMV gives those rows — a shard
/// that shares its catalogue's matrix scans its own range without a copy.
///
/// # Panics
/// Panics if `q.len() != w.cols()`, `rows` is out of bounds for `w`, or
/// `out.len() != rows.len()`.
#[inline]
pub fn matvec_transposed_rows_into(w: &Matrix, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
    matvec_transposed_rows_into_impl(dispatch(), w, q, rows, out)
}

fn matvec_transposed_rows_into_impl(tier: KernelTier, w: &Matrix, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
    debug_assert_dispatchable(tier);
    let (n, d) = (rows.len(), w.cols());
    assert_eq!(q.len(), d, "matvec_transposed: query length {} does not match {} columns", q.len(), d);
    assert!(
        rows.start <= rows.end && rows.end <= w.rows(),
        "matvec_transposed_rows_into: rows {rows:?} out of bounds for {} rows",
        w.rows()
    );
    assert_eq!(out.len(), n, "matvec_transposed_rows_into: buffer holds {} scores for {} rows", out.len(), n);
    counters::note(tier, 4 * (n * d + d + n) as u64);
    let w = &w.as_slice()[rows.start * d..rows.end * d];
    on_tier!(tier, matvec_transposed_into(w, d, q, out))
}

/// Blocked matrix product `a · bᵀ` (the batched `Q · Wᵀ` scoring GEMM).
///
/// `B` is processed in panels of `GEMM_B_PANEL` rows, each re-packed k-major
/// so the innermost loop streams contiguously over an L1-resident panel; the
/// SIMD tiers additionally register-block 4 rows × `2·LANES` columns of
/// output per FMA tile (4×16 on AVX2, 4×32 on AVX-512). `B` is streamed from
/// memory exactly once regardless of the batch size. Each output element accumulates in ascending-`k` order, so
/// results are bit-identical however the rows of `B` are grouped (the
/// sharded serving layer relies on this).
///
/// # Panics
/// Panics if the column dimensions do not agree.
pub fn matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_transposed_into(a, b, &mut out);
    out
}

/// [`matmul_transposed`] into a caller-provided matrix (overwritten).
///
/// # Panics
/// Panics if the column dimensions do not agree or `out` is not
/// `a.rows() × b.rows()`.
#[inline]
pub fn matmul_transposed_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_transposed_into_impl(dispatch(), a, b, out)
}

/// [`matmul_transposed_into`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn matmul_transposed_into_with_tier(tier: KernelTier, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_transposed_into_impl(checked(tier), a, b, out)
}

/// The whole-`b` product as a thin wrapper over the row-range entry.
fn matmul_transposed_into_impl(tier: KernelTier, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        out.shape(),
        (a.rows(), b.rows()),
        "matmul_transposed_into: output is {}x{} for a {}x{} product",
        out.rows(),
        out.cols(),
        a.rows(),
        b.rows()
    );
    matmul_transposed_rows_into_impl(tier, a, b, 0..b.rows(), out.as_mut_slice())
}

/// The row-range entry of the scoring GEMM: `a · b[rows]ᵀ` into `out`
/// (overwritten, row-major `a.rows() × rows.len()`), reading the rows of `b`
/// in place — no copy of the range is made.
///
/// This is what lets a caller walk a large `b` in column tiles of the
/// product (the serving layer's fused score→select driver sizes them with
/// [`gemm_tile_rows`]) and reuse one small output buffer: by the
/// grouping-invariance contract in the module docs, the tile's elements
/// carry the same bits as the corresponding elements of the full product.
///
/// # Panics
/// Panics if the column dimensions do not agree, `rows` is out of bounds
/// for `b`, or `out.len() != a.rows() * rows.len()`.
#[inline]
pub fn matmul_transposed_rows_into(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    matmul_transposed_rows_into_impl(dispatch(), a, b, rows, out)
}

fn matmul_transposed_rows_into_impl(tier: KernelTier, a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    debug_assert_dispatchable(tier);
    let (m, d) = a.shape();
    assert_eq!(
        d,
        b.cols(),
        "matmul_transposed: column dimensions do not agree ({}x{} * ({}x{})^T)",
        m,
        d,
        b.rows(),
        b.cols()
    );
    assert!(
        rows.start <= rows.end && rows.end <= b.rows(),
        "matmul_transposed_rows_into: rows {rows:?} out of bounds for {} rows",
        b.rows()
    );
    let n = rows.len();
    assert_eq!(
        out.len(),
        m * n,
        "matmul_transposed_rows_into: output holds {} scores for a {m}x{n} product",
        out.len()
    );
    counters::note(tier, 4 * (m * d + n * d + m * n) as u64);
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let (a, b) = (a.as_slice(), &b.as_slice()[rows.start * d..rows.end * d]);
    on_tier!(tier, matmul_transposed_into(a, b, d, out))
}

/// Rows of `B` per column tile of a `batch`-row scoring GEMM such that the
/// tile's output block (`batch × rows × 4 B`) stays L2-resident next to the
/// packed panel and the tile's own rows of `B`: a multiple of the GEMM panel
/// height (128 rows — tiles then never split a packed panel),
/// 2 048 rows at a batch of 64.
pub fn gemm_tile_rows(batch: usize) -> usize {
    (GEMM_TILE_BYTES / (4 * batch.max(1)) / GEMM_B_PANEL).max(1) * GEMM_B_PANEL
}

/// [`matmul_transposed`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn matmul_transposed_with_tier(tier: KernelTier, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_transposed_into_with_tier(tier, a, b, &mut out);
    out
}

/// Cache-blocked matrix product `a · b`.
///
/// The dense inner loop carries no zero test (a branch there inhibits
/// vectorization); rows of `a` that are at least half zero — the one-hot and
/// masked matrices the autograd tape produces — take a bit-identical
/// zero-skip path instead (see `row_is_sparse`).
///
/// # Panics
/// Panics if the inner dimensions do not agree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_impl(dispatch(), a, b)
}

/// [`matmul`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn matmul_with_tier(tier: KernelTier, a: &Matrix, b: &Matrix) -> Matrix {
    matmul_impl(checked(tier), a, b)
}

fn matmul_impl(tier: KernelTier, a: &Matrix, b: &Matrix) -> Matrix {
    debug_assert_dispatchable(tier);
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions do not agree ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    counters::note(tier, 4 * (a.rows() * a.cols() + b.rows() * b.cols() + a.rows() * b.cols()) as u64);
    on_tier!(tier, matmul_into(a, b, &mut out));
    out
}

/// Scaled row update `out += alpha * x` (tier-dispatched).
///
/// The training-side sibling of the scoring kernels: the batched BPR trainer
/// uses it to fold `g · q` into embedding-gradient rows without materialising
/// scaled copies.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    axpy_impl(dispatch(), out, alpha, x)
}

/// [`axpy`] on an explicit tier (tier-parity tests and benchmarks).
///
/// # Panics
/// Panics on length mismatch or an unsupported tier.
pub fn axpy_with_tier(tier: KernelTier, out: &mut [f32], alpha: f32, x: &[f32]) {
    axpy_impl(checked(tier), out, alpha, x)
}

fn axpy_impl(tier: KernelTier, out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_dispatchable(tier);
    assert_eq!(out.len(), x.len(), "axpy: length mismatch {} vs {}", out.len(), x.len());
    counters::note(tier, 12 * x.len() as u64);
    on_tier!(tier, axpy(out, alpha, x))
}

/// Scores one row of a quantized candidate panel against a quantized query:
/// `w.row(row) · q` reconstructed from the int8 payloads.
///
/// The integer accumulation is exact, so the result is bit-identical on every
/// tier; the only rounding is the final per-row scale fixup, which is the same
/// single f32 expression everywhere.
///
/// # Panics
/// Panics if `row` is out of bounds or the query length differs from
/// `w.cols()`.
// ham-lint: api("README § Kernel tiers and runtime dispatch")
#[inline]
pub fn quantized_dot(w: &QuantizedMatrix, row: usize, q: &QuantizedQuery) -> f32 {
    quantized_dot_impl(dispatch(), w, row, q)
}

/// [`quantized_dot`] on an explicit tier (tier-parity tests and benchmarks).
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn quantized_dot_with_tier(tier: KernelTier, w: &QuantizedMatrix, row: usize, q: &QuantizedQuery) -> f32 {
    quantized_dot_impl(checked(tier), w, row, q)
}

fn quantized_dot_impl(tier: KernelTier, w: &QuantizedMatrix, row: usize, q: &QuantizedQuery) -> f32 {
    debug_assert_dispatchable(tier);
    assert!(row < w.rows(), "quantized_dot: row {row} out of bounds for {} rows", w.rows());
    assert_eq!(q.len(), w.cols(), "quantized_dot: query length {} does not match {} columns", q.len(), w.cols());
    counters::note(tier, 2 * w.cols() as u64);
    let p = w.row(row);
    let acc = on_tier!(tier, quantized_dot_i32(p, q.payload()));
    quantized_score(acc, w.zero_point(row), w.scale(row), q)
}

/// Quantized one-query/whole-panel scoring: `out[j] ≈ w.row(j) · q` from the
/// int8 payloads, streaming 1 byte per catalogue element instead of 4 — the
/// bandwidth-bound serving GEMV at a quarter of the memory traffic.
///
/// # Panics
/// Panics if `q.len() != w.cols()` or `out.len() != w.rows()`.
#[inline]
pub fn quantized_matvec_into(w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    quantized_matvec_into_impl(dispatch(), w, q, out)
}

/// [`quantized_matvec_into`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn quantized_matvec_into_with_tier(tier: KernelTier, w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    quantized_matvec_into_impl(checked(tier), w, q, out)
}

fn quantized_matvec_into_impl(tier: KernelTier, w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    debug_assert_dispatchable(tier);
    let (n, d) = w.shape();
    assert_eq!(q.len(), d, "quantized_matvec: query length {} does not match {} columns", q.len(), d);
    assert_eq!(out.len(), n, "quantized_matvec_into: buffer holds {} scores for {} rows", out.len(), n);
    counters::note(tier, (n * d + d + 4 * n) as u64);
    on_tier!(tier, quantized_matvec_into(w, q, out))
}

/// Quantized batched scoring `out[b][j] ≈ queries[b] · w.row(j)`: the int8
/// candidate panel is streamed from memory exactly once (outer loop over
/// rows) while every quantized query scores the L1-resident row.
///
/// # Panics
/// Panics if any query length differs from `w.cols()` or `out` is not
/// `queries.len() × w.rows()`.
#[inline]
pub fn quantized_matmul_transposed_into(queries: &[QuantizedQuery], w: &QuantizedMatrix, out: &mut Matrix) {
    quantized_matmul_transposed_into_impl(dispatch(), queries, w, out)
}

/// [`quantized_matmul_transposed_into`] on an explicit tier.
///
/// # Panics
/// Panics on shape mismatch or an unsupported tier.
pub fn quantized_matmul_transposed_into_with_tier(
    tier: KernelTier,
    queries: &[QuantizedQuery],
    w: &QuantizedMatrix,
    out: &mut Matrix,
) {
    quantized_matmul_transposed_into_impl(checked(tier), queries, w, out)
}

/// The whole-panel product as a thin wrapper over the row-range entry.
fn quantized_matmul_transposed_into_impl(
    tier: KernelTier,
    queries: &[QuantizedQuery],
    w: &QuantizedMatrix,
    out: &mut Matrix,
) {
    assert_eq!(
        out.shape(),
        (queries.len(), w.rows()),
        "quantized_matmul_transposed_into: output is {}x{} for a {}x{} product",
        out.rows(),
        out.cols(),
        queries.len(),
        w.rows()
    );
    quantized_matmul_transposed_rows_into_impl(tier, queries, w, 0..w.rows(), out.as_mut_slice())
}

/// The row-range entry of the quantized scoring GEMM (the int8 sibling of
/// [`matmul_transposed_rows_into`]): `out[b][j] ≈ queries[b] ·
/// w.row(rows.start + j)` into a row-major `queries.len() × rows.len()`
/// buffer, reading the panel rows in place.
///
/// # Panics
/// Panics if any query length differs from `w.cols()`, `rows` is out of
/// bounds for `w`, or `out.len() != queries.len() * rows.len()`.
#[inline]
pub fn quantized_matmul_transposed_rows_into(
    queries: &[QuantizedQuery],
    w: &QuantizedMatrix,
    rows: Range<usize>,
    out: &mut [f32],
) {
    quantized_matmul_transposed_rows_into_impl(dispatch(), queries, w, rows, out)
}

fn quantized_matmul_transposed_rows_into_impl(
    tier: KernelTier,
    queries: &[QuantizedQuery],
    w: &QuantizedMatrix,
    rows: Range<usize>,
    out: &mut [f32],
) {
    debug_assert_dispatchable(tier);
    let d = w.cols();
    for (b, q) in queries.iter().enumerate() {
        assert_eq!(q.len(), d, "quantized_matmul_transposed: query {b} length {} for {} columns", q.len(), d);
    }
    assert!(
        rows.start <= rows.end && rows.end <= w.rows(),
        "quantized_matmul_transposed_rows_into: rows {rows:?} out of bounds for {} rows",
        w.rows()
    );
    let n = rows.len();
    assert_eq!(
        out.len(),
        queries.len() * n,
        "quantized_matmul_transposed_rows_into: output holds {} scores for a {}x{n} product",
        out.len(),
        queries.len()
    );
    counters::note(tier, (n * d + queries.len() * d + 4 * queries.len() * n) as u64);
    on_tier!(tier, quantized_matmul_transposed_into(queries, w, rows, out))
}

/// Validates an explicitly requested tier (the `*_with_tier` entry points)
/// before routing to it; the internal `dispatch()` path skips this — it can
/// only yield a tier that passed runtime detection.
#[inline]
fn checked(tier: KernelTier) -> KernelTier {
    assert!(tier.supported(), "kernels: the {tier} tier is not supported on this CPU");
    tier
}

/// The debug-build backstop behind every `*_impl` SAFETY comment: re-verify
/// at the dispatch boundary that the selected tier's CPU features were
/// actually detected before any arm executes a `#[target_feature]` kernel.
/// Release builds rely on the structural argument alone (`dispatch()` only
/// yields detected tiers, `checked()` asserts explicit ones) and compile
/// this away.
#[inline]
fn debug_assert_dispatchable(tier: KernelTier) {
    debug_assert!(tier.supported(), "kernel dispatch reached the {tier} tier without CPU support");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn arange_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| ((i % 13) as f32 - 6.0) * scale).collect())
    }

    /// The tiers runnable on this machine (portable everywhere, AVX2 and
    /// AVX-512 when the CPU has them) — dispatch-level tests run every kernel
    /// on each.
    fn available_tiers() -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Portable];
        if KernelTier::Avx2.supported() {
            tiers.push(KernelTier::Avx2);
        }
        if KernelTier::Avx512.supported() {
            tiers.push(KernelTier::Avx512);
        }
        tiers
    }

    #[test]
    fn dot_matches_naive_for_all_tail_lengths() {
        for tier in available_tiers() {
            for len in 0..=200 {
                let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.73).cos()).collect();
                let fast = dot_with_tier(tier, &a, &b);
                let slow = naive_dot(&a, &b);
                assert!((fast - slow).abs() < 1e-5, "{tier} len {len}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn dot_is_exact_on_integer_values() {
        let a: Vec<f32> = (0..23).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..23).map(|i| (i % 5) as f32 - 2.0).collect();
        for tier in available_tiers() {
            assert_eq!(dot_with_tier(tier, &a, &b), naive_dot(&a, &b), "{tier}");
        }
    }

    #[test]
    fn matvec_transposed_matches_per_row_dot() {
        for tier in available_tiers() {
            for n in [1, 3, 4, 5, 17, 64] {
                for d in [1, 7, 8, 32] {
                    let w = arange_matrix(n, d, 0.25);
                    let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.11).sin()).collect();
                    let mut fast = vec![0.0f32; n];
                    matvec_transposed_into_with_tier(tier, &w, &q, &mut fast);
                    for (j, &f) in fast.iter().enumerate() {
                        let slow = naive_dot(w.row(j), &q);
                        assert!((f - slow).abs() < 1e-5, "{tier} n={n} d={d} j={j}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_transposed_matches_naive_for_odd_shapes() {
        for tier in available_tiers() {
            for (m, n, d) in [(1, 1, 1), (2, 3, 5), (4, 4, 8), (5, 9, 6), (7, 13, 3), (8, 16, 32), (6, 37, 7)] {
                let a = arange_matrix(m, d, 0.5);
                let b = arange_matrix(n, d, 0.125);
                let fast = matmul_transposed_with_tier(tier, &a, &b);
                assert_eq!(fast.shape(), (m, n));
                for i in 0..m {
                    for j in 0..n {
                        let slow = naive_dot(a.row(i), b.row(j));
                        assert_eq!(fast.get(i, j), slow, "{tier} ({m},{n},{d}) at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive_across_block_boundary() {
        // n spans the column-panel width so both the full-panel and the
        // partial-panel paths run.
        for tier in available_tiers() {
            for (m, p, n) in [(1, 1, 1), (3, 4, 5), (2, 8, MATMUL_J_BLOCK - 1), (2, 3, MATMUL_J_BLOCK + 7)] {
                let a = arange_matrix(m, p, 0.5);
                let b = arange_matrix(p, n, 0.25);
                let fast = matmul_with_tier(tier, &a, &b);
                assert_eq!(fast.shape(), (m, n));
                for i in 0..m {
                    for j in 0..n {
                        let slow: f32 = (0..p).map(|k| a.get(i, k) * b.get(k, j)).sum();
                        assert_eq!(fast.get(i, j), slow, "{tier} ({m},{p},{n}) at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rows_of_a_produce_zero_output() {
        let a = Matrix::zeros(3, 4);
        let b = arange_matrix(4, 200, 1.0);
        for tier in available_tiers() {
            assert!(matmul_with_tier(tier, &a, &b).as_slice().iter().all(|&v| v == 0.0), "{tier}");
        }
    }

    #[test]
    fn sparse_and_dense_matmul_rows_agree_bit_for_bit() {
        // `row_is_sparse` is an internal heuristic, so verify the observable
        // contract: a one-hot row (zero-skip path) and a fully-dense row
        // (branch-free path) both match the naive ascending-k accumulation
        // exactly on representable inputs.
        let p = 9;
        let n = MATMUL_J_BLOCK + 3;
        let b = arange_matrix(p, n, 0.25);
        let mut one_hot = vec![0.0f32; p];
        one_hot[4] = 2.0;
        let dense: Vec<f32> = (0..p).map(|k| (k as f32) - 3.0).collect();
        for row in [one_hot, dense] {
            let a = Matrix::from_vec(1, p, row);
            for tier in available_tiers() {
                let fast = matmul_with_tier(tier, &a, &b);
                for j in 0..n {
                    let slow: f32 = (0..p).map(|k| a.get(0, k) * b.get(k, j)).sum();
                    assert_eq!(fast.get(0, j), slow, "{tier} j={j}");
                }
            }
        }
    }

    #[test]
    fn into_variants_overwrite_stale_buffers() {
        let w = arange_matrix(10, 6, 0.5);
        let q: Vec<f32> = (0..6).map(|k| k as f32 * 0.25).collect();
        for tier in available_tiers() {
            let mut buf = vec![f32::NAN; 10];
            matvec_transposed_into_with_tier(tier, &w, &q, &mut buf);
            let naive: Vec<f32> = (0..10).map(|j| naive_dot(w.row(j), &q)).collect();
            assert_eq!(buf, naive, "{tier}");

            let a = arange_matrix(3, 6, 0.5);
            let mut out = Matrix::from_vec(3, 10, vec![f32::NAN; 30]);
            matmul_transposed_into_with_tier(tier, &a, &w, &mut out);
            let fresh = matmul_transposed_with_tier(tier, &a, &w);
            assert_eq!(out.as_slice(), fresh.as_slice(), "{tier}");
        }
    }

    #[test]
    fn axpy_matches_naive_for_all_tail_lengths() {
        for tier in available_tiers() {
            for len in 0..=200 {
                let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.41).sin()).collect();
                let mut out: Vec<f32> = (0..len).map(|i| (i as f32 * 0.19).cos()).collect();
                let expected: Vec<f32> = out.iter().zip(&x).map(|(o, v)| o + 0.75 * v).collect();
                axpy_with_tier(tier, &mut out, 0.75, &x);
                for (j, (got, want)) in out.iter().zip(&expected).enumerate() {
                    assert!((got - want).abs() < 1e-5, "{tier} len {len} j={j}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn axpy_is_exact_on_integer_values() {
        let x: Vec<f32> = (0..23).map(|i| (i % 7) as f32 - 3.0).collect();
        for tier in available_tiers() {
            let mut out: Vec<f32> = (0..23).map(|i| (i % 5) as f32).collect();
            axpy_with_tier(tier, &mut out, 2.0, &x);
            for (j, o) in out.iter().enumerate() {
                assert_eq!(*o, (j % 5) as f32 + 2.0 * ((j % 7) as f32 - 3.0), "{tier} j={j}");
            }
        }
    }

    #[test]
    fn force_tier_overrides_and_clears() {
        // Serialise against other tests by only asserting reversible state.
        force_tier(Some(KernelTier::Portable));
        assert_eq!(active_tier(), KernelTier::Portable);
        force_tier(None);
        // After clearing, the tier re-resolves to something supported.
        assert!(active_tier().supported());
    }

    #[test]
    fn quantized_kernels_are_bit_identical_across_tiers() {
        // Integer accumulation is exact and associative, so every tier must
        // produce the very same bits — for all tail lengths around the 16-
        // and 32-byte SIMD strides.
        for d in [1, 3, 15, 16, 17, 31, 32, 33, 40, 64] {
            let w = QuantizedMatrix::quantize(&arange_matrix(9, d, 0.37));
            let qf: Vec<f32> = (0..d).map(|k| (k as f32 * 0.29).sin()).collect();
            let q = QuantizedQuery::quantize(&qf);
            let mut reference = vec![0.0f32; 9];
            quantized_matvec_into_with_tier(KernelTier::Portable, &w, &q, &mut reference);
            for tier in available_tiers() {
                let mut out = vec![f32::NAN; 9];
                quantized_matvec_into_with_tier(tier, &w, &q, &mut out);
                for (j, (got, want)) in out.iter().zip(&reference).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "{tier} d={d} j={j}");
                }
                for (j, want) in reference.iter().enumerate() {
                    let got = quantized_dot_with_tier(tier, &w, j, &q);
                    assert_eq!(got.to_bits(), want.to_bits(), "{tier} dot d={d} j={j}");
                }
                let mut batch = Matrix::from_vec(2, 9, vec![f32::NAN; 18]);
                quantized_matmul_transposed_into_with_tier(tier, &[q.clone(), q.clone()], &w, &mut batch);
                for b in 0..2 {
                    for (j, want) in reference.iter().enumerate() {
                        assert_eq!(batch.get(b, j).to_bits(), want.to_bits(), "{tier} gemm d={d} b={b} j={j}");
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_scores_track_exact_scores() {
        let w = arange_matrix(20, 24, 0.31);
        let qw = QuantizedMatrix::quantize(&w);
        let qf: Vec<f32> = (0..24).map(|k| (k as f32 * 0.41).cos()).collect();
        let q = QuantizedQuery::quantize(&qf);
        for j in 0..20 {
            let exact: f32 = w.row(j).iter().zip(&qf).map(|(x, y)| x * y).sum();
            let approx = quantized_dot(&qw, j, &q);
            let bound = crate::quant::score_error_bound(w.row(j), &qf);
            assert!((exact - approx).abs() <= bound, "row {j}: |{exact} - {approx}| > {bound}");
        }
    }

    #[test]
    fn gemm_is_bit_identical_across_row_groupings() {
        // The serving layer's exactness proof in one unit test: scoring a
        // row block of B alone must give the same bits as scoring it inside
        // the full matrix, for every tier.
        let a = arange_matrix(5, 12, 0.3);
        let b = arange_matrix(40, 12, 0.7);
        for tier in available_tiers() {
            let full = matmul_transposed_with_tier(tier, &a, &b);
            for (start, len) in [(0usize, 7usize), (7, 13), (20, 20), (33, 7)] {
                let shard = Matrix::from_vec(len, 12, b.as_slice()[start * 12..(start + len) * 12].to_vec());
                let part = matmul_transposed_with_tier(tier, &a, &shard);
                for i in 0..5 {
                    for j in 0..len {
                        assert_eq!(
                            part.get(i, j).to_bits(),
                            full.get(i, start + j).to_bits(),
                            "{tier} row block {start}+{len} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }
    #[test]
    fn row_range_entries_match_the_full_product_bit_for_bit() {
        // The fused serving driver's premise: a column tile scored in place
        // through the row-range entry carries the bits of the full product,
        // on every tier, for ranges straddling the panel width and the
        // quantized kernels' row groups — without copying the rows out.
        let n = 2 * GEMM_B_PANEL + 37;
        let a = arange_matrix(5, 12, 0.3);
        let b = arange_matrix(n, 12, 0.7);
        let qb = QuantizedMatrix::quantize(&b);
        let qa: Vec<QuantizedQuery> = (0..5).map(|i| QuantizedQuery::quantize(a.row(i))).collect();
        let ranges = [0..n, 0..GEMM_B_PANEL - 1, GEMM_B_PANEL - 1..GEMM_B_PANEL + 1, 7..7, GEMM_B_PANEL..n, n - 3..n];
        for tier in available_tiers() {
            let full = matmul_transposed_with_tier(tier, &a, &b);
            let mut qfull = Matrix::zeros(5, n);
            quantized_matmul_transposed_into_with_tier(tier, &qa, &qb, &mut qfull);
            for rows in ranges.clone() {
                let w = rows.len();
                let mut tile = vec![f32::NAN; 5 * w];
                matmul_transposed_rows_into_impl(tier, &a, &b, rows.clone(), &mut tile);
                let mut qtile = vec![f32::NAN; 5 * w];
                quantized_matmul_transposed_rows_into_impl(tier, &qa, &qb, rows.clone(), &mut qtile);
                for i in 0..5 {
                    for j in 0..w {
                        let at = rows.start + j;
                        assert_eq!(
                            tile[i * w + j].to_bits(),
                            full.get(i, at).to_bits(),
                            "{tier} f32 {rows:?} ({i},{j})"
                        );
                        assert_eq!(
                            qtile[i * w + j].to_bits(),
                            qfull.get(i, at).to_bits(),
                            "{tier} int8 {rows:?} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    /// The GEMV's row-range entry scores a range with the whole-matrix
    /// GEMV's bits, on every tier and at widths that exercise every rung of
    /// the `dot` reduction (full steps, lone chunks, scalar tail).
    #[test]
    fn row_range_gemv_matches_the_full_gemv_bit_for_bit() {
        for d in [0, 1, 12, 32, 47, 83, 200] {
            let w = arange_matrix(41, d, 0.7);
            let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.37).sin()).collect();
            for tier in available_tiers() {
                let mut full = vec![f32::NAN; 41];
                matvec_transposed_into_with_tier(tier, &w, &q, &mut full);
                for rows in [0..41, 0..1, 5..5, 16..33, 40..41] {
                    let mut part = vec![f32::NAN; rows.len()];
                    matvec_transposed_rows_into_impl(tier, &w, &q, rows.clone(), &mut part);
                    let want: Vec<u32> = full[rows.clone()].iter().map(|s| s.to_bits()).collect();
                    let got: Vec<u32> = part.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want, "{tier} d = {d} rows {rows:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_entry_rejects_rows_past_the_matrix() {
        let (a, b) = (arange_matrix(2, 4, 1.0), arange_matrix(6, 4, 1.0));
        matmul_transposed_rows_into(&a, &b, 4..7, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_gemv_rejects_rows_past_the_matrix() {
        matvec_transposed_rows_into(&arange_matrix(6, 4, 1.0), &[1.0; 4], 4..7, &mut [0.0; 3]);
    }

    #[test]
    fn gemm_tiles_are_whole_panels_sized_by_the_batch() {
        assert_eq!(gemm_tile_rows(64), 2048);
        for batch in [0, 1, 2, 3, 64, 65, 1000, usize::MAX / 8] {
            let rows = gemm_tile_rows(batch);
            assert!(rows >= GEMM_B_PANEL && rows.is_multiple_of(GEMM_B_PANEL), "batch {batch}: {rows}");
            assert!(rows == GEMM_B_PANEL || 4 * batch.max(1) * rows <= GEMM_TILE_BYTES, "batch {batch}: {rows}");
        }
    }
}
