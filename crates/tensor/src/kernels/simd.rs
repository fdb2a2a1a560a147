//! The one source of the explicit x86_64 SIMD kernels: a template stamped
//! into the `avx2` and `avx512` tier modules, once per lane width.
//!
//! `simd_tier_kernels!("<features>")` expands to the nine tier kernels (and
//! their two helpers, `gemm_panel_rows` and `matmul_row`), each a concrete
//! fn compiled with `target_feature(enable = "<features>")`. The bodies are
//! written against a small lane vocabulary the invoking module supplies as
//! plain `use … as` renames of its intrinsics — `LANES`; `zero` / `loadu` /
//! `storeu` / `splat` / `fma` / `add` / `mul` for f32 lanes; `izero` /
//! `iloadu` / `istoreu` / `isplat` / `iadd` / `isub` / `imullo` / `madd16` /
//! `cvt_f32` for i32 lanes; `hloadu` / `widen_u8` / `widen_i8` for the
//! half-width byte loads of the int8 dot — plus the two horizontal sums
//! `hsum` / `ihsum`. There is no trait and no generic vector type: after
//! expansion every call is the intrinsic itself, exactly as if the tier had
//! been written by hand at `LANES` = 8 (AVX2) or 16 (AVX-512). A new kernel
//! variant is one body here, not one per tier.
//!
//! The dispatcher in the parent module only routes to a tier after
//! `is_x86_feature_detected!` confirmed its features at runtime (or after
//! `force_tier` asserted support); that is what makes calling into these
//! functions sound.
//!
//! ## Determinism contract
//!
//! The sharded serving layer depends on scores being **bit-identical**
//! regardless of how catalogue rows are grouped into shards, panels or
//! register tiles. Every f32 kernel here therefore accumulates each output
//! element as a single fused-multiply-add chain in ascending-`k` order: a
//! vector lane performing `acc = fma(a, b, acc)` per step is bit-identical
//! to the scalar `f32::mul_add` chain (IEEE FMA rounds once per step, and
//! both tiers enable hardware FMA), so the `2 * LANES`-wide, `LANES`-wide
//! and scalar-tail paths all produce the same bits for the same row data —
//! an element's value never depends on which path computed it or where it
//! sat in a tile. `dot` is the one multi-chain reduction; its shape is a
//! pure function of the row length (see its doc comment), never of the
//! row's position. Because that shape is counted in `LANES`, the two tiers
//! agree with each other and with the portable tier only to the usual
//! ≤ 1e-5 / bit-exact-on-integers contract, while within a tier every row
//! grouping stays bit-exact. The quantized kernels accumulate in `i32`,
//! which is exact: their scores are bit-identical across **all** tiers.

macro_rules! simd_tier_kernels {
    ($features:literal) => {
        use super::{pack_panel_kmajor, quantized_score, row_is_sparse, GEMM_B_PANEL};
        use crate::quant::{QuantizedMatrix, QuantizedQuery};
        use crate::Matrix;
        use std::ops::Range;

        /// Rows of `A` per register tile in the GEMM microkernel: 4 rows ×
        /// two vector accumulators each is 8 vector registers (of 16 ymm /
        /// 32 zmm), leaving room for the panel loads and the broadcast.
        const GEMM_MR: usize = 4;

        /// Rows per vertical group in the quantized GEMM: one vector of
        /// `i32` accumulators scores `LANES` catalogue rows at once.
        const QGEMM_GROUP: usize = LANES;

        /// Catalogue rows packed per panel block of the quantized GEMM: the
        /// block's `i16` panel (`2·d` bytes per row) stays L2-resident while
        /// all queries stream over it.
        const QGEMM_ROW_BLOCK: usize = 2048;

        /// Dot product: four independent `LANES`-wide FMA accumulator chains
        /// (`4 * LANES` floats in flight), one fixed-order horizontal
        /// reduction, scalar-FMA tail.
        ///
        /// The chain shape is a pure function of the length: full
        /// `4 * LANES` steps feed `acc0..acc3` in order, then up to three
        /// lone `LANES`-chunks go to `acc0`, `acc1`, `acc2` in order — a
        /// rotating `acc[chunk & 3]` written with four named accumulators,
        /// because a dynamic index defeats register allocation for vector
        /// values (the spills once made the 16-wide tier slower than the
        /// portable one at serving dimensions).
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
            debug_assert_eq!(
                a.len(),
                b.len(),
                "{}::dot: length mismatch (the dispatcher asserts this)",
                module_path!()
            );
            let len = a.len().min(b.len());
            let (ap, bp) = (a.as_ptr(), b.as_ptr());
            let (mut acc0, mut acc1, mut acc2, mut acc3) = (zero(), zero(), zero(), zero());
            let mut k = 0;
            while k + 4 * LANES <= len {
                // SAFETY: the loop condition bounds all four `LANES`-float
                // unaligned loads at k..k + 4 * LANES on both slices.
                unsafe {
                    acc0 = fma(loadu(ap.add(k)), loadu(bp.add(k)), acc0);
                    acc1 = fma(loadu(ap.add(k + LANES)), loadu(bp.add(k + LANES)), acc1);
                    acc2 = fma(loadu(ap.add(k + 2 * LANES)), loadu(bp.add(k + 2 * LANES)), acc2);
                    acc3 = fma(loadu(ap.add(k + 3 * LANES)), loadu(bp.add(k + 3 * LANES)), acc3);
                }
                k += 4 * LANES;
            }
            // SAFETY: each rung's own `k + LANES <= len` test bounds its two
            // `LANES`-float unaligned loads.
            unsafe {
                if k + LANES <= len {
                    acc0 = fma(loadu(ap.add(k)), loadu(bp.add(k)), acc0);
                    k += LANES;
                }
                if k + LANES <= len {
                    acc1 = fma(loadu(ap.add(k)), loadu(bp.add(k)), acc1);
                    k += LANES;
                }
                if k + LANES <= len {
                    acc2 = fma(loadu(ap.add(k)), loadu(bp.add(k)), acc2);
                    k += LANES;
                }
            }
            let mut sum = hsum(add(add(acc0, acc1), add(acc2, acc3)));
            for (x, y) in a[k..len].iter().zip(&b[k..len]) {
                sum = x.mul_add(*y, sum);
            }
            sum
        }

        /// `out[j] = w_j · q` for the `out.len()` rows of `d` columns in the
        /// row-major `w_data` (any contiguous row range of a larger matrix):
        /// the one-user GEMV. Each row is an independent [`dot`], so a row's
        /// score never depends on which shard or position it occupies.
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        pub(super) fn matvec_transposed_into(w_data: &[f32], d: usize, q: &[f32], out: &mut [f32]) {
            for (j, o) in out.iter_mut().enumerate() {
                *o = dot(&w_data[j * d..(j + 1) * d], q);
            }
        }

        /// Register-blocked `a · bᵀ` into `out` (overwrites): the
        /// packed-panel layout of the portable tier with an explicit
        /// [`GEMM_MR`]-row × `2 * LANES`-column FMA register tile over the
        /// panel. Operands are row-major slices of `d > 0` columns: `a` is
        /// `m × d`, `b` is `n × d` (any contiguous row range of a larger
        /// matrix) and `out` is `m × n`.
        #[target_feature(enable = $features)]
        pub(super) fn matmul_transposed_into(a_data: &[f32], b_data: &[f32], d: usize, out_data: &mut [f32]) {
            let (m, n) = (a_data.len() / d, b_data.len() / d);
            // The register tiles below store through raw pointers: every
            // store's bounds argument starts from this length.
            assert_eq!(out_data.len(), m * n, "{}::matmul_transposed_into: output is not {m}x{n}", module_path!());

            let mut packed = vec![0.0f32; GEMM_B_PANEL * d];
            let mut j0 = 0;
            while j0 < n {
                let jw = (n - j0).min(GEMM_B_PANEL);
                pack_panel_kmajor(b_data, d, j0, jw, &mut packed);
                let mut i0 = 0;
                while i0 + GEMM_MR <= m {
                    gemm_panel_rows::<GEMM_MR>(&a_data[i0 * d..], d, &packed, jw, out_data, n, i0 * n + j0);
                    i0 += GEMM_MR;
                }
                while i0 < m {
                    gemm_panel_rows::<1>(&a_data[i0 * d..], d, &packed, jw, out_data, n, i0 * n + j0);
                    i0 += 1;
                }
                j0 += jw;
            }
        }

        /// Scores `R` consecutive rows of `A` against one packed k-major
        /// panel, writing `R × jw` output elements. Every element is one FMA
        /// chain in ascending `k`, whichever of the `2 * LANES`-wide /
        /// `LANES`-wide / scalar paths covers its column.
        #[inline]
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        fn gemm_panel_rows<const R: usize>(
            a_rows: &[f32], // at least R*d floats, row-major
            d: usize,
            packed: &[f32], // jw*d floats, k-major panel
            jw: usize,
            out: &mut [f32], // full output buffer
            out_stride: usize,
            out_base: usize, // index of this tile's (row 0, column 0) in `out`
        ) {
            let mut j = 0;
            while j + 2 * LANES <= jw {
                let mut acc = [[zero(); 2]; R];
                for k in 0..d {
                    // SAFETY: `j + 2 * LANES <= jw` and `k < d` bound both
                    // loads within the `jw * d`-float packed panel.
                    let (p0, p1) = unsafe {
                        (loadu(packed.as_ptr().add(k * jw + j)), loadu(packed.as_ptr().add(k * jw + j + LANES)))
                    };
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let av = splat(a_rows[r * d + k]);
                        acc_r[0] = fma(av, p0, acc_r[0]);
                        acc_r[1] = fma(av, p1, acc_r[1]);
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let dst = out_base + r * out_stride + j;
                    // SAFETY: `dst + 2 * LANES <= out.len()`: the tile's rows
                    // and columns are in range by the caller's i0/j0 loop
                    // bounds.
                    unsafe {
                        storeu(out.as_mut_ptr().add(dst), acc_r[0]);
                        storeu(out.as_mut_ptr().add(dst + LANES), acc_r[1]);
                    }
                }
                j += 2 * LANES;
            }
            while j + LANES <= jw {
                let mut acc = [zero(); R];
                for k in 0..d {
                    // SAFETY: `j + LANES <= jw` and `k < d` bound the panel load.
                    let p0 = unsafe { loadu(packed.as_ptr().add(k * jw + j)) };
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        *acc_r = fma(splat(a_rows[r * d + k]), p0, *acc_r);
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    // SAFETY: same bounds argument as the two-vector store above.
                    unsafe { storeu(out.as_mut_ptr().add(out_base + r * out_stride + j), *acc_r) };
                }
                j += LANES;
            }
            while j < jw {
                for r in 0..R {
                    let mut acc = 0.0f32;
                    for k in 0..d {
                        // Scalar mul_add compiles to a hardware FMA here
                        // (both tiers enable it), so the tail chain is
                        // bit-identical to a vector lane's chain.
                        acc = a_rows[r * d + k].mul_add(packed[k * jw + j], acc);
                    }
                    out[out_base + r * out_stride + j] = acc;
                }
                j += 1;
            }
        }

        /// `out += alpha * x`: one FMA per `LANES`-float vector with a
        /// scalar-FMA tail. Each output element is a single
        /// `fma(alpha, x, out)` — there is no accumulation chain to
        /// reassociate, so the update is position-independent by
        /// construction.
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        pub(super) fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
            let len = out.len().min(x.len());
            let av = splat(alpha);
            let mut k = 0;
            while k + LANES <= len {
                // SAFETY: `k + LANES <= len` bounds the two unaligned loads
                // and the store.
                unsafe {
                    let xv = loadu(x.as_ptr().add(k));
                    let ov = loadu(out.as_ptr().add(k));
                    storeu(out.as_mut_ptr().add(k), fma(av, xv, ov));
                }
                k += LANES;
            }
            for (o, &xv) in out[k..len].iter_mut().zip(&x[k..len]) {
                *o = alpha.mul_add(xv, *o);
            }
        }

        /// `a · b` into `out` (overwrites): per-row `4 * LANES`-wide FMA
        /// register tiles over the output, with the same dense/sparse row
        /// split as the portable tier — the dense inner loop has no zero
        /// test, sparse (one-hot / masked) rows skip their zero entries, and
        /// the two are bit-identical for finite inputs.
        #[target_feature(enable = $features)]
        pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
            let (m, p) = a.shape();
            let n = b.cols();
            let a_data = a.as_slice();
            let b_data = b.as_slice();
            let out_data = out.as_mut_slice();
            for i in 0..m {
                let a_row = &a_data[i * p..(i + 1) * p];
                let out_row = &mut out_data[i * n..(i + 1) * n];
                if row_is_sparse(a_row) {
                    matmul_row::<true>(a_row, b_data, n, out_row);
                } else {
                    matmul_row::<false>(a_row, b_data, n, out_row);
                }
            }
        }

        /// One output row of [`matmul_into`]:
        /// `out_row[j] = Σ_k a_row[k] · b[k][j]`, register-tiled
        /// `4 * LANES` columns at a time. `SKIP_ZEROS` compiles the one-hot
        /// fast path (skip `a_row[k] == 0.0`) without putting a branch in
        /// the dense loop.
        #[inline]
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        fn matmul_row<const SKIP_ZEROS: bool>(a_row: &[f32], b_data: &[f32], n: usize, out_row: &mut [f32]) {
            let mut j = 0;
            while j + 4 * LANES <= n {
                let mut acc = [zero(); 4];
                for (k, &av) in a_row.iter().enumerate() {
                    if SKIP_ZEROS && av == 0.0 {
                        continue;
                    }
                    let avv = splat(av);
                    for (l, acc_l) in acc.iter_mut().enumerate() {
                        // SAFETY: `j + 4 * LANES <= n` and `k < p` bound the
                        // load within the `p * n`-float `b`.
                        let bv = unsafe { loadu(b_data.as_ptr().add(k * n + j + LANES * l)) };
                        *acc_l = fma(avv, bv, *acc_l);
                    }
                }
                for (l, acc_l) in acc.iter().enumerate() {
                    // SAFETY: `j + 4 * LANES <= n == out_row.len()` bounds
                    // the four stores.
                    unsafe { storeu(out_row.as_mut_ptr().add(j + LANES * l), *acc_l) };
                }
                j += 4 * LANES;
            }
            while j + LANES <= n {
                let mut acc = zero();
                for (k, &av) in a_row.iter().enumerate() {
                    if SKIP_ZEROS && av == 0.0 {
                        continue;
                    }
                    // SAFETY: `j + LANES <= n` and `k < p` bound the load.
                    let bv = unsafe { loadu(b_data.as_ptr().add(k * n + j)) };
                    acc = fma(splat(av), bv, acc);
                }
                // SAFETY: `j + LANES <= n == out_row.len()` bounds the store.
                unsafe { storeu(out_row.as_mut_ptr().add(j), acc) };
                j += LANES;
            }
            while j < n {
                let mut acc = 0.0f32;
                for (k, &av) in a_row.iter().enumerate() {
                    if SKIP_ZEROS && av == 0.0 {
                        continue;
                    }
                    acc = av.mul_add(b_data[k * n + j], acc);
                }
                out_row[j] = acc;
                j += 1;
            }
        }

        /// Exact integer core of the quantized kernels: `Σ_k p[k] · s[k]` in
        /// `i32`, `2 * LANES` elements per step — zero-extend the `u8`
        /// payload and sign-extend the `i8` query to `i16` in one vector,
        /// one widening multiply-add (`pmaddwd`) into `LANES` `i32` lanes.
        /// The `i16` products (≤ 255·127) and pair sums cannot overflow, so
        /// the accumulation is exact and, integer addition being
        /// associative, bit-identical to every other tier.
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        pub(super) fn quantized_dot_i32(p: &[u8], s: &[i8]) -> i32 {
            let len = p.len().min(s.len());
            let (pp, sp) = (p.as_ptr(), s.as_ptr());
            let mut acc = izero();
            let mut k = 0;
            while k + 2 * LANES <= len {
                // SAFETY: `k + 2 * LANES <= len` bounds both half-vector
                // (`2 * LANES`-byte) unaligned loads.
                let (pv, sv) = unsafe { (hloadu(pp.add(k) as *const _), hloadu(sp.add(k) as *const _)) };
                acc = iadd(acc, madd16(widen_u8(pv), widen_i8(sv)));
                k += 2 * LANES;
            }
            let mut sum = ihsum(acc);
            for (&pv, &sv) in p[k..len].iter().zip(&s[k..len]) {
                sum += pv as i32 * sv as i32;
            }
            sum
        }

        /// Quantized GEMV from the int8 panel: one integer
        /// [`quantized_dot_i32`] plus the zero-point fixup per catalogue row.
        #[target_feature(enable = $features)]
        // ham-lint: hot-path
        pub(super) fn quantized_matvec_into(w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
            let d = w.cols();
            let payload = w.payload();
            for (j, o) in out.iter_mut().enumerate() {
                let acc = quantized_dot_i32(&payload[j * d..(j + 1) * d], q.payload());
                *o = quantized_score(acc, w.zero_point(j), w.scale(j), q);
            }
        }

        /// Quantized batched scoring with a **vertical** integer
        /// microkernel: no horizontal reductions at all (the reduce per
        /// (row, query) pair is what capped the horizontal formulation at
        /// small `d`).
        ///
        /// The panel is repacked per row block in k-pair-major groups of
        /// [`QGEMM_GROUP`] rows, widened to `i16` once during packing: one
        /// vector slot holds `(p[2g], p[2g+1])` for `LANES` consecutive
        /// rows. Each query's `i8` payload is padded into `(s[2g], s[2g+1])`
        /// dword pairs once per call; `vpmaddwd` against the broadcast pair
        /// then accumulates both `k` steps for `LANES` rows vertically, and
        /// the accumulator vector *is* the `LANES` row sums. The score
        /// epilogue `(scale_r · scale_q) · (acc − zp · Σs)` is applied
        /// `LANES`-wide with the exact arithmetic of [`quantized_score`]
        /// (same operations, same order), so every element is bit-identical
        /// to the scalar and portable paths — integer accumulation is exact,
        /// and the one f32 rounding happens in the same place.
        #[target_feature(enable = $features)]
        pub(super) fn quantized_matmul_transposed_into(
            queries: &[QuantizedQuery],
            w: &QuantizedMatrix,
            rows: Range<usize>,
            out_data: &mut [f32],
        ) {
            let d = w.cols();
            let n = rows.len();
            // The epilogue below loads zero-points/scales and stores scores
            // through raw pointers: every bounds argument starts from these
            // two checks.
            assert!(
                rows.end <= w.rows(),
                "{}::quantized_matmul_transposed_into: rows {rows:?} of {}",
                module_path!(),
                w.rows()
            );
            assert_eq!(
                out_data.len(),
                queries.len() * n,
                "{}::quantized_matmul_transposed_into: output shape",
                module_path!()
            );
            if queries.is_empty() || n == 0 {
                return;
            }
            if d == 0 {
                out_data.fill(0.0);
                return;
            }
            let payload = w.payload();
            let kp = d.div_ceil(2); // i16 (k, k+1) pairs per row

            // Per-query broadcast operands: each dword is (s[2g] as i16,
            // s[2g+1] as i16), zero-padded past `d` (zero query padding
            // multiplies against the panel's zero padding, so padded lanes
            // contribute exactly 0).
            let mut qpairs = vec![0i32; queries.len() * kp];
            for (qi, q) in queries.iter().enumerate() {
                let s = q.payload();
                for g in 0..kp {
                    let lo = s[2 * g] as i16 as u16 as u32;
                    let hi = if 2 * g + 1 < d { s[2 * g + 1] as i16 as u16 as u32 } else { 0 };
                    qpairs[qi * kp + g] = (lo | (hi << 16)) as i32;
                }
            }

            let mut panel = vec![0i16; QGEMM_ROW_BLOCK.min(n.next_multiple_of(QGEMM_GROUP)) * kp * 2];
            let mut block_start = 0;
            while block_start < n {
                let block_rows = (n - block_start).min(QGEMM_ROW_BLOCK);
                let groups = block_rows.div_ceil(QGEMM_GROUP);
                // Pack: group-major, then k-pair-major, `LANES` rows'
                // (lo, hi) i16 pairs per slot; rows past `n` and the odd-`d`
                // hi half stay zero.
                panel[..groups * kp * 2 * QGEMM_GROUP].fill(0);
                for g in 0..groups {
                    for r in 0..QGEMM_GROUP {
                        let j = block_start + g * QGEMM_GROUP + r;
                        if j >= n {
                            break;
                        }
                        let row = &payload[(rows.start + j) * d..(rows.start + j + 1) * d];
                        for kg in 0..kp {
                            let slot = (g * kp + kg) * 2 * QGEMM_GROUP + 2 * r;
                            panel[slot] = row[2 * kg] as i16;
                            if 2 * kg + 1 < d {
                                panel[slot + 1] = row[2 * kg + 1] as i16;
                            }
                        }
                    }
                }
                for (qi, q) in queries.iter().enumerate() {
                    let qp = &qpairs[qi * kp..(qi + 1) * kp];
                    let qsum_v = isplat(q.sum());
                    let qscale_v = splat(q.scale());
                    for g in 0..groups {
                        let mut acc = izero();
                        let base = g * kp * 2 * QGEMM_GROUP;
                        for (kg, &pair) in qp.iter().enumerate() {
                            // SAFETY: the slot index is within the
                            // `groups·kp` slots packed above, each
                            // `2 * LANES` i16 = one vector wide.
                            let pv = unsafe { iloadu(panel.as_ptr().add(base + kg * 2 * QGEMM_GROUP) as *const _) };
                            acc = iadd(acc, madd16(pv, isplat(pair)));
                        }
                        let j0 = block_start + g * QGEMM_GROUP;
                        if j0 + QGEMM_GROUP <= n {
                            // SAFETY: `j0 + LANES <= n` with
                            // `rows.start + n <= w.rows()` (asserted on
                            // entry) bounds the zero-point/scale loads, and
                            // with `out_data.len() == queries.len() * n` the
                            // `LANES`-float store into this query's row.
                            unsafe {
                                let zp_v = iloadu(w.zero_points().as_ptr().add(rows.start + j0) as *const _);
                                let sc_v = loadu(w.scales().as_ptr().add(rows.start + j0));
                                let diff = isub(acc, imullo(zp_v, qsum_v));
                                let score = mul(cvt_f32(diff), mul(sc_v, qscale_v));
                                storeu(out_data.as_mut_ptr().add(qi * n + j0), score);
                            }
                        } else {
                            let mut sums = [0i32; QGEMM_GROUP];
                            // SAFETY: `sums` is exactly one vector wide.
                            unsafe { istoreu(sums.as_mut_ptr() as *mut _, acc) };
                            for (r, &sum) in sums.iter().enumerate().take(n - j0) {
                                out_data[qi * n + j0 + r] = quantized_score(
                                    sum,
                                    w.zero_point(rows.start + j0 + r),
                                    w.scale(rows.start + j0 + r),
                                    q,
                                );
                            }
                        }
                    }
                }
                block_start += block_rows;
            }
        }
    };
}
