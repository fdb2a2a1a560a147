//! Scalar and slice-level numerical operations shared across the workspace:
//! numerically stable sigmoid / log-sigmoid, softmax, and small helpers used
//! by both the manual-gradient trainer and the autograd engine — and the
//! workspace's one ranking order, the [`Ranked`] key, with the bounded top-k
//! select ([`TopKStream`]) that every ranking runs on.

use crate::Matrix;

/// Numerically stable scalar sigmoid `1 / (1 + exp(-x))`.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Numerically stable `log(sigmoid(x))`, used by the BPR loss
/// `-log σ(r_pos - r_neg)` without overflow for large negative margins.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

/// Element-wise sigmoid of a matrix.
pub fn sigmoid(m: &Matrix) -> Matrix {
    m.map(sigmoid_scalar)
}

/// In-place, numerically stable softmax of a slice.
///
/// An empty slice is left untouched.
fn softmax_in_place(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in values.iter_mut() {
            *v /= sum;
        }
    }
}

/// Row-wise softmax of a matrix (each row sums to one).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Element-wise hyperbolic tangent.
pub fn tanh(m: &Matrix) -> Matrix {
    m.map(f32::tanh)
}

/// Element-wise rectified linear unit.
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|v| v.max(0.0))
}

/// One candidate's place in a ranking: the one ranking order of the
/// workspace, which every select, merge, re-rank and count follows.
///
/// The order is score descending, then index ascending, and `-0.0` ties
/// with `0.0`. A key compares *less* when it ranks *ahead*, so an
/// ascending sort of keys is a ranking, best first, and a max-heap of keys
/// has the worst kept candidate at its root. A key never holds a NaN —
/// [`Ranked::new`] refuses one — so the order is total by construction:
/// NaN never ranks, and a ranking with fewer real scores than places comes
/// back short.
#[derive(Debug, Clone, Copy)]
pub struct Ranked {
    score: f32,
    index: usize,
}

impl Ranked {
    /// The key of candidate `index` at `score`, or `None` for a NaN score.
    #[inline]
    pub fn new(score: f32, index: usize) -> Option<Self> {
        (!score.is_nan()).then_some(Self { score, index })
    }

    /// The candidate's score (never NaN; its bits as given).
    #[inline]
    pub fn score(self) -> f32 {
        self.score
    }

    /// The candidate's index.
    #[inline]
    pub fn index(self) -> usize {
        self.index
    }
}

impl Ord for Ranked {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.score > other.score {
            Ordering::Less
        } else if self.score < other.score {
            Ordering::Greater
        } else {
            self.index.cmp(&other.index)
        }
    }
}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Ranked {}

/// The indices of the top `k` entries of `scores` in [`Ranked`] order:
/// descending score, ties to the lower index.
///
/// A bounded heap ([`TopKStream`]) scans the scores once without
/// materialising the full `0..n` index vector. NaN never ranks, so fewer
/// than `k` non-NaN scores give a shorter list.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    top_k_by_score(scores, k, |_| false)
}

/// Fused "mask + select" top-k: ranks `scores` exactly as [`top_k_indices`]
/// would after setting `scores[i] = -inf` for every `i` with `masked[i]`,
/// but without writing to (or copying) the score buffer.
///
/// Masked items are not skipped outright — they participate with an
/// effective score of `-inf`, whatever their raw score — so the result is
/// bit-identical to the mask-then-select path, including the degenerate
/// cases where fewer than `k` items are unmasked and masked items pad the
/// tail of the ranking (in ascending index order, the `-inf` tie-break).
/// Because the buffer stays immutable, a caller can rank straight out of a
/// shared score buffer without cloning it first, and a serving loop can
/// reuse one seen-bitmap across requests with O(history) mark/clear instead
/// of O(catalogue) restores.
///
/// # Panics
/// Panics if `masked` and `scores` differ in length.
pub fn top_k_indices_masked(scores: &[f32], k: usize, masked: &[bool]) -> Vec<usize> {
    assert_eq!(
        masked.len(),
        scores.len(),
        "top_k_indices_masked: {} mask bits for {} scores",
        masked.len(),
        scores.len()
    );
    top_k_by_score(scores, k, |i| masked[i])
}

/// Shared body of [`top_k_indices`] / [`top_k_indices_masked`]: the whole
/// slice as one [`TopKStream`] block, so 32-score chunks with nothing above
/// the kept worst never touch the heap.
fn top_k_by_score(scores: &[f32], k: usize, masked: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut stream = TopKStream::new(k.min(scores.len()));
    stream.push_block(0, scores, masked);
    stream.into_sorted().into_iter().map(|(index, _)| index).collect()
}

/// Scores per chunk of the streaming select's skip test: two 16-lane (or
/// four 8-lane) vector compares decide whether any of them can enter the
/// heap, so the common all-below-threshold chunk costs no scalar work.
const SELECT_CHUNK: usize = 32;

/// Streaming bounded top-k: the one heap-select body of the workspace.
///
/// It keeps the best `k` `(index, score)` pairs of a score sequence seen so
/// far in a bounded heap whose root (the worst kept) and threshold carry
/// over from call to call. Feed it blocks of consecutive scores with
/// [`push_block`](Self::push_block): a whole slice as one block (the scans
/// behind [`top_k_indices`]) or one cache-hot GEMM tile at a time (the fused
/// score→select driver of the serving layer). Because indices only grow, a
/// candidate tied with the current worst can never displace it, so once the
/// heap is full a plain `score > worst` filter is exact; `push_block` applies
/// it a 32-score chunk at a time, and chunks with no score above the
/// threshold are skipped without touching the heap. The kept set after any
/// prefix is the top-`k` of that prefix in [`Ranked`] order, so how the
/// sequence is cut into blocks never changes the result.
///
/// NaN scores are skipped entirely: a [`Ranked`] key cannot hold one, so
/// they never enter the heap (a NaN root would make the `score > worst`
/// filter always false and silently drop every later real score) and never
/// displace a kept score. A sequence with fewer than `k` non-NaN scores
/// therefore yields fewer than `k` entries.
pub struct TopKStream {
    k: usize,
    /// A max-heap of keys: the root is always the worst candidate kept.
    heap: std::collections::BinaryHeap<Ranked>,
    /// The root's score once `k` candidates are kept (`-inf` before).
    worst: f32,
}

impl TopKStream {
    /// An empty selection of at most `k` candidates (allocates `k` heap
    /// slots — clamp `k` to the sequence length first).
    pub fn new(k: usize) -> Self {
        Self { k, heap: std::collections::BinaryHeap::with_capacity(k), worst: f32::NEG_INFINITY }
    }

    /// Candidates currently kept (`k` once `k` non-NaN scores were seen).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True before the first non-NaN score was pushed (or when `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers the next candidate of the sequence; indices must arrive in
    /// ascending order (the tie-break relies on it). Until `k` candidates
    /// are kept every non-NaN score enters the heap; after that only a score
    /// above the current worst replaces the root.
    // ham-lint: hot-path
    #[inline]
    fn offer(&mut self, index: usize, score: f32) {
        let Some(candidate) = Ranked::new(score, index) else { return };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            if self.heap.len() < self.k {
                return;
            }
        } else if score > self.worst {
            if let Some(mut root) = self.heap.peek_mut() {
                *root = candidate;
            }
        } else {
            return;
        }
        self.worst = self.heap.peek().map_or(f32::NEG_INFINITY, |c| c.score);
    }

    /// Feeds the next block of the sequence: `scores[i]` is the score of
    /// index `base + i`, and blocks must arrive in ascending index order.
    /// Items with `masked(i)` (block-local `i`) participate at an effective
    /// `-inf`, exactly as if the caller had overwritten their score.
    // ham-lint: hot-path
    pub fn push_block(&mut self, base: usize, scores: &[f32], masked: impl Fn(usize) -> bool) {
        if self.k == 0 {
            return;
        }
        // Fill phase: until k candidates are kept, every score is offered
        // (masked ones at -inf).
        let mut at = 0;
        while self.heap.len() < self.k && at < scores.len() {
            self.offer(base + at, if masked(at) { f32::NEG_INFINITY } else { scores[at] });
            at += 1;
        }
        // Filter phase. The chunk test runs on the raw scores: a masked
        // item's effective -inf is never above the threshold, so a chunk
        // with no raw score above it has no effective one either.
        for chunk in scores[at..].chunks(SELECT_CHUNK) {
            let worst = self.worst;
            if chunk.iter().fold(false, |any, &score| any | (score > worst)) {
                for (j, &score) in chunk.iter().enumerate() {
                    if score > self.worst && !masked(at + j) {
                        self.offer(base + at + j, score);
                    }
                }
            }
            at += chunk.len();
        }
    }

    /// The kept candidates as `(index, score)` in [`Ranked`] order, best
    /// first (masked items report `-inf`).
    pub fn into_sorted(self) -> Vec<(usize, f32)> {
        let mut kept = self.heap.into_vec();
        kept.sort_unstable();
        kept.into_iter().map(|c| (c.index, c.score)).collect()
    }
}

/// How many items of a score block rank ahead of `target`: the count form
/// of the [`Ranked`] order, without building a key per item. `scores[i]` is
/// the score of index `base + i` and `target_score` is the target's own
/// score; the target need not fall inside the block.
///
/// An index below `target` ranks ahead when its score is `>= target_score`,
/// one above it only when its score is `> target_score` — the key's
/// comparison, spelled out, with `-0.0` and `0.0` tied. A NaN score
/// compares false either way, so NaN items never count, as no key holds
/// one — and with a NaN `target_score` nothing does: such a target is
/// unranked, which the caller must check itself.
///
/// Summed over the blocks of a whole sequence, the count is the target's
/// rank: for a non-NaN target, `count < k` exactly when the target is among
/// the top-`k` a [`TopKStream`] keeps over the same sequence — without a
/// heap, and without visiting the blocks in order.
// ham-lint: hot-path
pub fn ranked_ahead(scores: &[f32], base: usize, target: usize, target_score: f32) -> usize {
    let (below, rest) = scores.split_at(target.saturating_sub(base).min(scores.len()));
    let ties_win = below.iter().map(|&score| usize::from(score >= target_score)).sum::<usize>();
    ties_win + rest.iter().map(|&score| usize::from(score > target_score)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn sigmoid_symmetry_and_midpoint() {
        assert!(close(sigmoid_scalar(0.0), 0.5));
        assert!(close(sigmoid_scalar(3.0) + sigmoid_scalar(-3.0), 1.0));
    }

    #[test]
    fn sigmoid_is_stable_for_extreme_inputs() {
        assert!(sigmoid_scalar(1e4).is_finite());
        assert!(sigmoid_scalar(-1e4).is_finite());
        assert!(close(sigmoid_scalar(1e4), 1.0));
        assert!(close(sigmoid_scalar(-1e4), 0.0));
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = sigmoid_scalar(x).ln();
            assert!(close(log_sigmoid(x), naive), "x = {x}");
        }
    }

    #[test]
    fn log_sigmoid_is_stable_for_large_negative_margin() {
        let v = log_sigmoid(-100.0);
        assert!(v.is_finite());
        assert!(close(v, -100.0));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = softmax_rows(&m);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            assert!(close(sum, 1.0));
        }
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        assert!(close(s.get(1, 0), 1.0 / 3.0));
    }

    #[test]
    fn softmax_handles_large_values_without_overflow() {
        let mut v = vec![1000.0, 1000.0, 0.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(close(v[0], 0.5));
        assert!(close(v[2], 0.0));
    }

    #[test]
    fn softmax_empty_slice_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_in_place(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn relu_and_tanh() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        assert_eq!(relu(&m).as_slice(), &[0.0, 2.0]);
        assert!(close(tanh(&m).get(0, 0), (-1.0f32).tanh()));
    }

    #[test]
    fn top_k_returns_descending_indices() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 10), vec![1, 3, 2, 0]);
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn ranked_orders_by_score_then_index_and_refuses_nan() {
        let key = |score: f32, index: usize| Ranked::new(score, index).expect("not NaN");
        assert!(key(2.0, 9) < key(1.0, 0), "a higher score ranks ahead");
        assert!(key(1.0, 3) < key(1.0, 4), "a tie goes to the lower index");
        assert!(key(-0.0, 1) < key(0.0, 2) && key(0.0, 1) < key(-0.0, 2), "-0.0 ties with 0.0");
        assert!(key(f32::INFINITY, 5) < key(f32::MAX, 0) && key(f32::MIN, 5) < key(f32::NEG_INFINITY, 0));
        assert_eq!(key(1.0, 3), key(1.0, 3));
        assert!(Ranked::new(f32::NAN, 0).is_none() && Ranked::new(-f32::NAN, 0).is_none());
        assert_eq!(key(-0.0, 7).score().to_bits(), (-0.0f32).to_bits(), "the score keeps its bits");
    }

    #[test]
    fn top_k_matches_a_full_sort_for_every_k() {
        // 200 scores with deliberate ties, k from 1 to the whole slice.
        // Cross-check against a full sort.
        let scores: Vec<f32> = (0..200).map(|i| ((i * 7919) % 23) as f32 * 0.5).collect();
        let full_order = {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|a, b| scores[*b].partial_cmp(&scores[*a]).unwrap().then(a.cmp(b)));
            idx
        };
        for k in [1, 5, 10, 24, 150, 200] {
            assert_eq!(top_k_indices(&scores, k), full_order[..k], "k = {k}");
        }
    }

    #[test]
    fn heap_path_is_not_poisoned_by_nan_scores() {
        // A NaN inside the first k elements must not become a sticky heap
        // root that blocks every later (real) score.
        let mut scores = vec![0.0f32; 100];
        for (i, s) in scores.iter_mut().enumerate().take(8) {
            *s = if i == 3 { f32::NAN } else { i as f32 };
        }
        scores[50] = 100.0;
        let top = top_k_indices(&scores, 3);
        assert_eq!(top, vec![50, 7, 6]);

        // All-NaN input ranks nothing: NaN never ranks.
        let all_nan = vec![f32::NAN; 64];
        assert!(top_k_indices(&all_nan, 4).is_empty());
    }

    /// The fused mask+select path must agree with "write -inf, then select"
    /// bit for bit for every k, including when the mask leaves fewer than k
    /// items and masked indices pad the tail.
    #[test]
    fn masked_top_k_matches_write_then_select() {
        let scores: Vec<f32> = (0..120).map(|i| ((i * 37) % 41) as f32 * 0.25).collect();
        for mask_every in [2, 3, 7] {
            let masked: Vec<bool> = (0..scores.len()).map(|i| i % mask_every == 0).collect();
            let mut written = scores.clone();
            for (w, &m) in written.iter_mut().zip(&masked) {
                if m {
                    *w = f32::NEG_INFINITY;
                }
            }
            for k in [1, 5, 10, 40, 110, 120] {
                assert_eq!(
                    top_k_indices_masked(&scores, k, &masked),
                    top_k_indices(&written, k),
                    "mask_every = {mask_every}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn masked_top_k_pads_with_masked_items_when_k_exceeds_unmasked() {
        let scores = [5.0f32, 4.0, 3.0, 2.0];
        let masked = [true, false, true, true];
        // 1 is the only unmasked item; the rest tie at -inf and break by index.
        assert_eq!(top_k_indices_masked(&scores, 4, &masked), vec![1, 0, 2, 3]);
    }

    #[test]
    fn all_masked_still_returns_k_indices() {
        let scores = [1.0f32, 2.0, 3.0];
        assert_eq!(top_k_indices_masked(&scores, 2, &[true; 3]), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "mask bits")]
    fn masked_top_k_rejects_length_mismatch() {
        let _ = top_k_indices_masked(&[1.0, 2.0], 1, &[false]);
    }

    /// The per-candidate select the block-fed one replaced, kept as its
    /// reference: every index offered to the heap one at a time.
    fn offered_one_at_a_time(scores: &[f32], k: usize, masked: &[bool]) -> Vec<usize> {
        let mut stream = TopKStream::new(k.min(scores.len()));
        for (index, &score) in scores.iter().enumerate() {
            stream.offer(index, if masked[index] { f32::NEG_INFINITY } else { score });
        }
        stream.into_sorted().into_iter().map(|(index, _)| index).collect()
    }

    /// The order by definition: the real effective scores (masked ones at
    /// `-inf`) fully and stably sorted, so ties keep index order, then cut
    /// to `k`. NaN never ranks, so few real scores give a short list.
    fn fully_sorted(scores: &[f32], k: usize, masked: &[bool]) -> Vec<usize> {
        let score = |i: usize| if masked[i] { f32::NEG_INFINITY } else { scores[i] };
        let mut ranked: Vec<usize> = (0..scores.len()).filter(|&i| !score(i).is_nan()).collect();
        ranked.sort_by(|&a, &b| score(b).partial_cmp(&score(a)).expect("NaN-free"));
        ranked.truncate(k);
        ranked
    }

    /// Lengths around the 32-score chunk edges.
    const EDGE_LENGTHS: [usize; 12] = [0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 80, 700];
    /// Few distinct values, so ties are the rule, with both zeros and both
    /// infinities; NaN is drawn separately.
    const PALETTE: [f32; 8] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, f32::INFINITY, f32::NEG_INFINITY];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `top_k_indices` and `top_k_indices_masked` against the
        /// per-candidate reference, and that against a full sort, index
        /// vector for index vector: lengths
        /// 0–700, `k` from 0 to `n + 2`, NaN rates from none to all (a NaN
        /// planted inside the first `k` on some cases; the high rates leave
        /// fewer than `k` usable scores and a short list), and mask
        /// densities 0, 0.1, 0.5 and 1.
        #[test]
        fn block_fed_select_matches_the_per_candidate_reference(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if rng.gen_bool(0.5) {
                EDGE_LENGTHS[rng.gen_range(0..EDGE_LENGTHS.len())]
            } else {
                rng.gen_range(0..701)
            };
            let k_choices = [0, 1, 2, 10, n / 8, n / 8 + 1, n.saturating_sub(1), n, n + 1, n + 2, rng.gen_range(0..n + 3)];
            let k = k_choices[rng.gen_range(0..k_choices.len())];
            let nan_rate = [0.0, 0.02, 0.3, 0.95, 1.0][rng.gen_range(0..5)];
            let mut scores: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(nan_rate) { f32::NAN } else { PALETTE[rng.gen_range(0..PALETTE.len())] })
                .collect();
            if n > 0 && rng.gen_bool(0.3) {
                scores[rng.gen_range(0..k.clamp(1, n))] = f32::NAN;
            }
            let density = [0.0, 0.1, 0.5, 1.0][rng.gen_range(0..4)];
            let masked: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            prop_assert_eq!(
                top_k_indices(&scores, k),
                offered_one_at_a_time(&scores, k, &vec![false; n]),
                "n = {n}, k = {k}, nan rate = {nan_rate}"
            );
            prop_assert_eq!(
                top_k_indices_masked(&scores, k, &masked),
                offered_one_at_a_time(&scores, k, &masked),
                "n = {n}, k = {k}, nan rate = {nan_rate}, mask density = {density}"
            );
            prop_assert_eq!(
                offered_one_at_a_time(&scores, k, &masked),
                fully_sorted(&scores, k, &masked),
                "n = {n}, k = {k}, nan rate = {nan_rate}, mask density = {density}"
            );
        }
    }

    /// Feeds `scores` to a [`TopKStream`] cut into `block`-sized blocks.
    fn streamed(scores: &[f32], k: usize, block: usize) -> Vec<(usize, f32)> {
        let mut stream = TopKStream::new(k);
        for (b, chunk) in scores.chunks(block).enumerate() {
            stream.push_block(b * block, chunk, |_| false);
        }
        stream.into_sorted()
    }

    #[test]
    fn streaming_select_is_independent_of_block_boundaries() {
        // Deliberate ties, so the lower-index tie-break crosses block edges.
        let scores: Vec<f32> = (0..500).map(|i| ((i * 7919) % 31) as f32 * 0.5).collect();
        for k in [1, 7, 33, 62] {
            let whole: Vec<usize> = top_k_indices(&scores, k);
            for block in [1, 31, 32, 33, 64, 499, 500] {
                let got = streamed(&scores, k, block);
                assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), whole, "k = {k}, block = {block}");
                assert!(got.iter().all(|&(i, s)| s.to_bits() == scores[i].to_bits()), "scores ride along");
            }
        }
    }

    #[test]
    fn streaming_select_skips_nan_at_a_tile_edge() {
        // NaNs on both sides of the 64-score tile edge, the winner after it:
        // neither NaN is kept, neither displaces a finite score, and the
        // `score > worst` filter keeps working past them.
        let mut scores: Vec<f32> = (0..128).map(|i| (i % 10) as f32).collect();
        scores[63] = f32::NAN;
        scores[64] = f32::NAN;
        scores[100] = 50.0;
        let mut clean = scores.clone();
        clean[63] = f32::NEG_INFINITY;
        clean[64] = f32::NEG_INFINITY;
        let got = streamed(&scores, 4, 64);
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), top_k_indices(&clean, 4));
        assert_eq!(got[0], (100, 50.0));
        assert!(got.iter().all(|&(_, s)| !s.is_nan()));
    }

    #[test]
    fn streaming_select_survives_an_all_nan_tile() {
        let mut scores: Vec<f32> = (0..96).map(|i| i as f32 * 0.25).collect();
        scores[32..64].fill(f32::NAN);
        let got = streamed(&scores, 3, 32);
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![95, 94, 93]);
        // All-NaN *first* tile: the heap fills from the second one.
        let mut scores = vec![f32::NAN; 32];
        scores.extend((0..32).map(|i| i as f32));
        let got = streamed(&scores, 3, 32);
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![63, 62, 61]);
    }

    #[test]
    fn streaming_select_with_nan_before_the_heap_fills() {
        // A NaN among the first k scores must not seed the heap (its root
        // would wedge the filter); the heap fills from the next finite one.
        let scores = [1.0f32, f32::NAN, 2.0, 0.5, 9.0, 0.25];
        let got = streamed(&scores, 3, 2);
        assert_eq!(got, vec![(4, 9.0), (2, 2.0), (0, 1.0)]);
        // Fewer than k finite scores: every finite one comes back, no panic.
        let sparse = [f32::NAN, 3.0, f32::NAN, f32::NAN, 1.0, f32::NAN];
        assert_eq!(streamed(&sparse, 4, 2), vec![(1, 3.0), (4, 1.0)]);
        assert!(streamed(&[f32::NAN; 8], 2, 3).is_empty());
        assert!(streamed(&sparse, 0, 2).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `ranked_ahead(…) < k` ⇔ the target is in `TopKStream`'s top-`k`,
        /// for every non-NaN target of the sequence: palette scores (ties,
        /// ±0.0, ±inf), NaN rates from none to most, `k` from 1 to `n + 5`,
        /// and the counts summed over blocks cut at random sizes.
        #[test]
        fn ranked_ahead_below_k_is_membership_in_the_streamed_top_k(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..200);
            let nan_rate = [0.0, 0.05, 0.5, 0.9][rng.gen_range(0..4)];
            let scores: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(nan_rate) { f32::NAN } else { PALETTE[rng.gen_range(0..PALETTE.len())] })
                .collect();
            let block = rng.gen_range(1..n + 2);
            for k in [1, 2, rng.gen_range(1..n + 1), n, n + 5] {
                let kept: Vec<usize> = streamed(&scores, k, block).into_iter().map(|(i, _)| i).collect();
                for (target, &target_score) in scores.iter().enumerate().filter(|(_, s)| !s.is_nan()) {
                    let ahead: usize = scores
                        .chunks(block)
                        .enumerate()
                        .map(|(b, chunk)| ranked_ahead(chunk, b * block, target, target_score))
                        .sum();
                    prop_assert_eq!(ahead < k, kept.contains(&target), "n = {}, k = {}, target = {}", n, k, target);
                }
            }
        }
    }

    #[test]
    fn ranked_ahead_counts_ties_below_the_target_and_never_nan() {
        let scores = [1.0f32, 2.0, f32::NAN, 1.0, -0.0, 0.0, 1.0, f32::INFINITY];
        // Target 3 (score 1.0): 1.0@0 wins the tie, 2.0@1 and inf@7 are
        // higher; 1.0@6 loses the tie, the NaN never counts.
        assert_eq!(ranked_ahead(&scores, 0, 3, 1.0), 3);
        // The same block seen from a target outside it: after the block
        // every tie wins, before it only the higher scores count.
        assert_eq!(ranked_ahead(&scores, 0, 100, 1.0), 5);
        assert_eq!(ranked_ahead(&scores, 10, 3, 1.0), 2);
        // -0.0 and 0.0 tie: item 4 wins over target 5 and loses to it.
        assert_eq!(ranked_ahead(&scores, 0, 5, 0.0), 6);
        assert_eq!(ranked_ahead(&scores, 0, 4, -0.0), 5);
        assert_eq!(ranked_ahead(&scores, 0, 7, f32::INFINITY), 0);
        assert_eq!(ranked_ahead(&scores, 0, 2, f32::NAN), 0, "a NaN target is for the caller to reject");
    }

    #[test]
    fn heap_path_handles_negative_infinity_masks() {
        let mut scores = vec![1.0f32; 100];
        for s in scores.iter_mut().take(90) {
            *s = f32::NEG_INFINITY;
        }
        scores[95] = 2.0;
        let top = top_k_indices(&scores, 3);
        assert_eq!(top, vec![95, 90, 91]);
    }
}
