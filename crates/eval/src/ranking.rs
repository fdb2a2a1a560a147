//! The evaluation protocol's ranking step: a user's top-`k` with their
//! history excluded.

use ham_tensor::ops::top_k_indices_masked;

/// Ranks the top-`k` items while excluding the user's history, without
/// writing `-inf` sentinels into the score buffer.
///
/// This is the fused "mask + select" ranking path of the evaluation
/// protocol: the history items are marked in the reusable `seen_scratch`
/// bitmap (O(history)), the bounded-heap top-k scan skips them via the
/// bitmap, and the marks are cleared again before returning — so `scores`
/// can be a borrowed row of a shared batch-score matrix and `seen_scratch`
/// is reused across every user of a worker chunk. The returned ranking is
/// bit-identical to overwriting the history scores with `-inf` and calling
/// `top_k_indices` (masked items still pad the tail, in index order, when
/// fewer than `k` items are unseen).
///
/// History entries outside the catalogue are ignored.
///
/// # Panics
/// Panics if `seen_scratch` and `scores` differ in length.
pub fn top_k_excluding(scores: &[f32], k: usize, history: &[usize], seen_scratch: &mut [bool]) -> Vec<usize> {
    for &item in history {
        if item < seen_scratch.len() {
            seen_scratch[item] = true;
        }
    }
    let ranked = top_k_indices_masked(scores, k, seen_scratch);
    for &item in history {
        if item < seen_scratch.len() {
            seen_scratch[item] = false;
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_excluding_matches_inf_masking_and_resets_scratch() {
        let scores = [0.9f32, 0.8, 0.7, 0.6, 0.5];
        let mut scratch = vec![false; 5];
        let ranked = top_k_excluding(&scores, 3, &[0, 2, 17], &mut scratch);
        assert_eq!(ranked, vec![1, 3, 4]);
        assert!(scratch.iter().all(|&b| !b), "scratch must be clean for the next user");
        // Excluding everything still returns k indices (tail padding).
        assert_eq!(top_k_excluding(&scores, 2, &[0, 1, 2, 3, 4], &mut scratch), vec![0, 1]);
        assert!(scratch.iter().all(|&b| !b));
    }
}
