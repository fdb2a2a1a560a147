//! Small linear-algebra helpers on top of [`Matrix`]: row norms, row
//! normalisation and cosine similarity. Used by the embedding-analysis
//! example and by tests that inspect learned item embeddings.

use crate::matrix::dot;
use crate::ops::TopKStream;
use crate::Matrix;

/// The Euclidean (L2) norm of a vector.
fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Returns a copy of the matrix with every row scaled to unit L2 norm.
/// All-zero rows are left unchanged.
pub fn normalize_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let norm = l2_norm(out.row(r));
        if norm > 0.0 {
            for v in out.row_mut(r) {
                *v /= norm;
            }
        }
    }
    out
}

/// Cosine similarity between two vectors (0.0 when either has zero norm).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// The `k` rows of `embeddings` most cosine-similar to row `query` (excluding
/// the query row itself), as `(row index, similarity)` pairs in
/// [`Ranked`](crate::ops::Ranked) order: descending similarity, ties to the
/// lower row. A NaN similarity (a row holding NaN) never ranks, so fewer
/// than `k` real similarities give a shorter list.
pub fn most_similar_rows(embeddings: &Matrix, query: usize, k: usize) -> Vec<(usize, f32)> {
    assert!(query < embeddings.rows(), "most_similar_rows: query row out of bounds");
    let q = embeddings.row(query);
    let sims: Vec<f32> = (0..embeddings.rows()).map(|r| cosine_similarity(q, embeddings.row(r))).collect();
    // The query row is skipped, not masked: the blocks before and after it
    // are fed, so it can never pad the list.
    let mut stream = TopKStream::new(k.min(sims.len() - 1));
    stream.push_block(0, &sims[..query], |_| false);
    stream.push_block(query + 1, &sims[query + 1..], |_| false);
    stream.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_normalisation() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = normalize_rows(&m);
        assert!((l2_norm(n.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0], "zero rows stay zero");
    }

    #[test]
    fn cosine_similarity_basic_identities() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 3.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-5.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn most_similar_excludes_self_and_sorts() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[-1.0, 0.0]]);
        let sims = most_similar_rows(&m, 0, 2);
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].0, 1, "the nearly-parallel row must rank first");
        assert!(sims[0].1 > sims[1].1);
        assert!(sims.iter().all(|&(r, _)| r != 0));
    }

    #[test]
    fn most_similar_never_pads_with_the_query_row() {
        let m = Matrix::from_rows(&[&[f32::NAN, 0.0], &[1.0, 0.0], &[0.0, f32::NAN]]);
        assert!(most_similar_rows(&m, 1, 3).is_empty(), "only NaN similarities besides the query");
        assert!(most_similar_rows(&Matrix::from_rows(&[&[1.0, 0.0]]), 0, 1).is_empty());
    }

    /// A thousand random embeddings of 64–2 063 rows with about 10% NaN
    /// entries: the NaN-equal comparator a full sort here once took panicked
    /// on most of them. Every ranking must hold exactly the real
    /// similarities of the other rows, descending, and no NaN.
    #[test]
    fn most_similar_never_ranks_nan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..1000 {
            let rows = rng.gen_range(64..2064);
            let data: Vec<f32> =
                (0..rows * 2).map(|_| if rng.gen_bool(0.1) { f32::NAN } else { rng.gen_range(-1.0..1.0) }).collect();
            let m = Matrix::from_vec(rows, 2, data);
            let query = rng.gen_range(0..rows);
            let sims = most_similar_rows(&m, query, rows);
            let real = (0..rows).filter(|&r| r != query && !cosine_similarity(m.row(query), m.row(r)).is_nan()).count();
            assert_eq!(sims.len(), real, "every real similarity ranks, no NaN one");
            assert!(sims.iter().all(|&(r, s)| r != query && !s.is_nan()));
            assert!(
                sims.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)),
                "real similarities descend, ties to the lower row"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn most_similar_rejects_bad_query() {
        let m = Matrix::zeros(2, 2);
        let _ = most_similar_rows(&m, 5, 1);
    }
}
