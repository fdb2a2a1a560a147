//! Small linear-algebra helpers on top of [`Matrix`]: row norms, row
//! normalisation and cosine similarity. Used by the embedding-analysis
//! example and by tests that inspect learned item embeddings.

use crate::matrix::dot;
use crate::Matrix;

/// The Euclidean (L2) norm of a vector.
pub fn l2_norm(v: &[f32]) -> f32 {
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
/// the query row itself), as `(row index, similarity)` pairs sorted by
/// descending similarity, ties to the lower row. A NaN similarity (a row
/// holding NaN) ranks after every real one, so the order is total and the
/// sort cannot panic on it.
pub fn most_similar_rows(embeddings: &Matrix, query: usize, k: usize) -> Vec<(usize, f32)> {
    assert!(query < embeddings.rows(), "most_similar_rows: query row out of bounds");
    let q = embeddings.row(query);
    let mut sims: Vec<(usize, f32)> =
        (0..embeddings.rows()).filter(|&r| r != query).map(|r| (r, cosine_similarity(q, embeddings.row(r)))).collect();
    sims.sort_by(|a, b| a.1.is_nan().cmp(&b.1.is_nan()).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0)));
    sims.truncate(k);
    sims
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

    /// A thousand random embeddings of 64–2 063 rows with about 10% NaN
    /// entries: the NaN-equal comparator this sort used to take panicked on
    /// most of them. Every ranking must come back with the real similarities
    /// first, descending, and the NaN ones after them.
    #[test]
    fn most_similar_ranks_nan_last_without_panicking() {
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
            assert_eq!(sims.len(), rows - 1);
            let real = sims.iter().take_while(|&&(_, s)| !s.is_nan()).count();
            assert!(sims[real..].iter().all(|&(_, s)| s.is_nan()), "NaN similarities come last");
            assert!(sims[..real].windows(2).all(|w| w[0].1 >= w[1].1), "real similarities descend");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn most_similar_rejects_bad_query() {
        let m = Matrix::zeros(2, 2);
        let _ = most_similar_rows(&m, 5, 1);
    }
}
