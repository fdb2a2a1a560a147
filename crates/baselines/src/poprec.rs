//! Popularity ranking: recommends the globally most frequent items.
//!
//! Not part of the paper's comparison but a standard sanity baseline; any
//! sequential model that does not beat popularity on the synthetic data has a
//! training problem, so the integration tests use it as a floor.

use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::Matrix;

/// A non-personalised popularity recommender.
///
/// The counts are stored as an `n × 1` matrix so popularity fits the same
/// `Scorer` shape as every other model: the "query" is the constant
/// `[1.0]` and `r_j = 1.0 · count_j` reproduces the counts exactly, which
/// lets the sharded serving layer treat PopRec like any factorised scorer.
#[derive(Debug, Clone)]
pub struct PopRec {
    scores: Matrix,
}

impl PopRec {
    /// Fits the popularity counts on training sequences.
    pub fn fit(train_sequences: &[Vec<ItemId>], num_items: usize) -> Self {
        let mut counts = vec![0.0f32; num_items];
        for seq in train_sequences {
            for &item in seq {
                counts[item] += 1.0;
            }
        }
        Self { scores: Matrix::from_vec(num_items, 1, counts) }
    }
}

/// The popularity column scored by the constant query `[1.0]`:
/// `r_j = 1.0 · count_j` is the count itself, bit for bit.
impl Scorer for PopRec {
    fn candidates(&self) -> &Matrix {
        &self.scores
    }

    fn query_vector(&self, _user: usize, _history: &[ItemId]) -> Vec<f32> {
        vec![1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_counts_training_occurrences() {
        let model = PopRec::fit(&[vec![0, 1, 1], vec![1, 2]], 4);
        assert_eq!(model.scores.get(1, 0), 3.0);
        assert_eq!(model.scores.get(3, 0), 0.0);
        assert_eq!(model.num_items(), 4);
    }

    #[test]
    fn scores_are_identical_for_every_user() {
        let model = PopRec::fit(&[vec![0, 1]], 3);
        assert_eq!(model.score_all(0, &[0]), model.score_all(5, &[2]));
    }
}
