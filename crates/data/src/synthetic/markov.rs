//! Latent cluster dynamics: the sequential-association and synergy structure
//! planted in the synthetic datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The latent dynamics over item clusters used by the generator:
/// a first-order transition matrix, a second-order transition map and a set of
/// synergy cluster pairs.
#[derive(Debug, Clone)]
pub struct ClusterDynamics {
    num_clusters: usize,
    /// `order1[c]` is a probability distribution over the next cluster given
    /// that the previous item came from cluster `c`.
    order1: Vec<Vec<f64>>,
    /// `order2[a][b]` is the preferred next cluster given the clusters of the
    /// item two steps back (`a`) and one step back (`b`).
    order2: Vec<Vec<usize>>,
    /// `(a, b) → c` synergy triggers: when clusters `a` and `b` both appear in
    /// the recent window, cluster `c` gets an extra boost.
    synergies: Vec<(usize, usize, usize)>,
}

impl ClusterDynamics {
    /// Builds the dynamics for `num_clusters` clusters and `num_synergy_pairs`
    /// synergy triggers, deterministically from `seed`.
    pub fn new(num_clusters: usize, num_synergy_pairs: usize, seed: u64) -> Self {
        assert!(num_clusters >= 2, "ClusterDynamics: need at least 2 clusters");
        let mut rng = StdRng::seed_from_u64(seed);

        // First-order: every cluster strongly prefers its "successor" cluster
        // (a chain, like sequels / series), keeps some self-transition mass and
        // spreads a small remainder over two random clusters.
        let mut order1 = vec![vec![0.0f64; num_clusters]; num_clusters];
        for (c, row) in order1.iter_mut().enumerate() {
            let successor = (c + 1) % num_clusters;
            row[successor] += 0.55;
            row[c] += 0.25;
            for _ in 0..2 {
                row[rng.gen_range(0..num_clusters)] += 0.10;
            }
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= sum);
        }

        // Second-order: the pair (a, b) of the two previous clusters prefers a
        // deterministic third cluster, sampled once per pair.
        let order2 =
            (0..num_clusters).map(|_| (0..num_clusters).map(|_| rng.gen_range(0..num_clusters)).collect()).collect();

        // Synergy triggers over distinct cluster pairs.
        let mut synergies = Vec::with_capacity(num_synergy_pairs);
        for _ in 0..num_synergy_pairs {
            let a = rng.gen_range(0..num_clusters);
            let mut b = rng.gen_range(0..num_clusters);
            if b == a {
                b = (b + 1) % num_clusters;
            }
            let c = rng.gen_range(0..num_clusters);
            synergies.push((a, b, c));
        }

        Self { num_clusters, order1, order2, synergies }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// The synergy triggers.
    pub fn synergies(&self) -> &[(usize, usize, usize)] {
        &self.synergies
    }

    /// Preferred next cluster given the clusters two steps back and one step
    /// back.
    fn order2_target(&self, two_back: usize, one_back: usize) -> usize {
        self.order2[two_back][one_back]
    }

    /// Builds the unnormalised next-cluster weights for one generation step.
    ///
    /// * `user_pref` — the user's long-term preference distribution,
    /// * `recent_clusters` — clusters of the most recent items, newest last,
    /// * the `weight_*` arguments mirror [`super::DatasetProfile`].
    pub fn next_cluster_weights(
        &self,
        user_pref: &[f64],
        recent_clusters: &[usize],
        weight_user: f64,
        weight_order1: f64,
        weight_order2: f64,
        weight_synergy: f64,
    ) -> Vec<f64> {
        assert_eq!(user_pref.len(), self.num_clusters, "user_pref length mismatch");
        let mut weights: Vec<f64> = user_pref.iter().map(|p| p * weight_user).collect();

        if let Some(&last) = recent_clusters.last() {
            for (c, w) in weights.iter_mut().enumerate() {
                *w += weight_order1 * self.order1[last][c];
            }
        }
        if recent_clusters.len() >= 2 {
            let two_back = recent_clusters[recent_clusters.len() - 2];
            let one_back = recent_clusters[recent_clusters.len() - 1];
            weights[self.order2_target(two_back, one_back)] += weight_order2;
        }
        for &(a, b, c) in &self.synergies {
            if recent_clusters.contains(&a) && recent_clusters.contains(&b) {
                weights[c] += weight_synergy;
            }
        }
        weights
    }
}

/// Samples an index from unnormalised non-negative weights.
pub fn sample_weighted(weights: &[f64], rng: &mut impl Rng) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "sample_weighted: weights must not be all zero");
    let mut draw = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order1_rows_are_distributions() {
        let d = ClusterDynamics::new(8, 4, 3);
        for c in 0..8 {
            let sum: f64 = d.order1[c].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(d.order1[c].iter().all(|&v| v >= 0.0));
        }
        assert_eq!(d.num_clusters(), 8);
        assert_eq!(d.synergies().len(), 4);
    }

    #[test]
    fn dynamics_are_deterministic_in_the_seed() {
        let a = ClusterDynamics::new(6, 3, 42);
        let b = ClusterDynamics::new(6, 3, 42);
        assert_eq!(a.order1[2], b.order1[2]);
        assert_eq!(a.synergies(), b.synergies());
        assert_eq!(a.order2_target(1, 4), b.order2_target(1, 4));
    }

    #[test]
    fn successor_cluster_dominates_first_order() {
        let d = ClusterDynamics::new(10, 0, 7);
        for c in 0..10 {
            let row = &d.order1[c];
            let successor = (c + 1) % 10;
            assert!(row[successor] >= 0.35, "successor mass too low for cluster {c}");
        }
    }

    #[test]
    fn next_cluster_weights_reflect_all_components() {
        let d = ClusterDynamics::new(4, 0, 1);
        let uniform = vec![0.25; 4];
        // no history: only the user preference contributes
        let w = d.next_cluster_weights(&uniform, &[], 1.0, 1.0, 1.0, 1.0);
        assert!(w.iter().all(|&x| (x - 0.25).abs() < 1e-9));
        // with history the successor of the last cluster gains mass
        let w = d.next_cluster_weights(&uniform, &[0], 0.0, 1.0, 0.0, 0.0);
        let successor_mass = w[1];
        assert!(successor_mass > w[3]);
    }

    #[test]
    fn synergy_boost_applies_when_both_clusters_present() {
        let mut d = ClusterDynamics::new(5, 1, 9);
        // overwrite with a known synergy for the test
        d.synergies = vec![(0, 1, 4)];
        let uniform = vec![0.2; 5];
        let with_pair = d.next_cluster_weights(&uniform, &[0, 1], 0.0, 0.0, 0.0, 1.0);
        let without_pair = d.next_cluster_weights(&uniform, &[0, 2], 0.0, 0.0, 0.0, 1.0);
        assert!(with_pair[4] > without_pair[4]);
    }

    #[test]
    fn weighted_sampling_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let s = sample_weighted(&[0.0, 1.0, 0.0], &mut rng);
            assert_eq!(s, 1);
        }
    }
}
