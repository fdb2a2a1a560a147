//! Inverted-file (IVF) cluster routing: the approximate candidate-generation
//! tier of the serving layer.
//!
//! A `ClusterIndex` partitions one shard's candidate rows into per-cluster
//! panels with the seeded, deterministic k-means in [`ham_tensor::cluster`].
//! At request time the shard scores the query against its centroids (one
//! small GEMV), visits only the top-`nprobe` clusters, and runs the masked
//! top-k select over those panels — so retrieval cost scales with the rows
//! *visited*, not the catalogue size. The per-cluster shortlists flow into
//! the very same k-way merge + exact re-rank machinery as exact serving.
//!
//! ## The exact endpoint
//!
//! `nprobe = all` ([`PROBE_ALL`]) is **bit-identical to exact serving** — ids,
//! order and scores — because every approximation ingredient degenerates to
//! the exact one:
//!
//! * panel scores equal shard scores bit for bit: the GEMV kernel scores each
//!   row independently of its neighbours, and the packed-panel GEMM
//!   accumulates every output element in ascending-`k` order regardless of
//!   how rows are grouped into panels (the same argument that makes sharding
//!   exact);
//! * each cluster keeps its rows in ascending global-id order, so the
//!   panel-local tie-break (lower panel index) is the global tie-break (lower
//!   item id), and masked items participate at `-inf` exactly as in the
//!   shard-level fused mask+select;
//! * merging per-cluster top-`min(k, len)` lists under the same total order
//!   reproduces the shard-level top-k, because every shard winner is by
//!   definition among the best `k` of its own cluster.
//!
//! With `nprobe < all` the only change is that unvisited clusters contribute
//! no candidates — a measured approximation (the `serve_report` benchmark
//! sweeps the dial and records recall@10 against the exact path), never a
//! silent one.

use ham_tensor::cluster::kmeans_rows;
use ham_tensor::{Matrix, QuantizedMatrix};

/// `nprobe` value meaning "visit every cluster" — the verified-exact endpoint
/// of the approximation dial.
pub const PROBE_ALL: usize = usize::MAX;

/// Build- and probe-time parameters of the IVF retrieval tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Clusters per shard; `0` sizes automatically to `⌈√shard_len⌉` (the
    /// classical IVF balance point between routing and scanning cost).
    pub clusters: usize,
    /// Clusters visited per shard per request ([`PROBE_ALL`] = exact).
    pub nprobe: usize,
    /// Lloyd iterations per index build.
    pub iters: usize,
    /// Seed of the deterministic k-means (mixed with the shard offset so
    /// shards don't share initialisations).
    pub seed: u64,
}

impl IvfConfig {
    /// Auto-sized clusters, `nprobe = all`, a small fixed iteration budget.
    pub fn auto() -> Self {
        Self { clusters: 0, nprobe: PROBE_ALL, iters: 8, seed: 0xA11CE }
    }

    /// Returns the config with the probe width replaced.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Cluster count for a shard of `shard_len` rows: the configured count
    /// (clamped to the row count) or `⌈√shard_len⌉` when auto-sized.
    pub fn clusters_for(&self, shard_len: usize) -> usize {
        if shard_len == 0 {
            return 0;
        }
        let want = if self.clusters > 0 { self.clusters } else { (shard_len as f64).sqrt().ceil() as usize };
        want.clamp(1, shard_len)
    }

    /// Reads the process-wide retrieval override: `HAM_RETRIEVAL=ivf` turns
    /// the IVF tier on at serving-model construction (with `HAM_IVF_NPROBE`
    /// optionally narrowing the probe width — it defaults to `all`, the exact
    /// endpoint, so forcing the IVF code paths never changes served bits on
    /// its own).
    pub fn from_env() -> Option<Self> {
        Self::from_env_values(
            std::env::var("HAM_RETRIEVAL").ok().as_deref(),
            std::env::var("HAM_IVF_NPROBE").ok().as_deref(),
        )
    }

    /// Pure body of [`Self::from_env`] (testable without touching the
    /// process environment): `retrieval` must be `ivf` (case-insensitive) to
    /// enable; `nprobe` accepts a positive integer or `all`, anything else
    /// (or absence) keeps the exact endpoint.
    pub fn from_env_values(retrieval: Option<&str>, nprobe: Option<&str>) -> Option<Self> {
        if !retrieval.is_some_and(|v| v.trim().eq_ignore_ascii_case("ivf")) {
            return None;
        }
        let nprobe = nprobe
            .and_then(|v| {
                let v = v.trim();
                if v.eq_ignore_ascii_case("all") {
                    Some(PROBE_ALL)
                } else {
                    v.parse::<usize>().ok().filter(|&n| n > 0)
                }
            })
            .unwrap_or(PROBE_ALL);
        Some(Self::auto().with_nprobe(nprobe))
    }
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// One shard's inverted-file index: centroids to route against, and the
/// shard's rows regrouped into contiguous per-cluster panels.
///
/// Only non-empty clusters are kept (k-means may strand a centroid), so
/// `centroids.rows() == panels.len() == ids.len()` and every panel has at
/// least one row. Within each cluster, rows stay in ascending shard-local
/// order — the tie-break invariant exact-endpoint bit-identity rests on.
#[derive(Debug, Clone)]
pub(crate) struct ClusterIndex {
    centroids: Matrix,
    panels: Vec<Matrix>,
    /// Int8 snapshots of `panels`, present iff the owning catalogue is
    /// quantized. Per-row quantization is position-independent, so a panel
    /// row quantizes bit-identically to the same row in the shard panel.
    qpanels: Vec<QuantizedMatrix>,
    /// `ids[j][p]`: shard-local row id of panel `j`'s row `p` (ascending).
    ids: Vec<Vec<usize>>,
    /// The inverse of `ids`: `slots[i] = (j, p)` for shard-local row `i` —
    /// how a seen item finds its score in a panel without a search.
    slots: Vec<(usize, usize)>,
}

impl ClusterIndex {
    /// Clusters `rows` with the deterministic seeded k-means and gathers the
    /// per-cluster panels. `seed_salt` (the shard offset) decorrelates the
    /// initialisation across shards while keeping the build a pure function
    /// of `(rows, config, salt)`.
    pub(crate) fn build(rows: &Matrix, config: &IvfConfig, seed_salt: u64) -> Self {
        let (n, d) = rows.shape();
        if n == 0 {
            return Self {
                centroids: Matrix::zeros(0, d),
                panels: Vec::new(),
                qpanels: Vec::new(),
                ids: Vec::new(),
                slots: Vec::new(),
            };
        }
        let k = config.clusters_for(n);
        let result = kmeans_rows(rows, k, config.iters, config.seed ^ seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); result.centroids.rows()];
        // Ascending row order per cluster — the tie-break invariant.
        for (i, &c) in result.assignments.iter().enumerate() {
            ids[c].push(i);
        }
        let keep: Vec<usize> = (0..ids.len()).filter(|&j| !ids[j].is_empty()).collect();
        let centroids = result.centroids.gather_rows(&keep);
        let ids: Vec<Vec<usize>> = keep.iter().map(|&j| std::mem::take(&mut ids[j])).collect();
        let panels: Vec<Matrix> = ids.iter().map(|cluster| rows.gather_rows(cluster)).collect();
        let mut slots = vec![(0, 0); n];
        for (j, cluster) in ids.iter().enumerate() {
            for (p, &i) in cluster.iter().enumerate() {
                slots[i] = (j, p);
            }
        }
        Self { centroids, panels, qpanels: Vec::new(), ids, slots }
    }

    /// Snapshots every panel as int8 (called when the owning catalogue is
    /// quantized, so the IVF path pre-selects through the same ¼-traffic
    /// panels as shard-level quantized serving).
    pub(crate) fn quantize_panels(&mut self) {
        self.qpanels = self.panels.iter().map(QuantizedMatrix::quantize).collect();
    }

    /// Number of (non-empty) clusters.
    pub(crate) fn num_clusters(&self) -> usize {
        self.centroids.rows()
    }

    /// Length of the longest panel (scratch sizing).
    pub(crate) fn max_panel_len(&self) -> usize {
        self.ids.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The routing matrix: one centroid per (non-empty) cluster.
    pub(crate) fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Cluster `j`'s f32 panel.
    pub(crate) fn panel(&self, j: usize) -> &Matrix {
        &self.panels[j]
    }

    /// Cluster `j`'s int8 panel.
    ///
    /// # Panics
    /// Panics if the panels were never quantized.
    pub(crate) fn qpanel(&self, j: usize) -> &QuantizedMatrix {
        &self.qpanels[j]
    }

    /// Cluster `j`'s shard-local row ids, ascending.
    pub(crate) fn cluster_ids(&self, j: usize) -> &[usize] {
        &self.ids[j]
    }

    /// The `(cluster, panel row)` holding shard-local row `local`.
    pub(crate) fn slot(&self, local: usize) -> (usize, usize) {
        self.slots[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, d: usize) -> Matrix {
        Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 31) % 17) as f32 * 0.5 - 4.0).collect())
    }

    #[test]
    fn build_partitions_every_row_exactly_once() {
        let w = rows(40, 6);
        let index = ClusterIndex::build(&w, &IvfConfig::auto(), 3);
        let mut all: Vec<usize> = (0..index.num_clusters()).flat_map(|j| index.cluster_ids(j).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
        // Panels hold the gathered rows, ids ascending within each cluster.
        for j in 0..index.num_clusters() {
            let ids = index.cluster_ids(j);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "cluster {j} ids not ascending");
            assert!(!ids.is_empty(), "cluster {j} kept while empty");
            for (p, &local) in ids.iter().enumerate() {
                assert_eq!(index.panel(j).row(p), w.row(local));
                assert_eq!(index.slot(local), (j, p));
            }
        }
    }

    #[test]
    fn build_is_deterministic_per_salt() {
        let w = rows(30, 4);
        let a = ClusterIndex::build(&w, &IvfConfig::auto(), 7);
        let b = ClusterIndex::build(&w, &IvfConfig::auto(), 7);
        assert_eq!(a.centroids().as_slice(), b.centroids().as_slice());
        assert_eq!(a.ids, b.ids);
    }

    #[test]
    fn empty_shard_builds_an_empty_index() {
        let index = ClusterIndex::build(&Matrix::zeros(0, 5), &IvfConfig::auto(), 0);
        assert_eq!(index.num_clusters(), 0);
        assert_eq!(index.max_panel_len(), 0);
    }

    #[test]
    fn config_cluster_sizing() {
        let auto = IvfConfig::auto();
        assert_eq!(auto.clusters_for(0), 0);
        assert_eq!(auto.clusters_for(1), 1);
        assert_eq!(auto.clusters_for(100), 10);
        assert_eq!(auto.clusters_for(10_000), 100);
        let fixed = IvfConfig { clusters: 64, ..IvfConfig::auto() };
        assert_eq!(fixed.clusters_for(10_000), 64);
        assert_eq!(fixed.clusters_for(5), 5, "clusters clamp to the row count");
    }

    #[test]
    fn env_parsing_is_gated_and_defaults_to_the_exact_endpoint() {
        assert_eq!(IvfConfig::from_env_values(None, None), None);
        assert_eq!(IvfConfig::from_env_values(Some(""), Some("4")), None);
        assert_eq!(IvfConfig::from_env_values(Some("exact"), None), None);
        assert_eq!(IvfConfig::from_env_values(Some("ivf"), None), Some(IvfConfig::auto()));
        assert_eq!(IvfConfig::from_env_values(Some(" IVF "), None), Some(IvfConfig::auto()));
        assert_eq!(IvfConfig::from_env_values(Some("ivf"), Some("all")), Some(IvfConfig::auto()));
        assert_eq!(IvfConfig::from_env_values(Some("ivf"), Some("8")), Some(IvfConfig::auto().with_nprobe(8)));
        // Garbage / zero nprobe keeps the exact endpoint rather than erroring.
        assert_eq!(IvfConfig::from_env_values(Some("ivf"), Some("0")), Some(IvfConfig::auto()));
        assert_eq!(IvfConfig::from_env_values(Some("ivf"), Some("lots")), Some(IvfConfig::auto()));
    }
}
