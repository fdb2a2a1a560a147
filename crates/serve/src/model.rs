//! A model packaged for serving: sharded candidate catalogue + query builder.

use crate::ivf::IvfConfig;
use crate::request::RecommendRequest;
use crate::shard::{ScoredItem, ShardedCatalog};
use ham_core::{LinearHead, Scorer, SeenMask};
use ham_data::dataset::ItemId;
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedQuery};
use std::sync::Arc;

/// A model snapshot prepared for online serving.
///
/// Construction freezes the model's linear head into (1) a [`ShardedCatalog`]
/// — the candidate matrix split row-wise across shards — and (2) an owned
/// query builder, so the serving loop needs no lifetime ties back into the
/// training-side model types. Build one from any [`Scorer`]
/// ([`Self::from_scorer`]) or from anything else exposing a [`LinearHead`]
/// ([`Self::from_head_fn`], used for the `ham-baselines` recommenders).
///
/// Results are **exact**: the single-request path ([`Self::recommend`])
/// scores each shard with the same GEMV kernel the single-node
/// `recommend_top_k` uses and is bit-identical to it; the batched path
/// ([`Self::recommend_batch`]) coalesces the batch into one packed-panel GEMM
/// per shard and is bit-identical to the equivalent unsharded GEMM ranking
/// (which agrees with the GEMV path within float rounding, ≤ 1e-5 — the same
/// contract `score_batch` has had since the kernel layer landed).
///
/// [`Self::with_quantized_catalog`] additionally freezes an int8 snapshot of
/// the candidate matrix at publish time: requests then pre-select through
/// the quantized panels (¼ of the candidate-matrix memory traffic) and
/// re-rank the quantized top-`2k` with the exact f32 per-row kernel, so the
/// served top-k stays bit-identical — ids and order — to the exact GEMV
/// path (pinned by the serving tests as a recall guardrail).
pub struct ServingModel {
    name: String,
    /// Behind an `Arc`: the deadline-bounded degraded path hands each shard
    /// task its own catalogue handle, so a task that outlives its batch (a
    /// timed-out slow shard) can never dangle.
    catalog: Arc<ShardedCatalog>,
    query: ham_core::scorer::QueryFn<'static>,
}

impl ServingModel {
    /// Packages a sharded snapshot of `model` (any [`Scorer`] with a linear
    /// head). Returns `None` if the model has no linear head.
    pub fn from_scorer<S>(name: &str, model: Arc<S>, num_shards: usize) -> Option<Self>
    where
        S: Scorer + Send + Sync + 'static,
    {
        Self::from_head_fn(name, model, num_shards, |m| m.linear_head())
    }

    /// Packages a sharded snapshot of any model for which `head_fn` can
    /// produce a [`LinearHead`] — e.g.
    /// `ham_baselines::SequentialRecommender::linear_head`. Returns `None`
    /// when `head_fn` does.
    ///
    /// The catalogue rows are copied into the shards once, here; the query
    /// builder re-derives the (cheap) head per call, so the `Arc`'d model is
    /// the only thing kept alive.
    pub fn from_head_fn<S, F>(name: &str, model: Arc<S>, num_shards: usize, head_fn: F) -> Option<Self>
    where
        S: Send + Sync + 'static,
        F: for<'m> Fn(&'m S) -> Option<LinearHead<'m>> + Send + Sync + 'static,
    {
        let catalog = Arc::new(catalog_from_env(head_fn(&model)?.candidates(), num_shards));
        let query = Box::new(move |user: usize, history: &[ItemId]| {
            // ham-lint: allow(panic, "head_fn returned Some at construction and is a pure fn of the immutable model")
            head_fn(&model).expect("model's linear head disappeared after construction").query_vector(user, history)
        });
        Some(Self { name: name.to_string(), catalog, query })
    }

    /// Packages a catalogue matrix and a query closure directly (no model
    /// type involved) — the escape hatch for custom scorers.
    pub fn from_parts(
        name: &str,
        candidates: &Matrix,
        num_shards: usize,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            catalog: Arc::new(catalog_from_env(candidates, num_shards)),
            query: Box::new(query),
        }
    }

    /// Packages a pre-built catalogue (possibly quantized and/or clustered)
    /// with a query closure — how the benchmark sweeps re-dial `nprobe`
    /// without rebuilding the k-means index per setting.
    pub fn from_catalog(
        name: &str,
        catalog: ShardedCatalog,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.to_string(), catalog: Arc::new(catalog), query: Box::new(query) }
    }

    /// Freezes an int8 snapshot of every shard and switches serving to the
    /// quantized pre-selection + exact re-rank path. The f32 shards stay
    /// authoritative (the re-rank reads them), so this only adds the panels'
    /// 1 byte/element — and serving results stay bit-identical to the exact
    /// path under the recall guardrail.
    pub fn with_quantized_catalog(mut self) -> Self {
        // Publish-time construction: the Arc is freshly made and unshared,
        // so this is a move, not a catalogue copy.
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_quantization());
        self
    }

    /// Builds the inverted-file cluster index over every shard and switches
    /// serving to the cluster-routed IVF paths (see
    /// [`ShardedCatalog::with_cluster_index`]). With the default
    /// `nprobe = all` the served bits are unchanged; narrower probes trade
    /// measured recall for sub-linear retrieval cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_cluster_index(config));
        self
    }

    /// Re-dials the probe width of an already-clustered catalogue (cheap —
    /// no index rebuild).
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_nprobe(nprobe));
        self
    }

    /// Whether requests take the quantized pre-selection path.
    pub fn is_quantized(&self) -> bool {
        self.catalog.is_quantized()
    }

    /// Whether requests take the cluster-routed IVF paths.
    pub fn is_clustered(&self) -> bool {
        self.catalog.is_clustered()
    }

    /// Clusters a request visits across all shards (0 on exact serving) —
    /// the retrieval metadata responses report.
    pub fn clusters_probed(&self) -> usize {
        self.catalog.clusters_probed()
    }

    /// Human-readable model name (shown in benchmark reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sharded candidate catalogue.
    pub fn catalog(&self) -> &ShardedCatalog {
        &self.catalog
    }

    /// A shareable handle to the catalogue — what the deadline-bounded
    /// scoring path hands to its per-shard tasks.
    pub fn catalog_arc(&self) -> Arc<ShardedCatalog> {
        Arc::clone(&self.catalog)
    }

    /// Catalogue size.
    pub fn num_items(&self) -> usize {
        self.catalog.num_items()
    }

    /// The query vector for one user/history.
    pub fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        (self.query)(user, history)
    }

    /// Serves one request exactly: per-shard GEMV, shard-local fused
    /// masking, k-way merge. Bit-identical to the single-node
    /// `recommend_top_k` for every shard count.
    ///
    /// Allocates its own working buffers; a serving loop should hold a
    /// [`ServeScratch`] and call [`Self::recommend_with`] instead.
    pub fn recommend(&self, request: &RecommendRequest) -> Vec<ScoredItem> {
        self.recommend_with(request, &mut ServeScratch::new())
    }

    /// [`Self::recommend`] with reusable working buffers: the shard GEMVs
    /// write into `scratch`'s score buffer ([`matvec_transposed_into`] — no
    /// `Vec` per request) and the seen-item bitmap is marked and cleared in
    /// O(history) instead of being re-allocated per request. Results are
    /// identical to [`Self::recommend`].
    ///
    /// [`matvec_transposed_into`]: ham_tensor::kernels::matvec_transposed_into
    // ham-lint: hot-path
    pub fn recommend_with(&self, request: &RecommendRequest, scratch: &mut ServeScratch) -> Vec<ScoredItem> {
        let q = self.query_vector(request.user, &request.history);
        let ServeScratch { scores, seen, qquery, route } = scratch;
        let seen_bits = if request.exclude_seen {
            seen.resize(self.catalog.num_items());
            seen.mark(&request.history);
            Some(seen.bits())
        } else {
            None
        };
        let out = match (self.catalog.is_clustered(), self.catalog.is_quantized()) {
            (true, true) => self.catalog.ivf_quantized_top_k_with_buf(&q, request.k, seen_bits, scores, qquery, route),
            (true, false) => self.catalog.ivf_top_k_with_buf(&q, request.k, seen_bits, scores, route),
            (false, true) => self.catalog.quantized_top_k_with_buf(&q, request.k, seen_bits, scores, qquery),
            (false, false) => self.catalog.top_k_with_buf(&q, request.k, seen_bits, scores),
        };
        if request.exclude_seen {
            seen.clear(&request.history);
        }
        out
    }

    /// Serves a coalesced batch: the queries are built once, every shard
    /// task (in parallel across shards on `pool` when given) scores the
    /// whole batch against its shard in packed-panel GEMM tiles and ranks
    /// each request in-task with its own `k` and seen history, and the
    /// per-shard shortlists are k-way merged — no `b × shard` score block and
    /// no catalogue-sized bitmap exist on the exact path.
    ///
    /// A batch of one takes the GEMV path of [`Self::recommend`], so a
    /// lonely request gets the same bits whether or not it was queued.
    pub fn recommend_batch(&self, requests: &[RecommendRequest], pool: Option<&ThreadPool>) -> Vec<Vec<ScoredItem>> {
        self.recommend_batch_with(requests, pool, &mut ServeScratch::new())
    }

    /// [`Self::recommend_batch`] with reusable working buffers: a batch of
    /// one takes the allocation-free GEMV path of [`Self::recommend_with`]
    /// (same bits whether or not the request was queued), larger batches take
    /// the per-shard tiled GEMM path. The dispatcher thread of `RecServer` holds
    /// one [`ServeScratch`] across its whole lifetime.
    pub fn recommend_batch_with(
        &self,
        requests: &[RecommendRequest],
        pool: Option<&ThreadPool>,
        scratch: &mut ServeScratch,
    ) -> Vec<Vec<ScoredItem>> {
        self.recommend_batch_traced(requests, pool, scratch, None)
    }

    /// [`Self::recommend_batch_with`] with stage timing: when `trace` is
    /// given, query assembly, per-shard scoring, merging and (on the
    /// quantized path) the exact re-rank are clocked into it. The batch-of-1
    /// GEMV path is deliberately timed as one opaque `solo` stage — its
    /// scoring loop stays exactly the untraced code, so a queued lone
    /// request keeps returning the same bits with or without telemetry.
    pub fn recommend_batch_traced(
        &self,
        requests: &[RecommendRequest],
        pool: Option<&ThreadPool>,
        scratch: &mut ServeScratch,
        mut trace: Option<&mut crate::trace::StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        match requests {
            [] => Vec::new(),
            [single] => {
                let started = trace.is_some().then(std::time::Instant::now);
                let out = vec![self.recommend_with(single, scratch)];
                if let (Some(trace), Some(at)) = (trace.as_deref_mut(), started) {
                    trace.solo_micros = Some(at.elapsed().as_micros() as u64);
                }
                out
            }
            _ => {
                let assembly_started = trace.is_some().then(std::time::Instant::now);
                let mut queries = Matrix::zeros(requests.len(), self.catalog.dim());
                for (i, request) in requests.iter().enumerate() {
                    queries.row_mut(i).copy_from_slice(&self.query_vector(request.user, &request.history));
                }
                let ks: Vec<usize> = requests.iter().map(|r| r.k).collect();
                let seen: Vec<Option<&[usize]>> =
                    requests.iter().map(|r| r.exclude_seen.then_some(r.history.as_slice())).collect();
                if let (Some(trace), Some(at)) = (trace.as_deref_mut(), assembly_started) {
                    trace.batch_assembly_micros = at.elapsed().as_micros() as u64;
                }
                if self.catalog.is_quantized() {
                    self.catalog.quantized_top_k_batch_traced(&queries, &ks, &seen, pool, trace)
                } else {
                    self.catalog.top_k_batch_traced(&queries, &ks, &seen, pool, trace)
                }
            }
        }
    }
}

/// Reusable working buffers for the single-request serving path: the shard
/// score buffer (grown once to the largest shard) and a [`SeenMask`]
/// (marked and cleared per request in O(history), the same bitmap type the
/// single-node recommend paths use).
///
/// Invariant between calls: the mask is all-clear. The recommend paths
/// restore it on every normal return; after a panic unwound through a
/// serving call, call [`Self::reset`] before reuse.
#[derive(Debug)]
pub struct ServeScratch {
    scores: Vec<f32>,
    seen: SeenMask,
    /// Reusable quantized-query buffer for the quantized serving path
    /// (re-quantized in place per request — no allocation after warmup).
    qquery: QuantizedQuery,
    /// Reusable centroid-score buffer for the cluster-routed IVF path
    /// (grown once to the largest per-shard cluster count).
    route: Vec<f32>,
}

impl ServeScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self { scores: Vec::new(), seen: SeenMask::new(0), qquery: QuantizedQuery::quantize(&[]), route: Vec::new() }
    }

    /// Restores the all-clear invariant (used after a serving call panicked
    /// mid-request, when the request's marks may still be set).
    pub fn reset(&mut self) {
        self.seen.reset();
    }
}

impl Default for ServeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Shards `w` and, when the process-wide retrieval override is armed
/// (`HAM_RETRIEVAL=ivf`), builds the cluster index at construction — with
/// the exact `nprobe = all` endpoint unless `HAM_IVF_NPROBE` narrows it, so
/// the override forces the IVF *code paths* without changing served bits.
fn catalog_from_env(w: &Matrix, num_shards: usize) -> ShardedCatalog {
    let catalog = ShardedCatalog::from_matrix(w, num_shards);
    match IvfConfig::from_env() {
        Some(config) => catalog.with_cluster_index(&config),
        None => catalog,
    }
}

impl std::fmt::Debug for ServingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingModel")
            .field("name", &self.name)
            .field("num_items", &self.catalog.num_items())
            .field("num_shards", &self.catalog.num_shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::{HamConfig, HamModel, HamVariant};

    fn ham() -> Arc<HamModel> {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        Arc::new(HamModel::new(4, 30, config, 13))
    }

    #[test]
    fn from_scorer_matches_recommend_top_k_bit_for_bit() {
        let model = ham();
        for shards in [1, 3, 8] {
            let serving = ServingModel::from_scorer("ham", Arc::clone(&model), shards).expect("HAM has a head");
            let history = vec![1usize, 5, 9, 9, 2];
            for exclude in [true, false] {
                let request = RecommendRequest {
                    user: 2,
                    history: history.clone(),
                    k: 10,
                    exclude_seen: exclude,
                    deadline: None,
                };
                let served: Vec<usize> = serving.recommend(&request).iter().map(|s| s.item).collect();
                assert_eq!(served, model.recommend_top_k(2, &history, 10, exclude), "shards = {shards}");
            }
        }
    }

    #[test]
    fn batch_of_one_takes_the_exact_gemv_path() {
        let model = ham();
        let serving = ServingModel::from_scorer("ham", Arc::clone(&model), 4).unwrap();
        let request = RecommendRequest::new(0, vec![3, 7], 5);
        let batched = serving.recommend_batch(std::slice::from_ref(&request), None);
        assert_eq!(batched[0], serving.recommend(&request));
    }

    #[test]
    fn from_parts_serves_a_custom_head() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let serving = ServingModel::from_parts("toy", &w, 2, |_, _| vec![1.0, 0.5]);
        let top = serving.recommend(&RecommendRequest {
            user: 0,
            history: vec![],
            k: 3,
            exclude_seen: false,
            deadline: None,
        });
        let ids: Vec<usize> = top.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![2, 0, 1]);
        assert_eq!(top[0].score, 3.0);
    }
}
