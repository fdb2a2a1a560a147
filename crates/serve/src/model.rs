//! A model packaged for serving: sharded candidate catalogue + query builder.

use crate::ivf::IvfConfig;
use crate::request::RecommendRequest;
use crate::shard::{quantize_rows, FlatScratch, ScoredItem, ShardRun, ShardTally, ShardedCatalog};
use crate::trace::StageTrace;
use ham_core::Scorer;
use ham_data::dataset::ItemId;
use ham_tensor::kernels;
use ham_tensor::ops::ranked_ahead;
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedQuery};
use std::sync::Arc;

/// A model snapshot prepared for online serving.
///
/// Construction freezes a [`Scorer`] into (1) a [`ShardedCatalog`] — the
/// candidate matrix split row-wise across shards, as row ranges of the
/// model's own table when the model shares it — and (2) an owned query
/// builder, so the serving loop needs no lifetime ties back into the
/// training-side model types. Every model in the workspace is a [`Scorer`],
/// the baselines included ([`Self::from_scorer`]); [`Self::from_parts`] takes
/// a bare matrix and query closure.
///
/// Results are **exact**: the single-request path ([`Self::recommend`])
/// scores each shard with the same GEMV kernel the single-node
/// `recommend_top_k` uses and is bit-identical to it, with its shard tasks in
/// turn on the caller or ([`SOLO_FAN_OUT_MIN_BYTES`]) on the pool; the batched
/// path ([`Self::recommend_batch`]) coalesces the batch into one packed-panel GEMM
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
    catalog: ShardedCatalog,
    query: QueryFn,
    /// The freeze-time plan for a lone request ([`solo_fans_out`]).
    solo_fan_out: bool,
}

/// Size of the f32 catalogue (`items × dim × 4` bytes) from which a flat lone
/// request's shard tasks are worth handing to the pool: about twice a core's
/// L2 on the reference host. Set from the `solo_sizes` sweep in
/// `BENCH_serving.json` (2 cores, 4 shards, d = 32): fanned out is 0.76x
/// in-turn throughput at 10k items (1.3 MB), 0.99x at 30k (3.8 MB), 1.38x at
/// 60k (7.7 MB) and 1.46x at 120k. Int8 panels are held to the same size,
/// not to their own bytes: an int8 scan costs 0.7–0.9x the f32 one — it
/// tracks items — and the sweep's int8 rows cross over where the f32 rows
/// do (0.83x, 0.97x, 1.22x, 1.37x).
pub const SOLO_FAN_OUT_MIN_BYTES: usize = 4 << 20;

/// Whether a lone request on `catalog` is big enough to fan its shard scans
/// out: never on the IVF tiers (they scan a few panels).
fn solo_fans_out(catalog: &ShardedCatalog) -> bool {
    !catalog.is_clustered() && catalog.num_items() * catalog.dim() * 4 >= SOLO_FAN_OUT_MIN_BYTES
}

/// A snapshot's query builder: `(user, history)` to the query vector `q`.
type QueryFn = Box<dyn Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync>;

impl ServingModel {
    /// Packages a sharded snapshot of `model`, any [`Scorer`]: HAM,
    /// generalized HAM or a baseline. Always `Some`; the `Option` is kept
    /// for callers written when a model could lack a linear head.
    ///
    /// A model that shares its candidate matrix
    /// ([`Scorer::shared_candidates`], as the HAM models do) is not copied:
    /// the shards are row ranges of the model's own table. Any other model
    /// (the baselines) has its rows copied once, here. The query builder
    /// calls the model's own [`Scorer::query_vector`], so the `Arc`'d model
    /// is the only other thing kept alive.
    pub fn from_scorer<S>(name: &str, model: Arc<S>, num_shards: usize) -> Option<Self>
    where
        S: Scorer + Send + Sync + ?Sized + 'static,
    {
        let catalog = match model.shared_candidates() {
            Some(w) => ShardedCatalog::from_shared(w, num_shards),
            None => ShardedCatalog::from_matrix(model.candidates(), num_shards),
        };
        let catalog = with_env_retrieval(catalog);
        let query = Box::new(move |user: usize, history: &[ItemId]| model.query_vector(user, history));
        Some(Self::freeze(name.to_string(), catalog, query))
    }

    /// Packages a catalogue matrix and a query closure directly (no model
    /// type involved) — the escape hatch for custom scorers.
    pub fn from_parts(
        name: &str,
        candidates: &Matrix,
        num_shards: usize,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        let catalog = with_env_retrieval(ShardedCatalog::from_matrix(candidates, num_shards));
        Self::freeze(name.to_string(), catalog, Box::new(query))
    }

    /// Packages a pre-built catalogue (possibly quantized and/or clustered)
    /// with a query closure — how the benchmark sweeps re-dial `nprobe`
    /// without rebuilding the k-means index per setting.
    pub fn from_catalog(
        name: &str,
        catalog: ShardedCatalog,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        Self::freeze(name.to_string(), catalog, Box::new(query))
    }

    /// Every constructor ends here: a lone request's plan is made once, from
    /// what the snapshot contains.
    fn freeze(name: String, catalog: ShardedCatalog, query: QueryFn) -> Self {
        let solo_fan_out = solo_fans_out(&catalog);
        Self { name, catalog, query, solo_fan_out }
    }

    /// Re-freezes with a rebuilt catalogue.
    fn refreeze(self, rebuild: impl FnOnce(ShardedCatalog) -> ShardedCatalog) -> Self {
        Self::freeze(self.name, rebuild(self.catalog), self.query)
    }

    /// Freezes an int8 snapshot of every shard and switches serving to the
    /// quantized pre-selection + exact re-rank path. The f32 shards stay
    /// authoritative (the re-rank reads them), so this only adds the panels'
    /// 1 byte/element — and serving results stay bit-identical to the exact
    /// path under the recall guardrail.
    pub fn with_quantized_catalog(self) -> Self {
        self.refreeze(ShardedCatalog::with_quantization)
    }

    /// Builds the inverted-file cluster index over every shard and switches
    /// every shard task to cluster-routed scoring (see
    /// [`ShardedCatalog::with_cluster_index`]). With the default
    /// `nprobe = all` the served bits are unchanged; narrower probes trade
    /// measured recall for sub-linear retrieval cost.
    pub fn with_cluster_index(self, config: &IvfConfig) -> Self {
        self.refreeze(|catalog| catalog.with_cluster_index(config))
    }

    /// Re-dials the probe width of an already-clustered catalogue (cheap —
    /// no index rebuild).
    pub fn with_nprobe(self, nprobe: usize) -> Self {
        self.refreeze(|catalog| catalog.with_nprobe(nprobe))
    }

    /// Whether requests take the quantized pre-selection path.
    pub fn is_quantized(&self) -> bool {
        self.catalog.is_quantized()
    }

    /// Whether requests are scored cluster-routed (the IVF tier).
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

    /// Catalogue size.
    pub fn num_items(&self) -> usize {
        self.catalog.num_items()
    }

    /// The query vector for one user/history.
    pub fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        (self.query)(user, history)
    }

    /// Serves one request exactly: per-shard GEMV fused with the shard-local
    /// masked select, k-way merge. Bit-identical to the single-node
    /// `recommend_top_k` for every shard count.
    ///
    /// Allocates its own working buffers; a serving loop should hold a
    /// [`ServeScratch`] and call [`Self::recommend_with`] instead.
    pub fn recommend(&self, request: &RecommendRequest) -> Vec<ScoredItem> {
        self.recommend_with(request, &mut ServeScratch::new())
    }

    /// [`Self::recommend`] with reusable working buffers: the shard GEMVs
    /// write into `scratch`'s score tiles (no `Vec` per request) and the seen
    /// items are masked from the request's history in O(history). The shard
    /// tasks run in turn on the caller; results equal [`Self::recommend`]'s.
    pub fn recommend_with(&self, request: &RecommendRequest, scratch: &mut ServeScratch) -> Vec<ScoredItem> {
        self.recommend_solo(request, ShardRun::Scoped(None), scratch, None).0
    }

    /// One request through the shard driver as a batch of one row — its shard
    /// tasks run as `run` says, timed into `trace`.
    // ham-lint: hot-path
    fn recommend_solo(
        &self,
        request: &RecommendRequest,
        run: ShardRun<'_>,
        scratch: &mut ServeScratch,
        trace: Option<&mut StageTrace>,
    ) -> (Vec<ScoredItem>, ShardTally) {
        let q = self.query_vector(request.user, &request.history);
        let ServeScratch { flat, qquery } = scratch;
        let qqueries = self.catalog.is_quantized().then(|| {
            qquery.requantize(&q);
            std::slice::from_ref(&*qquery)
        });
        // A query of the wrong length is the scoring kernels' to reject.
        let queries = Matrix::from_vec(1, q.len(), q);
        let seen_items = [request.exclude_seen.then_some(request.history.as_slice())];
        // ham-lint: allow(alloc, "empty Vecs; each grows once, to its shard, in its task")
        flat.tiles.resize_with(self.catalog.num_shards(), Vec::new);
        let (mut out, tally) = self.catalog.rank_batch(&queries, qqueries, &[request.k], &seen_items, run, trace, flat);
        (out.pop().unwrap_or_default(), tally)
    }

    /// Counts the probes `(user, history, target)` whose target this
    /// snapshot ranks in its top `k` — the shadow gate's question, answered
    /// by counting instead of ranking. Queries come from the snapshot's own
    /// query builder, and nothing is masked: a target that repeats an
    /// earlier interaction stays rankable.
    ///
    /// The probes go in chunks of 64 rows. A chunk's queries are scored
    /// against the whole f32 catalogue, walked in
    /// [`kernels::gemm_tile_rows`]-column tiles through the row-range GEMM
    /// into one tile reused across chunks, and per row
    /// [`ranked_ahead`] adds up the items that rank ahead of the target
    /// under the serving order: score descending, id ascending, NaN never
    /// ranks. A row stops counting at `k`, and the walk stops once every row
    /// has. A probe is a hit when its target's score is not NaN and fewer
    /// than `k` items rank ahead of it. The target's score is the GEMM bits
    /// of its own element (taken from the product of the chunk's queries
    /// with its gathered target rows: a GEMM element's bits do not depend on
    /// how the rows of `B` are grouped). No heap, no `ScoredItem`, no
    /// `b × n` score block, no shard fan-out and no pool.
    ///
    /// What this judges per tier. On the exact tier it is the ranking a
    /// batched request is served. The int8 tier re-ranks its shortlist with
    /// exact scores, so it is the same ranking whenever the exact winners
    /// survive the int8 pre-selection. The IVF tier at `nprobe = all` only
    /// regroups rows, so it is the same ranking again; under a narrower
    /// `nprobe` this counts the model's ranking, not the approximate
    /// retrieval's.
    ///
    /// # Panics
    /// Panics if a target is not a catalogue item or a query does not have
    /// the catalogue's dimension.
    pub fn count_hits<H: AsRef<[ItemId]>>(&self, probes: &[(usize, H, ItemId)], k: usize) -> usize {
        const CHUNK: usize = 64;
        let catalogue = self.catalog.candidates();
        let (n, d) = catalogue.shape();
        let tile_cols = kernels::gemm_tile_rows(CHUNK).min(n);
        let mut tile = vec![0.0f32; CHUNK * tile_cols];
        let mut own_scores = vec![0.0f32; CHUNK * CHUNK];
        let (mut query_rows, mut target_rows) = (Vec::with_capacity(CHUNK * d), Vec::with_capacity(CHUNK * d));
        let mut hits = 0;
        for chunk in probes.chunks(CHUNK) {
            let b = chunk.len();
            for (user, history, target) in chunk {
                query_rows.extend_from_slice(&self.query_vector(*user, history.as_ref()));
                target_rows.extend_from_slice(catalogue.row(*target));
            }
            let queries = Matrix::from_vec(b, d, std::mem::take(&mut query_rows));
            let targets = Matrix::from_vec(b, d, std::mem::take(&mut target_rows));
            let own_scores = &mut own_scores[..b * b];
            kernels::matmul_transposed_rows_into(&queries, &targets, 0..b, own_scores);
            let own = |i: usize| own_scores[i * b + i];
            let mut ahead = [0usize; CHUNK];
            let mut lo = 0;
            while lo < n && ahead[..b].iter().any(|&a| a < k) {
                let hi = (lo + tile_cols).min(n);
                let w = hi - lo;
                let tile = &mut tile[..b * w];
                kernels::matmul_transposed_rows_into(&queries, catalogue, lo..hi, tile);
                for (i, scores) in tile.chunks_exact(w).enumerate() {
                    if ahead[i] < k {
                        ahead[i] += ranked_ahead(scores, lo, chunk[i].2, own(i));
                    }
                }
                lo = hi;
            }
            hits += (0..b).filter(|&i| !own(i).is_nan() && ahead[i] < k).count();
            (query_rows, target_rows) = (queries.into_vec(), targets.into_vec());
            query_rows.clear();
            target_rows.clear();
        }
        hits
    }

    /// Serves a coalesced batch: the queries are built once, every shard
    /// task (in parallel across shards on `pool` when given) scores the
    /// whole batch against its shard in packed-panel GEMM tiles and ranks
    /// each request in-task with its own `k` and seen history, and the
    /// per-shard shortlists are k-way merged — no `b × shard` score block and
    /// no catalogue-sized bitmap exist on the exact path.
    ///
    /// A batch of one takes the GEMV path of [`Self::recommend`], so a
    /// lonely request gets the same bits whether or not it was queued — on
    /// `pool` when the freeze-time plan ([`SOLO_FAN_OUT_MIN_BYTES`]) says so.
    pub fn recommend_batch(&self, requests: &[RecommendRequest], pool: Option<&ThreadPool>) -> Vec<Vec<ScoredItem>> {
        self.recommend_batch_with(requests, pool, &mut ServeScratch::new())
    }

    /// [`Self::recommend_batch`] with reusable working buffers: a batch of
    /// one takes the GEMV path of [`Self::recommend_with`] on `scratch`
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
    /// GEMV path is timed as one `solo` stage, query building included; when
    /// it fans out on `pool` the per-shard task times are reported under it.
    fn recommend_batch_traced(
        &self,
        requests: &[RecommendRequest],
        pool: Option<&ThreadPool>,
        scratch: &mut ServeScratch,
        trace: Option<&mut StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        self.recommend_batch_run(requests, ShardRun::Scoped(pool), scratch, trace).0
    }

    /// [`Self::recommend_batch_traced`] with the shard tasks run as `run`
    /// says — the server's one plan, scoped or on the bulkhead — returning
    /// the shards left out of the merge alongside the rankings. A lone
    /// request takes the GEMV path either way; scoped, it fans out only when
    /// the freeze-time plan says so.
    pub(crate) fn recommend_batch_run(
        &self,
        requests: &[RecommendRequest],
        run: ShardRun<'_>,
        scratch: &mut ServeScratch,
        mut trace: Option<&mut StageTrace>,
    ) -> (Vec<Vec<ScoredItem>>, ShardTally) {
        match requests {
            [] => (Vec::new(), ShardTally::default()),
            [single] => {
                let started = trace.is_some().then(std::time::Instant::now);
                // Shard task times are reported when the tasks left the caller.
                let (run, shard_trace) = match run {
                    ShardRun::Scoped(pool) => {
                        let pool = pool.filter(|pool| self.solo_fan_out && pool.threads() >= 2);
                        (ShardRun::Scoped(pool), trace.as_deref_mut().filter(|_| pool.is_some()))
                    }
                    bulkhead => (bulkhead, trace.as_deref_mut()),
                };
                let (out, tally) = self.recommend_solo(single, run, scratch, shard_trace);
                if let (Some(trace), Some(at)) = (trace.as_deref_mut(), started) {
                    trace.solo_micros = Some(at.elapsed().as_micros() as u64);
                }
                (vec![out], tally)
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
                let qqueries = self.catalog.is_quantized().then(|| quantize_rows(&queries));
                let scratch = &mut FlatScratch::default();
                self.catalog.rank_batch(&queries, qqueries.as_deref(), &ks, &seen, run, trace, scratch)
            }
        }
    }
}

/// Reusable working buffers for the single-request serving path: the shard
/// driver's per-shard score tiles (each grown once to what its shard's task
/// scores at a time) and seen bitmap, and the quantized-query buffer.
///
/// Invariant between calls: the bitmap is all-clear. The recommend paths
/// restore it on every normal return; after a panic unwound through a
/// serving call, call [`Self::reset`] before reuse.
#[derive(Debug)]
pub struct ServeScratch {
    /// The driver's tiles and the bitmap the quantized re-rank masks through
    /// (marked and cleared per request in O(history)).
    flat: FlatScratch,
    /// Reusable quantized-query buffer for the quantized serving path
    /// (re-quantized in place per request — no allocation after warmup).
    qquery: QuantizedQuery,
}

impl ServeScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self { flat: FlatScratch::default(), qquery: QuantizedQuery::quantize(&[]) }
    }

    /// Restores the all-clear invariant (used after a serving call panicked
    /// mid-request, when the request's marks may still be set).
    pub fn reset(&mut self) {
        self.flat.seen.reset();
    }
}

impl Default for ServeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the cluster index over `catalog` when the process-wide retrieval
/// override is armed (`HAM_RETRIEVAL=ivf`) — with the exact `nprobe = all`
/// endpoint unless `HAM_IVF_NPROBE` narrows it, so the override forces the
/// IVF *code paths* without changing served bits.
fn with_env_retrieval(catalog: ShardedCatalog) -> ShardedCatalog {
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

    /// The freeze-time plan: a lone request is big enough to fan out from
    /// [`SOLO_FAN_OUT_MIN_BYTES`] of f32 catalogue, int8 panels or not —
    /// never on the IVF tiers.
    #[test]
    fn lone_requests_are_big_enough_to_fan_out_from_the_byte_crossover() {
        let d = 8;
        let at = SOLO_FAN_OUT_MIN_BYTES / (4 * d);
        let catalogue = |items: usize| ShardedCatalog::from_matrix(&Matrix::zeros(items, d), 4);
        assert!(solo_fans_out(&catalogue(at)));
        assert!(!solo_fans_out(&catalogue(at - 1)), "below the crossover the driver stays on the caller");
        assert!(solo_fans_out(&catalogue(at).with_quantization()), "an int8 scan costs by items, like the f32 one");
        assert!(!solo_fans_out(&catalogue(at - 1).with_quantization()));
        let clustered = catalogue(at).with_cluster_index(&IvfConfig { clusters: 2, nprobe: 1, iters: 1, seed: 1 });
        assert!(!solo_fans_out(&clustered));
        // The plan is taken at every freeze, builder calls included.
        let tiny = ServingModel::from_parts("tiny", &Matrix::zeros(64, d), 4, |_, _| vec![0.0; 8]);
        assert!(!tiny.solo_fan_out && !tiny.with_quantized_catalog().solo_fan_out);
    }

    /// A lone request whose plan says "fan out" runs its shard tasks on the
    /// handed pool when that has two workers or more — same bits — and
    /// reports them under its one solo stage; on a one-worker pool, or when
    /// the plan says "in turn", it stays on the caller and reports the solo
    /// stage only.
    #[test]
    fn a_fanned_out_lone_request_reports_its_shard_tasks() {
        let model = ham();
        let mut serving = ServingModel::from_scorer("ham", Arc::clone(&model), 4).unwrap();
        let request = RecommendRequest::new(1, vec![3, 7, 29], 5);
        for (plan, workers) in [(false, 2), (true, 1), (true, 2)] {
            serving.solo_fan_out = plan;
            let mut trace = StageTrace::new();
            let served = serving.recommend_batch_traced(
                std::slice::from_ref(&request),
                Some(&ThreadPool::new(workers)),
                &mut ServeScratch::new(),
                Some(&mut trace),
            );
            assert_eq!(served[0], serving.recommend(&request));
            assert!(trace.solo_micros.is_some());
            let shards: Vec<usize> = trace.shard_score_micros.iter().map(|&(s, _)| s).collect();
            let fans_out = plan && workers >= 2;
            assert_eq!(shards, if fans_out { vec![0, 1, 2, 3] } else { vec![] }, "plan {plan}, {workers} workers");
        }
    }

    /// A clustered batch runs the same fan-out as a flat one: one timed shard
    /// task per shard (route + scan + in-task select), whatever the tier.
    #[test]
    fn a_clustered_batch_reports_one_task_per_shard() {
        let config = IvfConfig { clusters: 3, nprobe: 2, iters: 2, seed: 5 };
        let clustered = || ServingModel::from_scorer("ham", ham(), 4).unwrap().with_cluster_index(&config);
        let requests: Vec<RecommendRequest> = (0..3).map(|u| RecommendRequest::new(u, vec![u, 7, 29], 5)).collect();
        for serving in [clustered(), clustered().with_quantized_catalog()] {
            for pool in [None, Some(&ThreadPool::new(2))] {
                let mut trace = StageTrace::new();
                let served =
                    serving.recommend_batch_traced(&requests, pool, &mut ServeScratch::new(), Some(&mut trace));
                assert_eq!(served, serving.recommend_batch(&requests, None));
                let shards: Vec<usize> = trace.shard_score_micros.iter().map(|&(s, _)| s).collect();
                assert_eq!(shards, vec![0, 1, 2, 3]);
                assert!(trace.solo_micros.is_none());
            }
        }
    }

    /// The dispatcher keeps one scratch across `ModelRegistry::publish`: its
    /// tiles and bitmap must follow the snapshot through a change of shard
    /// count, catalogue size and tier (a flat tile is its shard, an IVF one
    /// the shard's widest panel) and carry nothing from one model to the next.
    #[test]
    fn one_scratch_serves_across_a_hot_swap_of_shards_size_and_tier() {
        let catalogue = |items: usize| {
            Matrix::from_vec(items, 6, (0..items * 6).map(|i| ((i * 37) % 41) as f32 * 0.25 - 5.0).collect())
        };
        let query = |user: usize, history: &[ItemId]| -> Vec<f32> {
            (0..6).map(|j| ((user * 6 + j + history.len()) as f32 * 0.37).sin()).collect()
        };
        let config = IvfConfig { clusters: 5, nprobe: 2, iters: 3, seed: 9 };
        let flat = || ServingModel::from_catalog("flat", ShardedCatalog::from_matrix(&catalogue(50), 4), query);
        let clustered = |name: &str| {
            let catalog = ShardedCatalog::from_matrix(&catalogue(90), 2).with_cluster_index(&config);
            ServingModel::from_catalog(name, catalog, query)
        };
        let mut scratch = ServeScratch::new();
        for serving in [flat(), clustered("ivf"), clustered("ivf-int8").with_quantized_catalog(), flat()] {
            for user in 0..4 {
                let request = RecommendRequest::new(user, vec![user, 13, 49], 8);
                assert_eq!(serving.recommend_with(&request, &mut scratch), serving.recommend(&request), "{serving:?}");
            }
        }
    }

    /// A HAM snapshot is row ranges of the model's own output table, not a
    /// copy of it; a `from_parts` catalogue and a baseline's table (which it
    /// does not share) are copied.
    #[test]
    fn from_scorer_shares_the_models_table_and_unshared_tables_are_copied() {
        let model = ham();
        let w = model.candidate_item_embeddings();
        let d = w.cols();
        let shared = ServingModel::from_scorer("ham", Arc::clone(&model), 3).unwrap();
        for (s, shard) in shared.catalog().shards().iter().enumerate() {
            let rows = shared.catalog().shard_rows(s);
            assert_eq!(rows.as_ptr(), w.as_slice()[shard.offset() * d..].as_ptr(), "shard {s}");
        }
        let parts = ServingModel::from_parts("copied", w, 3, |_, _| vec![0.0; 8]);
        let first = parts.catalog().shard_rows(0);
        assert_ne!(first.as_ptr(), w.as_slice().as_ptr());
        assert_eq!(first, &w.as_slice()[..first.len()]);

        let pop = Arc::new(ham_baselines::PopRec::fit(&[vec![1, 2, 3], vec![3, 4]], 30));
        assert!(pop.shared_candidates().is_none(), "a baseline owns its table");
        let baseline = ServingModel::from_scorer("pop", Arc::clone(&pop), 3).unwrap();
        assert_ne!(baseline.catalog().shard_rows(0).as_ptr(), pop.candidates().as_slice().as_ptr());
    }

    /// The int8 and IVF tiers derive their panels from a shard's range at
    /// freeze, so a shared snapshot serves them with the bits of a copied one.
    #[test]
    fn tiers_built_on_a_shared_snapshot_serve_the_bits_of_a_copied_one() {
        let model = ham();
        let query_model = Arc::clone(&model);
        let shared = || ServingModel::from_scorer("shared", Arc::clone(&model), 3).unwrap();
        let copied = || {
            let query_model = Arc::clone(&query_model);
            let query = move |user: usize, history: &[ItemId]| query_model.query_vector(user, history);
            ServingModel::from_parts("copied", model.candidate_item_embeddings(), 3, query)
        };
        let config = IvfConfig { clusters: 3, nprobe: 2, iters: 2, seed: 5 };
        let tiers: [fn(ServingModel, &IvfConfig) -> ServingModel; 3] = [
            |serving, _| serving.with_quantized_catalog(),
            |serving, config| serving.with_cluster_index(config),
            |serving, config| serving.with_cluster_index(config).with_quantized_catalog(),
        ];
        let bits = |list: &[ScoredItem]| list.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>();
        let requests: Vec<RecommendRequest> = (0..4).map(|u| RecommendRequest::new(u, vec![u, 7, 29], 6)).collect();
        for tier in tiers {
            let (shared, copied) = (tier(shared(), &config), tier(copied(), &config));
            for request in &requests {
                assert_eq!(bits(&shared.recommend(request)), bits(&copied.recommend(request)));
            }
            let (a, b) = (shared.recommend_batch(&requests, None), copied.recommend_batch(&requests, None));
            assert!(a.iter().zip(&b).all(|(a, b)| bits(a) == bits(b)), "batched lists differ");
        }
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
