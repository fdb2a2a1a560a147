//! Row-wise sharding of the candidate matrix and exact top-k merging.
//!
//! The scoring head of every model in this workspace is `r = q · Wᵀ`: a
//! per-user query against the rows of the candidate-embedding matrix `W`.
//! That structure shards trivially — split `W` row-wise into
//! [`Shard`]s, score each shard independently with the existing GEMV/GEMM
//! kernels, rank each shard locally, and merge the per-shard top-k lists
//! into the global top-k with a k-way heap.
//!
//! ## Exactness
//!
//! The merge is *exact*, not approximate: any item of the global top-k is by
//! definition among the best `k` of its own shard, so per-shard top-k lists
//! of length `min(k, shard_len)` are guaranteed to contain every global
//! winner. The ordering is bit-identical to the single-node path because
//!
//! * per-row dot products do not change when the rows move into a shard
//!   (the GEMV kernel scores each row independently), and the packed-panel
//!   GEMM accumulates every output element in ascending-`k` order regardless
//!   of how the rows are grouped into panels — so shard scores equal the
//!   corresponding single-node scores bit for bit;
//! * per-shard ranking uses the same fused mask+select kernel as the
//!   single-node path (seen items participate with an effective `-inf`, so
//!   even the degenerate "fewer than k unseen items" padding matches); and
//! * the merge comparator is the same total preference (higher score first,
//!   ties to the lower global item id) used by `top_k_indices`.
//!
//! ## The flat driver: fused tile score→select
//!
//! A query batch never materialises its `b × shard_len` score block. Each
//! shard task walks its shard in column tiles sized so the tile's scores stay
//! L2-resident, scores a tile with the row-range GEMM into one reusable
//! buffer, and feeds every row — while it is cache-hot — to that request's
//! streaming bounded top-k (`ham_tensor::ops::TopKStream`), which carries its
//! heap and threshold across tiles. Tasks return k-element shortlists; the
//! caller only merges. Tiling is invisible in the results for the same two
//! reasons sharding is: a GEMM element's bits do not depend on how rows are
//! grouped, and the select keeps the exact top-k of every prefix under the
//! shared comparator. The exact, quantized and deadline-bounded paths all run
//! this one driver (`rank_shard_batch`), and so does a lone request: a batch
//! of one row whose single tile is the whole shard, scored by the fused GEMV,
//! its shard tasks in turn on the caller or — per the serving model's
//! freeze-time plan — in parallel on the pool.
//!
//! ## The quantized candidate path
//!
//! [`ShardedCatalog::with_quantization`] snapshots every shard's rows as an
//! int8 [`QuantizedMatrix`] panel alongside the f32 original. The quantized
//! serving path ([`ShardedCatalog::quantized_top_k_with_buf`]) then scores
//! each shard against the i8 panel (¼ of the memory traffic), pre-selects the
//! quantized top-`2k` per shard through the same fused mask+select kernel,
//! merges, and **re-ranks the merged candidates with the exact f32 per-row
//! dot** — the very kernel chain the exact GEMV path uses — so the served
//! top-k is bit-identical to the exact path whenever the exact winners
//! survive the 2k pre-selection (the recall guardrail pinned by the serving
//! test-suite, not a silent approximation). Quantized pre-selection scores
//! are integer-accumulated and therefore bit-identical across tiers and
//! shard counts by construction.

use crate::ivf::{ClusterIndex, IvfConfig, PROBE_ALL};
use crate::trace::StageTrace;
use ham_core::SeenMask;
use ham_data::dataset::ItemId;
use ham_faults::{FaultInjector, ShardFault};
use ham_tensor::kernels;
use ham_tensor::ops::{top_k_indices, top_k_indices_masked, top_k_indices_masked_with, TopKStream};
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery};
use std::time::{Duration, Instant};

/// One recommended item with its model score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Global catalogue item id.
    pub item: ItemId,
    /// The model score (`-inf` for masked items padding a degenerate tail).
    pub score: f32,
}

/// A contiguous row range of the candidate matrix, owned by one shard.
#[derive(Debug, Clone)]
pub struct Shard {
    offset: usize,
    rows: Matrix,
    /// Int8 snapshot of `rows` for the quantized pre-selection path
    /// (`None` until [`ShardedCatalog::with_quantization`]).
    quantized: Option<QuantizedMatrix>,
    /// Inverted-file index over `rows` for cluster-routed retrieval
    /// (`None` until [`ShardedCatalog::with_cluster_index`]).
    ivf: Option<ClusterIndex>,
}

impl Shard {
    /// Global item id of the shard's first row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of items in the shard.
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// True when the shard holds no items (more shards than items).
    pub fn is_empty(&self) -> bool {
        self.rows.rows() == 0
    }

    /// The shard's slice of the candidate matrix.
    pub fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// The shard's int8 panel, when the catalogue was quantized.
    pub fn quantized(&self) -> Option<&QuantizedMatrix> {
        self.quantized.as_ref()
    }

    /// Number of IVF clusters over this shard (0 when no index was built).
    pub fn num_clusters(&self) -> usize {
        self.ivf.as_ref().map_or(0, ClusterIndex::num_clusters)
    }
}

/// The candidate matrix `W` split row-wise into shards.
#[derive(Debug, Clone)]
pub struct ShardedCatalog {
    shards: Vec<Shard>,
    num_items: usize,
    dim: usize,
    /// Clusters visited per shard per request on the IVF paths
    /// ([`crate::ivf::PROBE_ALL`] = every cluster, the exact endpoint).
    /// Ignored until a cluster index is built.
    nprobe: usize,
}

/// What the flat driver keeps between calls when its caller holds on to it
/// (the dispatcher's [`ServeScratch`](crate::ServeScratch)).
#[derive(Debug, Default)]
pub(crate) struct FlatScratch {
    /// Shard `s`'s task scores into `tiles[s]` (disjoint `&mut` when the
    /// tasks run on the pool), grown once to the shard; a task past the end
    /// allocates and frees its own. Measured on `serve_solo_120k`: +4%
    /// `users_per_s` over per-task tiles, 17 of 20 pairs (CHANGES.md, PR 13).
    pub(crate) tiles: Vec<Vec<f32>>,
    /// The catalogue bitmap a re-rank masks through; all-clear between
    /// calls, [`SeenMask::reset`] restores that after a panic.
    pub(crate) seen: SeenMask,
}

impl ShardedCatalog {
    /// Splits `w` into `num_shards` near-even contiguous row ranges (the
    /// first `n % num_shards` shards hold one extra row). Shards beyond the
    /// item count come out empty and are handled gracefully everywhere.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn from_matrix(w: &Matrix, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedCatalog: need at least one shard");
        let (n, d) = w.shape();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut offset = 0;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            let rows = Matrix::from_vec(len, d, w.as_slice()[offset * d..(offset + len) * d].to_vec());
            shards.push(Shard { offset, rows, quantized: None, ivf: None });
            offset += len;
        }
        Self { shards, num_items: n, dim: d, nprobe: PROBE_ALL }
    }

    /// Snapshots every shard's rows as an int8 panel, enabling the quantized
    /// pre-selection path. The f32 rows stay authoritative — the exact
    /// re-rank and the f32 serving paths keep reading them. A cluster index
    /// built earlier gets its panels quantized too, so the IVF and quantized
    /// tiers compose in either construction order.
    pub fn with_quantization(mut self) -> Self {
        for shard in &mut self.shards {
            shard.quantized = Some(QuantizedMatrix::quantize(&shard.rows));
            if let Some(ivf) = &mut shard.ivf {
                ivf.quantize_panels();
            }
        }
        self
    }

    /// Builds a per-shard inverted-file index ([`ClusterIndex`]) with the
    /// deterministic seeded k-means and switches serving to the
    /// cluster-routed IVF paths, visiting `config.nprobe` clusters per shard
    /// per request. With `nprobe = all` (the [`IvfConfig::auto`] default)
    /// results stay bit-identical to the exact paths; narrower probes trade
    /// measured recall for sub-linear scan cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        for shard in &mut self.shards {
            let mut index = ClusterIndex::build(&shard.rows, config, shard.offset as u64);
            if shard.quantized.is_some() {
                index.quantize_panels();
            }
            shard.ivf = Some(index);
        }
        self.nprobe = config.nprobe.max(1);
        self
    }

    /// Re-dials the probe width on an already-built index (cheap — no
    /// rebuild). No-op semantics aside, serving with `nprobe = all` is the
    /// verified exact endpoint.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Clusters visited per shard per request on the IVF paths.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Whether every shard carries a cluster index (serving then routes
    /// through the IVF paths).
    pub fn is_clustered(&self) -> bool {
        self.shards.iter().all(|s| s.ivf.is_some())
    }

    /// Total (non-empty) clusters across shards, 0 when unclustered.
    pub fn num_clusters(&self) -> usize {
        self.shards.iter().map(Shard::num_clusters).sum()
    }

    /// Clusters a request visits across all shards: `min(nprobe, clusters)`
    /// summed per shard. Deterministic per catalogue (routing picks *which*
    /// clusters, never how many), so responses can report it as retrieval
    /// metadata. 0 when the catalogue is unclustered (exact serving).
    pub fn clusters_probed(&self) -> usize {
        if !self.is_clustered() {
            return 0;
        }
        self.shards.iter().map(|s| self.nprobe.min(s.num_clusters())).sum()
    }

    /// Whether the shards carry int8 panels ([`Self::with_quantization`]).
    pub fn is_quantized(&self) -> bool {
        self.shards.iter().all(|s| s.quantized.is_some())
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total catalogue size across shards.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Embedding dimension of the candidate rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shards, in global row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Scores one query against one shard (fused GEMV over the shard rows).
    pub fn shard_scores(&self, shard: usize, query: &[f32]) -> Vec<f32> {
        self.shards[shard].rows.matvec_transposed(query)
    }

    /// [`Self::shard_scores`] into a caller-provided buffer (overwritten) —
    /// the serving hot path reuses one buffer across shards and requests
    /// instead of allocating a fresh `Vec` per GEMV.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the shard's length.
    // ham-lint: hot-path
    pub fn shard_scores_into(&self, shard: usize, query: &[f32], out: &mut [f32]) {
        self.shards[shard].rows.matvec_transposed_into(query, out);
    }

    /// The degraded path's per-shard unit of work: applies any injected
    /// fault for `shard` (a [`ShardFault::Delay`] sleeps cooperatively, a
    /// [`ShardFault::Panic`] panics — the caller runs this under
    /// `catch_unwind`), then scores the whole query block against the shard
    /// and **ranks it in-task**: what comes back is each request's shortlist
    /// (to `select_ks[i]`, seen items masked via `seen_items[i]`), the
    /// coordinator's k-way merge input.
    ///
    /// Flat catalogues go through the fused tile driver
    /// ([`Self::rank_shard_batch`]) — the very code the classic paths run,
    /// so an undegraded bounded response is bit-identical to the classic one
    /// (a batch of one scores with the fused GEMV, as every lone request
    /// does; GEMM-of-one-row is *not* bit-equal to GEMV).
    /// Clustered catalogues route, score and rank with the same routing
    /// GEMV, panel kernels and fused mask+select as the unbounded IVF paths.
    /// `qqueries` must be `Some` exactly when the catalogue is quantized.
    ///
    /// Returns `None` when `cancelled` turned true during an injected delay:
    /// the batch already gave up on this shard, so the remaining sleep and
    /// the scoring work are skipped to free the executor worker quickly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rank_shard_faulted(
        &self,
        shard: usize,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<Vec<ItemId>>],
        faults: &FaultInjector,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<Vec<ScoredItem>>> {
        match faults.shard_fault(shard) {
            Some(ShardFault::Delay(delay)) => {
                // Sleep in small slices, checking for cancellation between
                // them: a shard whose batch already timed out must stop
                // clogging the bulkhead executor within ~1ms, not `delay`.
                let until = Instant::now() + delay;
                loop {
                    if cancelled() {
                        return None;
                    }
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    std::thread::sleep((until - now).min(Duration::from_millis(1)));
                }
            }
            Some(ShardFault::Panic) => panic!("ham-faults: injected panic in shard {shard}"),
            None => {}
        }
        if cancelled() {
            return None;
        }
        Some(if self.shards[shard].ivf.is_some() {
            self.ivf_rank_shard_in_task(shard, queries, qqueries, select_ks, seen_items)
        } else {
            self.rank_shard_batch(shard, queries, qqueries, select_ks, seen_items, &mut Vec::new())
        })
    }

    /// The fused score→select driver of the flat (non-IVF) paths: one
    /// shard's shortlists for a whole query batch — or a lone request, a
    /// batch of one — computed inside the shard's task without ever
    /// materialising the `b × shard_len` score block.
    ///
    /// The shard is walked in column tiles of [`kernels::gemm_tile_rows`]
    /// items: each tile is scored by the row-range GEMM (the int8 one when
    /// `qqueries` is given) into `tile`, grown to `b × tile` scores, the seen
    /// items that fall inside the tile are overwritten with `-inf`, and
    /// every row of the still cache-hot tile is fed to that request's
    /// [`TopKStream`], which carries its heap and threshold from tile to
    /// tile. Request `i` keeps its best `select_ks[i]` items; masked items
    /// participate at `-inf` in id order, so a request with fewer than
    /// `select_ks[i]` unseen items pads its tail with them, exactly like the
    /// single-node fused mask+select.
    ///
    /// Bit-identity: a GEMM element's bits do not depend on how the rows of
    /// `B` are grouped (the kernel layer's contract), and the streaming
    /// select keeps the top-k of every prefix — so tile boundaries change
    /// neither scores nor ranking. A batch of one scores the whole shard as
    /// one tile with the fused GEMV, the single-node `recommend_top_k` bits.
    ///
    /// A NaN score is never ranked, so a request with fewer than
    /// `select_ks[i]` non-NaN scores here gets a *shorter* shortlist, solo
    /// or batched. Allocation: given a `tile` that is long enough, the body
    /// allocates only the mask list and the selects whose heaps become the
    /// shortlists it returns, but the GEMM entries it calls for `b > 1` still
    /// pack their `B` panel / int8 operands into their own scratch.
    // ham-lint: hot-path
    fn rank_shard_batch<S: AsRef<[ItemId]>>(
        &self,
        s: usize,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<S>],
        tile: &mut Vec<f32>,
    ) -> Vec<Vec<ScoredItem>> {
        let shard = &self.shards[s];
        let (b, len) = (queries.rows(), shard.len());
        let panel = qqueries.map(|qq| {
            // ham-lint: allow(panic, "callers gate on catalogue quantization; the panel is built at construction")
            (qq, shard.quantized.as_ref().expect("quantized scoring on an unquantized catalogue"))
        });
        let tile_rows = if b == 1 { len } else { kernels::gemm_tile_rows(b).min(len) };
        if tile.len() < b * tile_rows {
            // ham-lint: allow(alloc, "a kept tile grows once to its shard; every score is written before it is read")
            *tile = vec![0.0; b * tile_rows];
        }
        // ham-lint: allow(alloc, "one select per request row; each one's k-slot heap becomes the shortlist it returns")
        let mut streams: Vec<TopKStream> = select_ks.iter().map(|&k| TopKStream::new(k.min(len))).collect();
        // Every (shard-local item, request row) to mask, in tile order.
        // ham-lint: allow(alloc, "O(history in this shard) entries")
        let mut masked: Vec<(usize, usize)> = Vec::new();
        for (row, items) in seen_items.iter().enumerate() {
            let items: &[ItemId] = items.as_ref().map_or(&[], AsRef::as_ref);
            let in_shard = items.iter().filter(|&&item| item >= shard.offset && item - shard.offset < len);
            masked.extend(in_shard.map(|&item| (item - shard.offset, row)));
        }
        masked.sort_unstable();
        let mut next_masked = 0;
        let mut lo = 0;
        while lo < len {
            let hi = (lo + tile_rows).min(len);
            let w = hi - lo;
            let tile = &mut tile[..b * w];
            match panel {
                Some((qq, panel)) if b == 1 => kernels::quantized_matvec_into(panel, &qq[0], tile),
                Some((qq, panel)) => kernels::quantized_matmul_transposed_rows_into(qq, panel, lo..hi, tile),
                None if b == 1 => shard.rows.matvec_transposed_into(queries.row(0), tile),
                None => kernels::matmul_transposed_rows_into(queries, &shard.rows, lo..hi, tile),
            }
            while let Some(&(local, row)) = masked.get(next_masked).filter(|&&(local, _)| local < hi) {
                tile[row * w + local - lo] = f32::NEG_INFINITY;
                next_masked += 1;
            }
            for (stream, scores) in streams.iter_mut().zip(tile.chunks_exact(w)) {
                stream.push_block(lo, scores, |_| false);
            }
            lo = hi;
        }
        streams
            .into_iter()
            .map(|stream| {
                let ranked = stream.into_sorted().into_iter();
                // ham-lint: allow(alloc, "the shortlist is the task's result, k elements, collected in place over the select's heap")
                ranked.map(|(local, score)| ScoredItem { item: shard.offset + local, score }).collect()
            })
            // ham-lint: allow(alloc, "one slot per request row for the shortlists above")
            .collect()
    }

    /// The clustered half of [`Self::rank_shard_faulted`]: routes,
    /// scores and ranks one shard's batch entirely inside the bulkhead task.
    /// Kernel choice follows the batch size exactly like the flat path —
    /// per-cluster GEMV for a batch of one (matching the solo IVF path's
    /// bits), per-cluster packed GEMM otherwise (matching the batched IVF
    /// path's bits).
    fn ivf_rank_shard_in_task(
        &self,
        shard: usize,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<Vec<ItemId>>],
    ) -> Vec<Vec<ScoredItem>> {
        let b = queries.rows();
        let s = &self.shards[shard];
        // ham-lint: allow(panic, "only called for shards the IVF dispatch selected, which requires the index")
        let index = s.ivf.as_ref().expect("ivf_rank_shard_in_task on an unclustered shard");
        let c = index.num_clusters();
        if c == 0 {
            return vec![Vec::new(); b];
        }
        let probe = self.nprobe.min(c);
        let mut union = vec![false; c];
        let visited: Vec<Vec<usize>> = (0..b)
            .map(|i| {
                let route = index.centroids().matvec_transposed(queries.row(i));
                let v = top_k_indices(&route, probe);
                for &j in &v {
                    union[j] = true;
                }
                v
            })
            .collect();
        let blocks: Vec<Option<Matrix>> = (0..c)
            .map(|j| {
                if !union[j] {
                    return None;
                }
                Some(match qqueries {
                    Some(qq) => {
                        let panel = index.qpanel(j);
                        let mut block = Matrix::zeros(b, panel.rows());
                        if b == 1 {
                            kernels::quantized_matvec_into(panel, &qq[0], block.row_mut(0));
                        } else {
                            kernels::quantized_matmul_transposed_into(qq, panel, &mut block);
                        }
                        block
                    }
                    None if b == 1 => Matrix::from_vec(
                        1,
                        index.cluster_ids(j).len(),
                        index.panel(j).matvec_transposed(queries.row(0)),
                    ),
                    None => queries.matmul_transposed(index.panel(j)),
                })
            })
            .collect();
        // Shard-local seen bitmap, marked and cleared per request in
        // O(history ∩ shard).
        let mut local_seen = vec![false; s.len()];
        let mark = |bits: &mut [bool], items: &[ItemId], value: bool| {
            for &item in items {
                if item >= s.offset && item < s.offset + bits.len() {
                    bits[item - s.offset] = value;
                }
            }
        };
        let mut out = Vec::with_capacity(b);
        for i in 0..b {
            let seen = seen_items[i].as_deref();
            if let Some(items) = seen {
                mark(&mut local_seen, items, true);
            }
            let mut lists = Vec::with_capacity(visited[i].len());
            for &j in &visited[i] {
                // ham-lint: allow(panic, "the loop above scored every visited cluster before ranking")
                let block = blocks[j].as_ref().expect("visited cluster left unscored");
                lists.push(rank_panel(
                    s.offset,
                    index.cluster_ids(j),
                    block.row(i),
                    select_ks[i],
                    seen.is_some().then_some(local_seen.as_slice()),
                ));
            }
            if let Some(items) = seen {
                mark(&mut local_seen, items, false);
            }
            out.push(merge_top_k(&lists, select_ks[i]));
        }
        out
    }

    /// Ranks one shard's score slice locally: top `min(k, len)` items as
    /// global ids, masking seen items shard-locally through the global
    /// bitmap (fused mask+select — the score slice is never written).
    pub fn shard_top_k(&self, shard: usize, shard_scores: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        let s = &self.shards[shard];
        assert_eq!(
            shard_scores.len(),
            s.len(),
            "shard_top_k: {} scores for a {}-item shard",
            shard_scores.len(),
            s.len()
        );
        let local_seen = seen.map(|bits| &bits[s.offset..s.offset + s.len()]);
        let local = match local_seen {
            Some(bits) => top_k_indices_masked(shard_scores, k, bits),
            None => top_k_indices(shard_scores, k),
        };
        local
            .into_iter()
            .map(|l| {
                let masked = local_seen.is_some_and(|bits| bits[l]);
                let score = if masked { f32::NEG_INFINITY } else { shard_scores[l] };
                ScoredItem { item: s.offset + l, score }
            })
            .collect()
    }

    /// Exact global top-k for one query: the flat driver with one query row
    /// and the shard tasks in turn on the caller, then the k-way merge.
    /// `seen` is the global seen-item bitmap (length `num_items`) or `None`
    /// to rank the full catalogue.
    ///
    /// Bit-identical to scoring the unsharded matrix and ranking once, for
    /// any shard count.
    pub fn top_k(&self, query: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        self.top_k_with_buf(query, k, seen, &mut Vec::new())
    }

    /// [`Self::top_k`] with a caller-provided score buffer: every shard task
    /// scores into `scores_buf` (grown once to the largest shard, then
    /// reused). A compatibility entry point — the driver masks from an item
    /// list, so each call walks the bitmap (O(`num_items`)) to rebuild one; a
    /// serving loop calls [`ServingModel::recommend_with`], which masks from
    /// the request's history.
    ///
    /// [`ServingModel::recommend_with`]: crate::ServingModel::recommend_with
    pub fn top_k_with_buf(
        &self,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        if self.is_clustered() {
            return self.ivf_top_k_with_buf(query, k, seen, scores_buf, &mut Vec::new());
        }
        self.solo_from_bitmap(query, None, k, seen, scores_buf)
    }

    /// Global top-k through the quantized candidate path: per-shard int8
    /// GEMV pre-selection of the quantized top-`2k`, k-way merge, then an
    /// **exact f32 re-rank** of the merged candidates.
    ///
    /// The re-rank scores each candidate with the same dispatched per-row
    /// dot kernel the exact GEMV path uses, and ranks with the same
    /// comparator — so whenever every exact winner survives the quantized
    /// 2k pre-selection (the recall guardrail the serving tests pin), the
    /// result is bit-identical, ids and order, to [`Self::top_k`]. The
    /// pre-selection itself is integer-accumulated and bit-identical across
    /// tiers and shard counts by construction.
    ///
    /// `qquery` is the reusable query-quantization scratch
    /// (re-quantized in place from `query` on every call). Like
    /// [`Self::top_k_with_buf`], a compatibility entry point that walks the
    /// bitmap per call.
    ///
    /// # Panics
    /// Panics if the catalogue was not quantized
    /// ([`Self::with_quantization`]).
    pub fn quantized_top_k_with_buf(
        &self,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
        qquery: &mut QuantizedQuery,
    ) -> Vec<ScoredItem> {
        if self.is_clustered() {
            return self.ivf_quantized_top_k_with_buf(query, k, seen, scores_buf, qquery, &mut Vec::new());
        }
        qquery.requantize(query);
        self.solo_from_bitmap(query, Some(qquery), k, seen, scores_buf)
    }

    /// How the bitmap solo entry points run the flat driver: the marked bits
    /// become the request's seen-item list, the shard tasks run in turn with
    /// `scores_buf` as the one tile they share, and the quantized re-rank
    /// masks through the caller's bits.
    fn solo_from_bitmap(
        &self,
        query: &[f32],
        qquery: Option<&QuantizedQuery>,
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        let seen_items: Option<Vec<ItemId>> = seen.map(|bits| (0..bits.len()).filter(|&item| bits[item]).collect());
        let queries = Matrix::from_vec(1, query.len(), query.to_vec());
        let qqueries = qquery.map(std::slice::from_ref);
        let select_k = select_width(k, qquery.is_some());
        let rank = |s| self.rank_shard_batch(s, &queries, qqueries, &[select_k], &[seen_items.as_deref()], scores_buf);
        let per_shard: Vec<Vec<ScoredItem>> = (0..self.shards.len()).flat_map(rank).collect();
        let merged = merge_top_k(&per_shard, select_k);
        if qquery.is_some() {
            self.rerank_exact(merged, query, k, seen)
        } else {
            merged
        }
    }

    /// Exact-or-approximate global top-k through the cluster-routed IVF
    /// paths: per shard, one centroid GEMV routes to the top-`nprobe`
    /// clusters, only those panels are scored (per-row GEMV — the same
    /// kernel, so panel scores equal shard scores bit for bit), each panel
    /// is ranked through the fused mask+select with the panel→global id
    /// translation, and the per-cluster shortlists run through the usual
    /// k-way merge. With `nprobe = all` this is bit-identical — ids, order,
    /// scores — to [`Self::top_k_with_buf`] (pinned by the serving suite).
    ///
    /// `route_buf` is the reusable centroid-score buffer (grown once to the
    /// largest per-shard cluster count), so a serving loop holding a scratch
    /// performs no score allocation per request.
    ///
    /// # Panics
    /// Panics if no cluster index was built ([`Self::with_cluster_index`]).
    pub fn ivf_top_k_with_buf(
        &self,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
        route_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        self.grow_ivf_bufs(scores_buf, route_buf);
        let per_shard: Vec<Vec<ScoredItem>> = (0..self.shards.len())
            .map(|s| self.ivf_shard_candidates(s, query, k, seen, scores_buf, route_buf, None))
            .collect();
        merge_top_k(&per_shard, k)
    }

    /// The quantized composition of the IVF path: routing and cluster
    /// selection as in [`Self::ivf_top_k_with_buf`], but each visited panel
    /// is scored through its int8 snapshot pre-selecting the quantized
    /// top-`2k`, and the merged candidates get the **exact f32 re-rank** —
    /// so the int8 path becomes sub-linear too, with the same recall
    /// guardrail semantics as shard-level quantized serving.
    ///
    /// # Panics
    /// Panics if the catalogue was not both quantized and clustered.
    pub fn ivf_quantized_top_k_with_buf(
        &self,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
        qquery: &mut QuantizedQuery,
        route_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        let pre_k = k.saturating_mul(2);
        qquery.requantize(query);
        self.grow_ivf_bufs(scores_buf, route_buf);
        let per_shard: Vec<Vec<ScoredItem>> = (0..self.shards.len())
            .map(|s| self.ivf_shard_candidates(s, query, pre_k, seen, scores_buf, route_buf, Some(qquery)))
            .collect();
        let candidates = merge_top_k(&per_shard, pre_k);
        self.rerank_exact(candidates, query, k, seen)
    }

    /// Grows the score and routing buffers to the largest panel / cluster
    /// count across shards (once; subsequent calls are no-ops).
    fn grow_ivf_bufs(&self, scores_buf: &mut Vec<f32>, route_buf: &mut Vec<f32>) {
        let max_panel = self.shards.iter().filter_map(|s| s.ivf.as_ref()).map(ClusterIndex::max_panel_len).max();
        let max_clusters = self.shards.iter().map(Shard::num_clusters).max().unwrap_or(0);
        if let Some(max_panel) = max_panel {
            if scores_buf.len() < max_panel {
                scores_buf.resize(max_panel, 0.0);
            }
        }
        if route_buf.len() < max_clusters {
            route_buf.resize(max_clusters, 0.0);
        }
    }

    /// One shard's IVF shortlist for one query: route, visit the top-`nprobe`
    /// clusters, rank each visited panel to `select_k` (through the int8
    /// panel when `qquery` is given), and merge the per-cluster lists into
    /// the shard's top-`select_k`. Masked items participate at `-inf` through
    /// the panel-local→global id translation, so tie-breaks and degenerate
    /// padding match the shard-level fused mask+select exactly.
    #[allow(clippy::too_many_arguments)]
    fn ivf_shard_candidates(
        &self,
        s: usize,
        query: &[f32],
        select_k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut [f32],
        route_buf: &mut [f32],
        qquery: Option<&QuantizedQuery>,
    ) -> Vec<ScoredItem> {
        let shard = &self.shards[s];
        // ham-lint: allow(panic, "IVF entry points are only reachable on clustered catalogues")
        let index = shard.ivf.as_ref().expect("IVF serving on a catalogue without a cluster index");
        let c = index.num_clusters();
        if c == 0 {
            return Vec::new();
        }
        let route = &mut route_buf[..c];
        index.centroids().matvec_transposed_into(query, route);
        let visited = top_k_indices(route, self.nprobe.min(c));
        let local_seen = seen.map(|bits| &bits[shard.offset..shard.offset + shard.len()]);
        let mut lists = Vec::with_capacity(visited.len());
        for j in visited {
            let ids = index.cluster_ids(j);
            let scores = &mut scores_buf[..ids.len()];
            match qquery {
                Some(qq) => kernels::quantized_matvec_into(index.qpanel(j), qq, scores),
                None => index.panel(j).matvec_transposed_into(query, scores),
            }
            lists.push(rank_panel(shard.offset, ids, scores, select_k, local_seen));
        }
        merge_top_k(&lists, select_k)
    }

    /// The batched IVF path shared by [`Self::top_k_batch_traced`] and
    /// [`Self::quantized_top_k_batch_traced`] on clustered catalogues: per
    /// shard, every request routes with its own centroid GEMV (the same
    /// kernel and bits as the solo path — batching never changes *which*
    /// clusters a request visits), then the union of visited clusters is
    /// scored with one packed-panel GEMM per cluster over the whole batch.
    /// Panel GEMM bits equal the shard GEMM bits row for row (ascending-`k`
    /// accumulation is grouping-independent), so at `nprobe = all` this is
    /// bit-identical to the dense batched paths.
    fn ivf_top_k_batch_traced(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
        trace: Option<&mut StageTrace>,
        quantized: bool,
    ) -> Vec<Vec<ScoredItem>> {
        let b = queries.rows();
        let qqueries: Option<Vec<QuantizedQuery>> =
            quantized.then(|| (0..b).map(|i| QuantizedQuery::quantize(queries.row(i))).collect());
        let (blocks, shard_micros) =
            self.fan_out(pool, &mut [], |s, _| self.ivf_score_shard_batch(s, queries, qqueries.as_deref()));
        let rank_started = trace.is_some().then(Instant::now);
        let mut rerank_micros = 0u64;
        let mut scratch = SeenMask::new(self.num_items);
        let mut out = Vec::with_capacity(b);
        for i in 0..b {
            scratch.mark(seen_items[i].unwrap_or_default());
            let seen = seen_items[i].map(|_| scratch.bits());
            let select_k = select_width(ks[i], quantized);
            // Flat merge over every visited cluster of every shard: the merge
            // comparator is a total order, so this equals the hierarchical
            // per-shard merge bit for bit.
            let mut lists = Vec::new();
            for (s, shard) in self.shards.iter().enumerate() {
                let Some(index) = shard.ivf.as_ref() else { continue };
                let local_seen = seen.map(|bits| &bits[shard.offset..shard.offset + shard.len()]);
                for &j in &blocks[s].visited[i] {
                    // ham-lint: allow(panic, "the scoring task scored every visited cluster before returning its block")
                    let block = blocks[s].blocks[j].as_ref().expect("visited cluster left unscored");
                    lists.push(rank_panel(shard.offset, index.cluster_ids(j), block.row(i), select_k, local_seen));
                }
            }
            let candidates = merge_top_k(&lists, select_k);
            let merged = if quantized {
                let rerank_started = trace.is_some().then(Instant::now);
                let ranked = self.rerank_exact(candidates, queries.row(i), ks[i], seen);
                if let Some(at) = rerank_started {
                    rerank_micros += at.elapsed().as_micros() as u64;
                }
                ranked
            } else {
                candidates
            };
            scratch.clear(seen_items[i].unwrap_or_default());
            out.push(merged);
        }
        if let Some(trace) = trace {
            trace.shard_score_micros = shard_micros;
            let rank_micros = rank_started.map_or(0, |at| at.elapsed().as_micros() as u64);
            trace.merge_micros = rank_micros.saturating_sub(rerank_micros);
            trace.rerank_micros = rerank_micros;
        }
        out
    }

    /// One shard's batched IVF scoring: per-request routing GEMVs, then one
    /// panel GEMM per cluster in the union of visited clusters.
    fn ivf_score_shard_batch(&self, s: usize, queries: &Matrix, qqueries: Option<&[QuantizedQuery]>) -> IvfShardBlock {
        let b = queries.rows();
        // ham-lint: allow(panic, "IVF entry points are only reachable on clustered catalogues")
        let index = self.shards[s].ivf.as_ref().expect("IVF serving on a catalogue without a cluster index");
        let c = index.num_clusters();
        if c == 0 {
            return IvfShardBlock { visited: vec![Vec::new(); b], blocks: Vec::new() };
        }
        let probe = self.nprobe.min(c);
        let mut union = vec![false; c];
        let visited: Vec<Vec<usize>> = (0..b)
            .map(|i| {
                let route = index.centroids().matvec_transposed(queries.row(i));
                let v = top_k_indices(&route, probe);
                for &j in &v {
                    union[j] = true;
                }
                v
            })
            .collect();
        let blocks: Vec<Option<Matrix>> = (0..c)
            .map(|j| {
                if !union[j] {
                    return None;
                }
                Some(match qqueries {
                    Some(qq) => {
                        let panel = index.qpanel(j);
                        let mut block = Matrix::zeros(b, panel.rows());
                        kernels::quantized_matmul_transposed_into(qq, panel, &mut block);
                        block
                    }
                    None => queries.matmul_transposed(index.panel(j)),
                })
            })
            .collect();
        IvfShardBlock { visited, blocks }
    }

    /// Re-scores `candidates` with the exact f32 per-row dot (the same
    /// dispatched kernel chain as the exact GEMV path — bit-identical per
    /// row), re-applies the mask, and keeps the top `k` under the exact
    /// comparator. Crate-visible so the deadline-bounded degraded path
    /// (`degrade`) re-ranks its quantized pre-selection with the very same
    /// code and stays bit-identical when no shard was dropped.
    pub(crate) fn rerank_exact(
        &self,
        candidates: Vec<ScoredItem>,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
    ) -> Vec<ScoredItem> {
        let mut exact: Vec<ScoredItem> = candidates
            .into_iter()
            .map(|c| {
                let masked = seen.is_some_and(|bits| bits[c.item]);
                let score = if masked {
                    f32::NEG_INFINITY
                } else {
                    let (s, local) = self.locate(c.item);
                    kernels::dot(self.shards[s].rows.row(local), query)
                };
                ScoredItem { item: c.item, score }
            })
            .collect();
        exact.sort_by(|a, b| better(b, a));
        exact.truncate(k);
        exact
    }

    /// Shard index and shard-local row of a global item id.
    fn locate(&self, item: usize) -> (usize, usize) {
        debug_assert!(item < self.num_items);
        let s = self.shards.partition_point(|sh| sh.offset + sh.len() <= item);
        (s, item - self.shards[s].offset)
    }

    /// Batched [`Self::quantized_top_k_with_buf`]: every shard task (in
    /// parallel across shards on `pool` when given) scores its shard in int8
    /// GEMM tiles and pre-selects each request's quantized top-`2k` in-task,
    /// then the caller merges and re-ranks exactly.
    ///
    /// Because the re-rank rescores with the exact per-row dot, a batched
    /// quantized request returns the same bits as the single-request
    /// quantized path — batching changes throughput, never results.
    ///
    /// # Panics
    /// Panics if the catalogue was not quantized or the per-row argument
    /// lengths disagree with the batch size.
    pub fn quantized_top_k_batch(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
    ) -> Vec<Vec<ScoredItem>> {
        self.quantized_top_k_batch_traced(queries, ks, seen_items, pool, None)
    }

    /// [`Self::quantized_top_k_batch`] with stage timing: when `trace` is
    /// given, per-shard task durations (int8 GEMM + in-task select), the
    /// k-way merges and the exact re-rank are clocked into it. `None` serves
    /// identically with no timing overhead beyond one branch.
    pub fn quantized_top_k_batch_traced(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
        trace: Option<&mut StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        let b = queries.rows();
        assert_eq!(ks.len(), b, "quantized_top_k_batch: {} k values for {} queries", ks.len(), b);
        assert_eq!(seen_items.len(), b, "quantized_top_k_batch: {} seen lists for {} queries", seen_items.len(), b);
        if self.is_clustered() {
            return self.ivf_top_k_batch_traced(queries, ks, seen_items, pool, trace, true);
        }
        let qqueries: Vec<QuantizedQuery> = (0..b).map(|i| QuantizedQuery::quantize(queries.row(i))).collect();
        self.flat_top_k_batch_traced(queries, Some(&qqueries), ks, seen_items, pool, trace, &mut FlatScratch::default())
    }

    /// Exact global top-k for a query batch: every shard task (in parallel
    /// on `pool` when given) scores its shard tile by tile and ranks each
    /// request in-task (`rank_shard_batch`), then the caller k-way
    /// merges the per-shard shortlists. `ks[i]` and `seen_items[i]` apply to
    /// query row `i`; a row's seen items are the item ids to exclude (`None`
    /// ranks the full catalogue; ids outside the catalogue are ignored).
    ///
    /// No `b × shard_len` score block and no catalogue-sized bitmap exist on
    /// this path: a task's working set is one L2-sized tile buffer and `b`
    /// k-element heaps.
    ///
    /// # Panics
    /// Panics if `ks` or `seen_items` do not have one entry per query row.
    pub fn top_k_batch(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
    ) -> Vec<Vec<ScoredItem>> {
        self.top_k_batch_traced(queries, ks, seen_items, pool, None)
    }

    /// [`Self::top_k_batch`] with stage timing: when `trace` is given,
    /// per-shard task durations (GEMM + in-task select) and the k-way merges
    /// are clocked into it. `None` serves identically with no timing
    /// overhead beyond one branch.
    pub fn top_k_batch_traced(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
        trace: Option<&mut StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        let b = queries.rows();
        assert_eq!(ks.len(), b, "top_k_batch: {} k values for {} queries", ks.len(), b);
        assert_eq!(seen_items.len(), b, "top_k_batch: {} seen lists for {} queries", seen_items.len(), b);
        if self.is_clustered() {
            return self.ivf_top_k_batch_traced(queries, ks, seen_items, pool, trace, false);
        }
        self.flat_top_k_batch_traced(queries, None, ks, seen_items, pool, trace, &mut FlatScratch::default())
    }

    /// The flat path of the batch calls above and of a lone request (a
    /// one-row `queries`): fan the fused driver out over the shards, then
    /// merge each request's k-element shortlists. With `qqueries` (row `i`'s
    /// quantized query) the shards pre-select `2k` through their int8 panels
    /// and the merged candidates are re-ranked with the exact f32 dot. A
    /// caller that keeps `scratch` with one tile per shard spares later
    /// calls their score-tile allocations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flat_top_k_batch_traced(
        &self,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
        trace: Option<&mut StageTrace>,
        scratch: &mut FlatScratch,
    ) -> Vec<Vec<ScoredItem>> {
        let select_ks = select_widths(ks, qqueries.is_some());
        let (per_shard, shard_micros) = self.fan_out(pool, &mut scratch.tiles, |s, tile| {
            self.rank_shard_batch(s, queries, qqueries, &select_ks, seen_items, tile)
        });
        let merge_started = trace.is_some().then(Instant::now);
        let rerank_seen = qqueries.is_some().then_some(&mut scratch.seen);
        let (out, rerank_micros) =
            self.merge_shortlists(per_shard, queries, ks, seen_items, rerank_seen, trace.is_some());
        if let Some(trace) = trace {
            trace.shard_score_micros = shard_micros;
            let merge_micros = merge_started.map_or(0, |at| at.elapsed().as_micros() as u64);
            trace.merge_micros = merge_micros.saturating_sub(rerank_micros);
            trace.rerank_micros = rerank_micros;
        }
        out
    }

    /// The coordinator stage after in-task ranking, shared by the classic
    /// flat path and the deadline-bounded one (`degrade`, over the shards
    /// that answered): k-way merges each request's per-shard shortlists
    /// (`per_shard[s][i]`, consumed) and, given `rerank_seen` — the
    /// quantized flavour — re-ranks the merged `2k` candidates with the
    /// exact f32 dot, masking through that bitmap (exact scores of seen
    /// candidates must stay `-inf`). Returns the rankings and the
    /// microseconds spent re-ranking (clocked only when `timed`; else 0).
    pub(crate) fn merge_shortlists(
        &self,
        mut per_shard: Vec<Vec<Vec<ScoredItem>>>,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        mut rerank_seen: Option<&mut SeenMask>,
        timed: bool,
    ) -> (Vec<Vec<ScoredItem>>, u64) {
        let mut rerank_micros = 0u64;
        if let Some(seen) = rerank_seen.as_deref_mut() {
            seen.resize(self.num_items);
        }
        let mut out = Vec::with_capacity(ks.len());
        for (i, &k) in ks.iter().enumerate() {
            let lists: Vec<Vec<ScoredItem>> = per_shard.iter_mut().map(|lists| std::mem::take(&mut lists[i])).collect();
            let merged = merge_top_k(&lists, select_width(k, rerank_seen.is_some()));
            out.push(match rerank_seen.as_deref_mut() {
                Some(seen) => {
                    let rerank_started = timed.then(Instant::now);
                    let items = seen_items[i].unwrap_or_default();
                    seen.mark(items);
                    let ranked = self.rerank_exact(merged, queries.row(i), k, seen_items[i].map(|_| seen.bits()));
                    seen.clear(items);
                    rerank_micros += rerank_started.map_or(0, |at| at.elapsed().as_micros() as u64);
                    ranked
                }
                None => merged,
            });
        }
        (out, rerank_micros)
    }

    /// Runs `task(s, tile)` for every shard — in parallel on `pool` when more
    /// than one shard is non-empty (a single active shard has nothing to
    /// overlap, so it skips the pool hand-off), in turn on the caller
    /// otherwise — and returns the results in shard order with each task's
    /// wall time as `(shard, micros)`. Shard `s`'s score tile is `tiles[s]`;
    /// past the end of `tiles`, an empty one that lives as long as the task.
    fn fan_out<T: Send>(
        &self,
        pool: Option<&ThreadPool>,
        tiles: &mut [Vec<f32>],
        task: impl Fn(usize, &mut Vec<f32>) -> T + Sync,
    ) -> (Vec<T>, Vec<(usize, u64)>) {
        let timed = |s: usize, tile: Option<&mut Vec<f32>>| {
            let started = Instant::now();
            (task(s, tile.unwrap_or(&mut Vec::new())), started.elapsed().as_micros() as u64)
        };
        let mut slots: Vec<Option<(T, u64)>> = self.shards.iter().map(|_| None).collect();
        let mut tiles = tiles.iter_mut();
        let parallel_useful = self.shards.iter().filter(|s| !s.is_empty()).count() > 1;
        match pool {
            Some(pool) if parallel_useful => pool.scope(|scope| {
                for (s, slot) in slots.iter_mut().enumerate() {
                    let (timed, tile) = (&timed, tiles.next());
                    scope.spawn(move || *slot = Some(timed(s, tile)));
                }
            }),
            _ => {
                for (s, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(timed(s, tiles.next()));
                }
            }
        }
        // ham-lint: allow(panic, "pool.scope joins every spawned task; each task fills its slot before returning")
        let done = slots.into_iter().map(|slot| slot.expect("shard task never ran"));
        done.enumerate().map(|(s, (out, micros))| (out, (s, micros))).unzip()
    }
}

/// One shard's batched IVF scoring result: the clusters each request visits,
/// and a scored block for every cluster in the union of visited sets.
struct IvfShardBlock {
    /// `visited[i]`: cluster ids request row `i` routes to.
    visited: Vec<Vec<usize>>,
    /// `blocks[j]`: the `b × panel_len` score block of cluster `j`, `None`
    /// when no request in the batch visits it.
    blocks: Vec<Option<Matrix>>,
}

/// Ranks one cluster panel's score slice to its top `select_k`: the fused
/// mask+select with the panel-local → shard-local id translation (`ids`),
/// emitting global item ids (`offset + shard-local id`). `local_seen` is the
/// seen bitmap in *shard-local* index space (the global bitmap sliced to the
/// shard's range, or a task-local bitmap on the bounded path). Masked items
/// participate at `-inf`, and since each panel keeps its ids ascending, the
/// panel-index tie-break reproduces the global-id tie-break exactly.
fn rank_panel(
    offset: usize,
    ids: &[usize],
    scores: &[f32],
    select_k: usize,
    local_seen: Option<&[bool]>,
) -> Vec<ScoredItem> {
    let local = match local_seen {
        Some(bits) => top_k_indices_masked_with(scores, select_k, |p| bits[ids[p]]),
        None => top_k_indices(scores, select_k),
    };
    local
        .into_iter()
        .map(|p| {
            let masked = local_seen.is_some_and(|bits| bits[ids[p]]);
            let score = if masked { f32::NEG_INFINITY } else { scores[p] };
            ScoredItem { item: offset + ids[p], score }
        })
        .collect()
}

/// Shortlist length a shard ranks a request to: `k` on the exact paths, the
/// `2k` pre-selection the exact re-rank needs on the quantized ones.
fn select_width(k: usize, quantized: bool) -> usize {
    if quantized {
        k.saturating_mul(2)
    } else {
        k
    }
}

/// [`select_width`] for every request of a batch.
pub(crate) fn select_widths(ks: &[usize], quantized: bool) -> Vec<usize> {
    ks.iter().map(|&k| select_width(k, quantized)).collect()
}

/// "Better recommendation" ordering: higher score wins, ties go to the lower
/// global item id; NaN compares equal to everything (same convention as
/// `top_k_indices`).
fn better(a: &ScoredItem, b: &ScoredItem) -> std::cmp::Ordering {
    a.score.partial_cmp(&b.score).unwrap_or(std::cmp::Ordering::Equal).then(b.item.cmp(&a.item))
}

/// Head of one per-shard list inside the k-way merge heap.
struct MergeHead {
    entry: ScoredItem,
    list: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        better(&self.entry, &other.entry) == std::cmp::Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        better(&self.entry, &other.entry)
    }
}

/// Merges per-shard top-k lists (each sorted by descending preference) into
/// the exact global top-k with a k-way heap: `O(total log s)` for `s` lists.
///
/// Returns fewer than `k` items only when the lists hold fewer than `k`
/// entries in total (k larger than the catalogue).
pub fn merge_top_k(per_shard: &[Vec<ScoredItem>], k: usize) -> Vec<ScoredItem> {
    let mut heap: std::collections::BinaryHeap<MergeHead> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(list, items)| items.first().map(|&entry| MergeHead { entry, list, pos: 0 }))
        .collect();
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.entry);
        if let Some(&next) = per_shard[head.list].get(head.pos + 1) {
            heap.push(MergeHead { entry: next, list: head.list, pos: head.pos + 1 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue(n: usize, d: usize) -> Matrix {
        Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 37) % 23) as f32 * 0.5 - 5.0).collect())
    }

    #[test]
    fn shards_partition_the_catalogue() {
        let w = catalogue(10, 4);
        let cat = ShardedCatalog::from_matrix(&w, 3);
        assert_eq!(cat.num_shards(), 3);
        let lens: Vec<usize> = cat.shards().iter().map(Shard::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        let offsets: Vec<usize> = cat.shards().iter().map(Shard::offset).collect();
        assert_eq!(offsets, vec![0, 4, 7]);
        // Row 6 of the catalogue is row 2 of shard 1.
        assert_eq!(cat.shards()[1].rows().row(2), w.row(6));
    }

    #[test]
    fn more_shards_than_items_yields_empty_shards() {
        let w = catalogue(2, 3);
        let cat = ShardedCatalog::from_matrix(&w, 5);
        assert_eq!(cat.num_shards(), 5);
        assert_eq!(cat.shards().iter().filter(|s| s.is_empty()).count(), 3);
        let q = vec![1.0; 3];
        let top = cat.top_k(&q, 2, None);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn sharded_top_k_equals_unsharded_for_every_shard_count() {
        let w = catalogue(57, 8);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
        let reference: Vec<usize> = top_k_indices(&w.matvec_transposed(&q), 10);
        for shards in 1..=8 {
            let cat = ShardedCatalog::from_matrix(&w, shards);
            let ids: Vec<usize> = cat.top_k(&q, 10, None).iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "shards = {shards}");
        }
    }

    #[test]
    fn merge_breaks_ties_by_lower_item_id() {
        // Two shards, tied scores at the boundary: the lower global id wins,
        // exactly like the single-node tie-break.
        let lists = vec![
            vec![ScoredItem { item: 0, score: 1.0 }, ScoredItem { item: 1, score: 0.5 }],
            vec![ScoredItem { item: 5, score: 1.0 }, ScoredItem { item: 6, score: 0.5 }],
        ];
        let merged = merge_top_k(&lists, 3);
        let ids: Vec<usize> = merged.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![0, 5, 1]);
    }

    #[test]
    fn merge_with_fewer_candidates_than_k_returns_all() {
        let lists = vec![vec![ScoredItem { item: 2, score: 0.1 }], vec![]];
        assert_eq!(merge_top_k(&lists, 10).len(), 1);
        assert!(merge_top_k(&[], 3).is_empty());
    }

    #[test]
    fn masking_is_shard_local_but_globally_consistent() {
        let w = catalogue(20, 4);
        let q = vec![0.5, -0.25, 1.0, 0.125];
        let seen: Vec<bool> = (0..20).map(|i| i % 3 == 0).collect();
        let reference = top_k_indices_masked(&w.matvec_transposed(&q), 6, &seen);
        for shards in [1, 2, 4, 7] {
            let cat = ShardedCatalog::from_matrix(&w, shards);
            let ids: Vec<usize> = cat.top_k(&q, 6, Some(&seen)).iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "shards = {shards}");
        }
    }

    #[test]
    fn batch_path_matches_single_query_gemm_reference() {
        let w = catalogue(33, 8);
        let mut queries = Matrix::zeros(3, 8);
        for i in 0..3 {
            for j in 0..8 {
                queries.set(i, j, ((i * 8 + j) as f32 * 0.21).cos());
            }
        }
        // Row 1 excludes its "history" (every 5th item, plus an
        // out-of-catalogue id that must be ignored); rows 0 and 2 rank all.
        let history: Vec<usize> = (0..33).step_by(5).chain([999]).collect();
        let seen_lists = [None, Some(history.as_slice()), None];
        let cat = ShardedCatalog::from_matrix(&w, 4);
        let got = cat.top_k_batch(&queries, &[5, 5, 33], &seen_lists, None);
        // Reference: unsharded GEMM row + the same fused masked ranking.
        let bits: Vec<bool> = (0..33).map(|i| i % 5 == 0).collect();
        let full = queries.matmul_transposed(&w);
        for i in 0..3 {
            let k = [5, 5, 33][i];
            let reference = match seen_lists[i] {
                Some(_) => top_k_indices_masked(full.row(i), k, &bits),
                None => top_k_indices(full.row(i), k),
            };
            let ids: Vec<usize> = got[i].iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "row {i}");
        }
        // The scratch bitmap is cleared between rows: a second batch with no
        // exclusions must rank the full catalogue for every row.
        let unmasked = cat.top_k_batch(&queries, &[5, 5, 5], &[None, None, None], None);
        assert_eq!(
            unmasked[1].iter().map(|s| s.item).collect::<Vec<_>>(),
            top_k_indices(full.row(1), 5),
            "no residual masking"
        );
    }

    /// A caller that keeps its `FlatScratch` scores request after request
    /// into the same per-shard tiles (disjoint `&mut` for the tasks under a
    /// pool), and a reused scratch never leaks one request's masks or
    /// shortlists into the next.
    #[test]
    fn kept_scratch_reuses_its_tiles_and_carries_nothing_over() {
        let w = catalogue(41, 6);
        let cat = ShardedCatalog::from_matrix(&w, 4).with_quantization();
        let pool = ThreadPool::new(2);
        let requests: Vec<(Matrix, Vec<ItemId>)> = (0..3)
            .map(|r| {
                (
                    Matrix::from_vec(1, 6, (0..6).map(|j| ((r * 6 + j) as f32 * 0.37).sin()).collect()),
                    vec![r, 10 + r, 40],
                )
            })
            .collect();
        for pool in [None, Some(&pool)] {
            for quantized in [false, true] {
                let mut kept = FlatScratch::default();
                kept.tiles.resize_with(cat.num_shards(), Vec::new);
                let mut tile_ptrs = Vec::new();
                for (queries, history) in &requests {
                    let qq = quantized.then(|| vec![QuantizedQuery::quantize(queries.row(0))]);
                    let seen = [Some(history.as_slice())];
                    let serve = |scratch: &mut FlatScratch| {
                        cat.flat_top_k_batch_traced(queries, qq.as_deref(), &[7], &seen, pool, None, scratch)
                    };
                    assert_eq!(serve(&mut kept), serve(&mut FlatScratch::default()), "quantized = {quantized}");
                    assert!(kept.tiles.iter().all(|tile| !tile.is_empty()), "a kept tile went unused");
                    tile_ptrs.push(kept.tiles.iter().map(|tile| tile.as_ptr()).collect::<Vec<_>>());
                }
                assert!(tile_ptrs.windows(2).all(|pair| pair[0] == pair[1]), "tiles were reallocated between requests");
            }
        }
    }
}
