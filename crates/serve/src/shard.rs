//! Row-wise sharding of the candidate matrix and exact top-k merging.
//!
//! The scoring head of every model in this workspace is `r = q · Wᵀ`: a
//! per-user query against the rows of the candidate-embedding matrix `W`.
//! That structure shards trivially — split `W` row-wise into
//! [`Shard`]s, score each shard independently with the existing GEMV/GEMM
//! kernels, rank each shard locally, and merge the per-shard top-k lists
//! into the global top-k with a k-way heap.
//!
//! A shard is a row range, not a copy: every shard reads the one `W` the
//! catalogue holds behind an `Arc` — the model's own table when the
//! catalogue was frozen from a model that shares it
//! ([`ShardedCatalog::from_shared`]) — through the row-range GEMV and GEMM
//! entries of the kernel layer, which score rows in place.
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
//! * every select, the merge and the re-rank order by one key,
//!   `ham_tensor::ops::Ranked`: higher score first, ties to the lower global
//!   item id, and NaN never ranks.
//!
//! ## The shard driver: fused tile score→select
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
//! shared key. Every path is this one driver — `rank_shard` fanned out
//! over the shards, then one `merge_shortlists` over the shards that
//! answered — exact or quantized, flat or clustered, batch or lone request (a
//! batch of one row whose single tile is the whole shard, scored by the fused
//! GEMV). Only the executor varies, by a `ShardRun` policy: the tasks run to
//! completion in turn on the caller or in parallel on the pool, or on the
//! bulkhead executor (`degrade`) until a deadline, where a shard that misses
//! it or panics is left out of the merge.
//!
//! ## IVF on the same driver
//!
//! A clustered shard ([`ShardedCatalog::with_cluster_index`]) changes only
//! what `rank_shard` does inside the task: instead of walking the shard's
//! tiles it routes each request to its `nprobe` nearest clusters and treats
//! every visited cluster's panel as one tile — scored once for the block
//! into the same scratch, masked by `-inf` overwrite, ranked while hot, the
//! per-cluster shortlists merged in-task. Fan-out, tracing, fault injection,
//! the k-way merge and the quantized re-rank are the flat ones, so a one-row
//! batch scores with the GEMV wherever it came from, and `nprobe = all` is
//! bit-identical to flat serving (panels only regroup rows; see
//! [`crate::ivf`]).
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

use crate::degrade::ShardExecutor;
use crate::ivf::{ClusterIndex, IvfConfig, PROBE_ALL};
use crate::trace::StageTrace;
use ham_core::SeenMask;
use ham_data::dataset::ItemId;
use ham_faults::FaultInjector;
use ham_tensor::kernels;
use ham_tensor::ops::{top_k_indices, top_k_indices_masked, Ranked, TopKStream};
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One recommended item with its model score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Global catalogue item id.
    pub item: ItemId,
    /// The model score (`-inf` for masked items padding a degenerate tail).
    pub score: f32,
}

impl From<Ranked> for ScoredItem {
    fn from(key: Ranked) -> Self {
        Self { item: key.index(), score: key.score() }
    }
}

/// A contiguous row range of the candidate matrix, served by one shard.
#[derive(Debug, Clone)]
pub struct Shard {
    offset: usize,
    len: usize,
    /// Int8 snapshot of the shard's rows for the quantized pre-selection
    /// path (`None` until [`ShardedCatalog::with_quantization`]).
    quantized: Option<QuantizedMatrix>,
    /// Inverted-file index over the shard's rows for cluster-routed
    /// retrieval (`None` until [`ShardedCatalog::with_cluster_index`]).
    ivf: Option<ClusterIndex>,
}

impl Shard {
    /// Global item id of the shard's first row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of items in the shard.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the shard holds no items (more shards than items).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shard's rows as global item ids.
    fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
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
///
/// Cloning is cheap — the matrix and the shards (int8 panels and cluster
/// indexes included) are shared, not copied.
#[derive(Debug, Clone)]
pub struct ShardedCatalog {
    /// The whole candidate matrix; shard `s` is its rows `shards[s].range()`.
    candidates: Arc<Matrix>,
    /// Shared so that a bulkhead shard task, which may outlive its batch,
    /// holds a catalogue handle of its own.
    shards: Arc<Vec<Shard>>,
    /// Clusters visited per shard per request on a clustered catalogue
    /// ([`crate::ivf::PROBE_ALL`] = every cluster, the exact endpoint).
    /// Ignored until a cluster index is built.
    nprobe: usize,
}

/// What the shard driver keeps between calls when its caller holds on to it
/// (the dispatcher's [`ServeScratch`](crate::ServeScratch)).
#[derive(Debug, Default)]
pub(crate) struct FlatScratch {
    /// Shard `s`'s task scores into `tiles[s]` (disjoint `&mut` when the
    /// tasks run on the pool), grown once to the shard — to its widest panel
    /// when clustered; a task past the end allocates and frees its own.
    /// Measured on `serve_solo_120k`: +4% `users_per_s` over per-task tiles,
    /// 17 of 20 pairs (CHANGES.md, PR 13).
    pub(crate) tiles: Vec<Vec<f32>>,
    /// The catalogue bitmap a re-rank masks through; all-clear between
    /// calls, [`SeenMask::reset`] restores that after a panic.
    pub(crate) seen: SeenMask,
}

impl ShardedCatalog {
    /// Splits a copy of `w` into `num_shards` near-even contiguous row
    /// ranges — [`Self::from_shared`] over a fresh handle.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn from_matrix(w: &Matrix, num_shards: usize) -> Self {
        Self::from_shared(Arc::new(w.clone()), num_shards)
    }

    /// Splits `w` into `num_shards` near-even contiguous row ranges (the
    /// first `n % num_shards` shards hold one extra row) without copying
    /// it: every shard reads its range of the one shared matrix. Shards
    /// beyond the item count come out empty and are handled gracefully
    /// everywhere.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn from_shared(w: Arc<Matrix>, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedCatalog: need at least one shard");
        let n = w.rows();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut offset = 0;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            shards.push(Shard { offset, len, quantized: None, ivf: None });
            offset += len;
        }
        Self { candidates: w, shards: Arc::new(shards), nprobe: PROBE_ALL }
    }

    /// Shard `shard`'s rows of the candidate matrix, row-major
    /// (`len × dim`), read in place.
    pub fn shard_rows(&self, shard: usize) -> &[f32] {
        let (rows, d) = (self.shards[shard].range(), self.dim());
        &self.candidates.as_slice()[rows.start * d..rows.end * d]
    }

    /// The whole f32 candidate matrix, every shard's rows in global order.
    pub(crate) fn candidates(&self) -> &Matrix {
        &self.candidates
    }

    /// A copy of shard `shard`'s rows — what the freeze-time int8 and IVF
    /// builds read; dropped once they are built.
    fn shard_matrix(&self, shard: usize) -> Matrix {
        Matrix::from_vec(self.shards[shard].len, self.dim(), self.shard_rows(shard).to_vec())
    }

    /// Snapshots every shard's rows as an int8 panel, enabling the quantized
    /// pre-selection path. The f32 rows stay authoritative — the exact
    /// re-rank and the f32 serving paths keep reading them. A cluster index
    /// built earlier gets its panels quantized too, so the IVF and quantized
    /// tiers compose in either construction order.
    pub fn with_quantization(mut self) -> Self {
        for s in 0..self.shards.len() {
            let panel = QuantizedMatrix::quantize(&self.shard_matrix(s));
            let shard = &mut Arc::make_mut(&mut self.shards)[s];
            shard.quantized = Some(panel);
            if let Some(ivf) = &mut shard.ivf {
                ivf.quantize_panels();
            }
        }
        self
    }

    /// Builds a per-shard inverted-file index (`ClusterIndex`) with the
    /// deterministic seeded k-means and switches every shard task to
    /// cluster-routed scoring, visiting `config.nprobe` clusters per shard
    /// per request. With `nprobe = all` (the [`IvfConfig::auto`] default)
    /// results stay bit-identical to the exact paths; narrower probes trade
    /// measured recall for sub-linear scan cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        for s in 0..self.shards.len() {
            let mut index = ClusterIndex::build(&self.shard_matrix(s), config, self.shards[s].offset as u64);
            let shard = &mut Arc::make_mut(&mut self.shards)[s];
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

    /// Clusters visited per shard per request on a clustered catalogue.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Whether every shard carries a cluster index (its task then scores
    /// only the clusters each request routes to).
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
        self.candidates.rows()
    }

    /// Embedding dimension of the candidate rows.
    pub fn dim(&self) -> usize {
        self.candidates.cols()
    }

    /// The shards, in global row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Scores one query against one shard (fused GEMV over the shard rows).
    pub fn shard_scores(&self, shard: usize, query: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.shards[shard].len];
        self.shard_scores_into(shard, query, &mut out);
        out
    }

    /// [`Self::shard_scores`] into a caller-provided buffer (overwritten) —
    /// the serving hot path reuses one buffer across shards and requests
    /// instead of allocating a fresh `Vec` per GEMV.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the shard's length.
    // ham-lint: hot-path
    pub fn shard_scores_into(&self, shard: usize, query: &[f32], out: &mut [f32]) {
        kernels::matvec_transposed_rows_into(&self.candidates, query, self.shards[shard].range(), out);
    }

    /// Ranks one shard for a query block — the one per-shard call of every
    /// serving path: flat or clustered catalogue, lone request (a block of
    /// one row) or batch, scoped or on the bulkhead. Request `i` gets its
    /// best `select_ks[i]` items of shard `s` with `seen_items[i]` masked;
    /// `tile` is the task's score scratch, grown as needed.
    pub(crate) fn rank_shard<S: AsRef<[ItemId]>>(
        &self,
        s: usize,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<S>],
        tile: &mut Vec<f32>,
    ) -> Vec<Vec<ScoredItem>> {
        match &self.shards[s].ivf {
            Some(index) => self.rank_shard_ivf(s, index, queries, qqueries, select_ks, seen_items, tile),
            None => self.rank_shard_batch(s, queries, qqueries, select_ks, seen_items, tile),
        }
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
            let rows = shard.offset + lo..shard.offset + hi;
            match panel {
                Some((qq, panel)) if b == 1 => kernels::quantized_matvec_into(panel, &qq[0], tile),
                Some((qq, panel)) => kernels::quantized_matmul_transposed_rows_into(qq, panel, lo..hi, tile),
                None if b == 1 => kernels::matvec_transposed_rows_into(&self.candidates, queries.row(0), rows, tile),
                None => kernels::matmul_transposed_rows_into(queries, &self.candidates, rows, tile),
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

    /// The clustered body of [`Self::rank_shard`]. Every request routes with
    /// its own centroid GEMV (batching never changes *which* clusters a
    /// request visits) to its top-`nprobe` clusters; each cluster some
    /// request visits is scored once for the whole block into `tile` —
    /// fused GEMV for one row, packed-panel GEMM otherwise, through the
    /// int8 panel when `qqueries` is given — its seen rows are overwritten
    /// with `-inf` exactly as the flat body masks a tile (the index maps an
    /// item to its panel row, so masking is O(history in this shard)), and
    /// it is ranked, while hot, for every request that visits it. A
    /// request's per-cluster shortlists are then k-way merged into its shard
    /// shortlist.
    // ham-lint: hot-path
    #[allow(clippy::too_many_arguments)]
    fn rank_shard_ivf<S: AsRef<[ItemId]>>(
        &self,
        s: usize,
        index: &ClusterIndex,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        select_ks: &[usize],
        seen_items: &[Option<S>],
        tile: &mut Vec<f32>,
    ) -> Vec<Vec<ScoredItem>> {
        let shard = &self.shards[s];
        let b = queries.rows();
        let probe = self.nprobe.min(index.num_clusters());
        // ham-lint: allow(alloc, "one routing score per cluster, reused by every request row")
        let mut route = vec![0.0; index.num_clusters()];
        // Every (cluster, request row) visit, grouped by cluster.
        // ham-lint: allow(alloc, "the visited list: nprobe entries per request row")
        let mut visits: Vec<(usize, usize)> = Vec::with_capacity(b * probe);
        for row in 0..b {
            index.centroids().matvec_transposed_into(queries.row(row), &mut route);
            // A NaN centroid score still routes to real rows: it routes last,
            // so `nprobe = all` visits every cluster.
            for score in route.iter_mut().filter(|score| score.is_nan()) {
                *score = f32::NEG_INFINITY;
            }
            visits.extend(top_k_indices(&route, probe).into_iter().map(|j| (j, row)));
        }
        visits.sort_unstable();
        let tile_len = b * index.max_panel_len();
        if tile.len() < tile_len {
            // ham-lint: allow(alloc, "a kept tile grows once to the block's widest panel; every score is written before it is read")
            *tile = vec![0.0; tile_len];
        }
        // Every (cluster, request row, panel row) to mask, in cluster order.
        // ham-lint: allow(alloc, "O(history in this shard) entries")
        let mut masked: Vec<(usize, usize, usize)> = Vec::new();
        for (row, items) in seen_items.iter().enumerate() {
            let items: &[ItemId] = items.as_ref().map_or(&[], AsRef::as_ref);
            let in_shard = items.iter().filter(|&&item| item >= shard.offset && item - shard.offset < shard.len());
            masked.extend(in_shard.map(|&item| index.slot(item - shard.offset)).map(|(j, p)| (j, row, p)));
        }
        masked.sort_unstable();
        let mut next_masked = 0;
        // ham-lint: allow(alloc, "per request row, one shortlist slot per visited cluster")
        let mut lists: Vec<Vec<Vec<ScoredItem>>> = (0..b).map(|_| Vec::with_capacity(probe)).collect();
        for visitors in visits.chunk_by(|a, b| a.0 == b.0) {
            let j = visitors[0].0;
            let ids = index.cluster_ids(j);
            let w = ids.len();
            let tile = &mut tile[..b * w];
            match qqueries {
                Some(qq) if b == 1 => kernels::quantized_matvec_into(index.qpanel(j), &qq[0], tile),
                Some(qq) => kernels::quantized_matmul_transposed_rows_into(qq, index.qpanel(j), 0..w, tile),
                None if b == 1 => index.panel(j).matvec_transposed_into(queries.row(0), tile),
                None => kernels::matmul_transposed_rows_into(queries, index.panel(j), 0..w, tile),
            }
            while let Some(&(cluster, row, p)) = masked.get(next_masked).filter(|&&(cluster, ..)| cluster <= j) {
                if cluster == j {
                    tile[row * w + p] = f32::NEG_INFINITY;
                }
                next_masked += 1;
            }
            for &(_, row) in visitors {
                lists[row].push(rank_panel(shard.offset, ids, &tile[row * w..(row + 1) * w], select_ks[row]));
            }
        }
        // ham-lint: allow(alloc, "the per-request shard shortlists are the task's result")
        lists.iter().zip(select_ks).map(|(lists, &k)| merge_top_k(lists, k)).collect()
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
        let local_seen = seen.map(|bits| &bits[s.range()]);
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

    /// Global top-k for one query: the shard driver with one query row and
    /// the shard tasks in turn on the caller, then the k-way merge. `seen` is
    /// the global seen-item bitmap (length `num_items`) or `None` to rank
    /// the full catalogue.
    ///
    /// On a flat catalogue — and on a clustered one at `nprobe = all` —
    /// bit-identical to scoring the unsharded matrix and ranking once, for
    /// any shard count.
    ///
    /// A compatibility entry point, like every bitmap-taking one below: the
    /// driver masks from an item list, so each call walks the bitmap
    /// (O(`num_items`)) to rebuild one; a serving loop calls
    /// [`ServingModel::recommend_with`], which masks from the request's
    /// history.
    ///
    /// [`ServingModel::recommend_with`]: crate::ServingModel::recommend_with
    pub fn top_k(&self, query: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        self.solo_from_bitmap(query, None, k, seen, &mut Vec::new())
    }

    /// Global top-k through the quantized candidate path: per-shard int8
    /// GEMV pre-selection of the quantized top-`2k`, k-way merge, then an
    /// **exact f32 re-rank** of the merged candidates.
    ///
    /// The re-rank scores each candidate with the same dispatched per-row
    /// dot kernel the exact GEMV path uses, and ranks by the same key — so
    /// whenever every exact winner survives the quantized 2k pre-selection
    /// (the recall guardrail the serving tests pin), the result is
    /// bit-identical, ids and order, to [`Self::top_k`]. The
    /// pre-selection itself is integer-accumulated and bit-identical across
    /// tiers and shard counts by construction.
    ///
    /// `qquery` is the reusable query-quantization scratch
    /// (re-quantized in place from `query` on every call), and every shard
    /// task scores into `scores_buf` (grown once to the largest shard, then
    /// reused). Like [`Self::top_k`], a compatibility entry point that walks
    /// the bitmap per call.
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
        qquery.requantize(query);
        self.solo_from_bitmap(query, Some(qquery), k, seen, scores_buf)
    }

    /// [`Self::top_k`] with a caller-provided score buffer (see
    /// [`Self::quantized_top_k_with_buf`]), under the name and signature the
    /// benchmark's per-layer replay calls on a clustered catalogue: the
    /// driver routes inside each shard task, so `_route_buf` goes unused.
    pub fn ivf_top_k_with_buf(
        &self,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
        _route_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        self.solo_from_bitmap(query, None, k, seen, scores_buf)
    }

    /// How the bitmap solo entry points run the shard driver: the marked
    /// bits become the request's seen-item list, the shard tasks run in turn
    /// with `scores_buf` as the one tile they share, and the quantized
    /// re-rank masks through the caller's bits.
    fn solo_from_bitmap(
        &self,
        query: &[f32],
        qquery: Option<&QuantizedQuery>,
        k: usize,
        seen: Option<&[bool]>,
        scores_buf: &mut Vec<f32>,
    ) -> Vec<ScoredItem> {
        let seen_items = seen.map(marked_items);
        let queries = Matrix::from_vec(1, query.len(), query.to_vec());
        let qqueries = qquery.map(std::slice::from_ref);
        let select_k = select_width(k, qquery.is_some());
        let rank = |s| self.rank_shard(s, &queries, qqueries, &[select_k], &[seen_items.as_deref()], scores_buf);
        let per_shard: Vec<Vec<ScoredItem>> = (0..self.shards.len()).flat_map(rank).collect();
        let merged = merge_top_k(&per_shard, select_k);
        if qquery.is_some() {
            self.rerank_exact(merged, query, k, seen)
        } else {
            merged
        }
    }

    /// Re-scores `candidates` with the exact f32 per-row dot (the same
    /// dispatched kernel chain as the exact GEMV path — bit-identical per
    /// row), re-applies the mask, and keeps the top `k` in [`Ranked`] order.
    /// A candidate whose exact score is NaN (a NaN row the int8
    /// pre-selection kept) has no key and is dropped: NaN never ranks, as on
    /// the exact path, so the answer holds `min(k, non-NaN candidates)`
    /// items.
    fn rerank_exact(
        &self,
        candidates: Vec<ScoredItem>,
        query: &[f32],
        k: usize,
        seen: Option<&[bool]>,
    ) -> Vec<ScoredItem> {
        let mut exact: Vec<Ranked> = candidates
            .into_iter()
            .filter_map(|c| {
                let masked = seen.is_some_and(|bits| bits[c.item]);
                let score = if masked { f32::NEG_INFINITY } else { kernels::dot(self.candidates.row(c.item), query) };
                Ranked::new(score, c.item)
            })
            .collect();
        exact.sort_unstable();
        exact.into_iter().take(k).map(ScoredItem::from).collect()
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
        let qqueries = quantize_rows(queries);
        let run = ShardRun::Scoped(pool);
        self.rank_batch(queries, Some(&qqueries), ks, seen_items, run, None, &mut FlatScratch::default()).0
    }

    /// Global top-k for a query batch: every shard task (in parallel on
    /// `pool` when given) scores its shard tile by tile — its visited
    /// cluster panels on a clustered catalogue — and ranks each request
    /// in-task (`rank_shard`), then the caller k-way merges the
    /// per-shard shortlists. `ks[i]` and `seen_items[i]` apply to query row
    /// `i`; a row's seen items are the item ids to exclude (`None` ranks the
    /// full catalogue; ids outside the catalogue are ignored).
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
        self.rank_batch(queries, None, ks, seen_items, ShardRun::Scoped(pool), None, &mut FlatScratch::default()).0
    }

    /// The one ranking plan of every catalogue, for a batch or a lone request
    /// (a one-row `queries`): fan [`Self::rank_shard`] out over the shards as
    /// `run` says, then merge each request's k-element shortlists over the
    /// shards that answered. With `qqueries` (row `i`'s quantized query) the
    /// shards pre-select `2k` through their int8 panels and the merged
    /// candidates are re-ranked with the exact f32 dot. When `trace` is
    /// given, the durations of the shard tasks that answered, the k-way
    /// merges and the re-rank are clocked into it. A caller that keeps
    /// `scratch` with one tile per shard spares later scoped calls their
    /// score-tile allocations.
    ///
    /// # Panics
    /// Panics if `ks` or `seen_items` do not have one entry per query row.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rank_batch(
        &self,
        queries: &Matrix,
        qqueries: Option<&[QuantizedQuery]>,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        run: ShardRun<'_>,
        trace: Option<&mut StageTrace>,
        scratch: &mut FlatScratch,
    ) -> (Vec<Vec<ScoredItem>>, ShardTally) {
        let b = queries.rows();
        assert_eq!(ks.len(), b, "top_k_batch: {} k values for {} queries", ks.len(), b);
        assert_eq!(seen_items.len(), b, "top_k_batch: {} seen lists for {} queries", seen_items.len(), b);
        let select_ks = select_widths(ks, qqueries.is_some());
        let (per_shard, shard_micros, tally) = match run {
            ShardRun::Scoped(pool) => {
                let (per_shard, shard_micros) = self.fan_out(pool, &mut scratch.tiles, |s, tile| {
                    self.rank_shard(s, queries, qqueries, &select_ks, seen_items, tile)
                });
                (per_shard, shard_micros, ShardTally::default())
            }
            ShardRun::Bulkhead { executor, deadline, faults } => {
                executor.rank_shards(self, queries, qqueries, &select_ks, seen_items, deadline, faults)
            }
        };
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
        (out, tally)
    }

    /// The coordinator stage after in-task ranking: k-way merges each
    /// request's shortlists over the shards that answered (`per_shard[s][i]`,
    /// consumed; a `None` shard is left out) and, given `rerank_seen` — the
    /// quantized flavour — re-ranks the merged `2k` candidates with the
    /// exact f32 dot, masking through that bitmap (exact scores of seen
    /// candidates must stay `-inf`). Returns the rankings and the
    /// microseconds spent re-ranking (clocked only when `timed`; else 0).
    fn merge_shortlists(
        &self,
        mut per_shard: Vec<Option<Shortlists>>,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        mut rerank_seen: Option<&mut SeenMask>,
        timed: bool,
    ) -> (Vec<Vec<ScoredItem>>, u64) {
        let mut rerank_micros = 0u64;
        if let Some(seen) = rerank_seen.as_deref_mut() {
            seen.resize(self.num_items());
        }
        let mut out = Vec::with_capacity(ks.len());
        for (i, &k) in ks.iter().enumerate() {
            let lists: Vec<Vec<ScoredItem>> =
                per_shard.iter_mut().flatten().map(|lists| std::mem::take(&mut lists[i])).collect();
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

    /// The scoped arm of [`ShardRun`]: runs `task(s, tile)` for every shard —
    /// in parallel on `pool` when more than one shard is non-empty (a single
    /// active shard has nothing to overlap, so it skips the pool hand-off),
    /// in turn on the caller otherwise — and returns every shard's result in
    /// shard order with each task's wall time as `(shard, micros)`. Shard
    /// `s`'s score tile is `tiles[s]`; past the end of `tiles`, an empty one
    /// that lives as long as the task.
    fn fan_out<T: Send>(
        &self,
        pool: Option<&ThreadPool>,
        tiles: &mut [Vec<f32>],
        task: impl Fn(usize, &mut Vec<f32>) -> T + Sync,
    ) -> (Vec<Option<T>>, Vec<(usize, u64)>) {
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
        done.enumerate().map(|(s, (out, micros))| (Some(out), (s, micros))).unzip()
    }
}

/// One shard's ranking of a query block: request `i`'s shortlist at `[i]`.
pub(crate) type Shortlists = Vec<Vec<ScoredItem>>;

/// How the shard tasks of one [`ShardedCatalog::rank_batch`] call run — the
/// only thing that differs between the serving paths.
pub(crate) enum ShardRun<'a> {
    /// To completion: in parallel on the pool when given, in turn on the
    /// caller otherwise. Every shard answers.
    Scoped(Option<&'a ThreadPool>),
    /// On the bulkhead `executor`, each task behind the fault prelude that
    /// `faults` arms, waited for until `deadline` (forever when `None`, when
    /// only a panic can drop a shard).
    Bulkhead { executor: &'a ShardExecutor, deadline: Option<Instant>, faults: &'a FaultInjector },
}

/// Which shards' shortlists were left out of a merge.
#[derive(Debug, Default)]
pub(crate) struct ShardTally {
    /// Shards left out for missing the deadline.
    pub timed_out: Vec<usize>,
    /// Shards left out because their task panicked.
    pub panicked: Vec<usize>,
}

impl ShardTally {
    /// How many shards were left out of the merge.
    pub fn dropped(&self) -> usize {
        self.timed_out.len() + self.panicked.len()
    }
}

/// Ranks one cluster panel's (already masked) score slice to its top
/// `select_k` as global item ids: `ids` translates a panel row to its
/// shard-local id, `offset` that to the catalogue. Each panel keeps its ids
/// ascending, so the select's lower-index tie-break is the global-id one.
// ham-lint: hot-path
fn rank_panel(offset: usize, ids: &[usize], scores: &[f32], select_k: usize) -> Vec<ScoredItem> {
    let mut stream = TopKStream::new(select_k.min(scores.len()));
    stream.push_block(0, scores, |_| false);
    let ranked = stream.into_sorted().into_iter();
    // ham-lint: allow(alloc, "the cluster's shortlist, k elements, collected in place over the select's heap")
    ranked.map(|(p, score)| ScoredItem { item: offset + ids[p], score }).collect()
}

/// The set bits of a seen bitmap as ascending item ids. Clear 64-byte
/// chunks are skipped by an OR-fold, which vectorises (`contains(&true)`
/// does not): the compatibility wrappers walk a catalogue-sized bitmap that
/// holds a history's few dozen marks.
fn marked_items(bits: &[bool]) -> Vec<ItemId> {
    let mut items = Vec::new();
    for (c, chunk) in bits.chunks(64).enumerate() {
        if chunk.iter().fold(false, |any, &bit| any | bit) {
            items.extend((0..chunk.len()).filter(|&i| chunk[i]).map(|i| c * 64 + i));
        }
    }
    items
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

/// Every query row of a batch, quantized for the int8 panels.
pub(crate) fn quantize_rows(queries: &Matrix) -> Vec<QuantizedQuery> {
    (0..queries.rows()).map(|i| QuantizedQuery::quantize(queries.row(i))).collect()
}

/// [`select_width`] for every request of a batch.
pub(crate) fn select_widths(ks: &[usize], quantized: bool) -> Vec<usize> {
    ks.iter().map(|&k| select_width(k, quantized)).collect()
}

/// The merge heap's entry for list `list` at or after `pos`: its first
/// entry with a key (NaN never ranks), reversed so that the max-heap pops
/// the best head first.
fn merge_head(per_shard: &[Vec<ScoredItem>], list: usize, pos: usize) -> Option<Reverse<(Ranked, usize, usize)>> {
    let key = |entry: &ScoredItem| Ranked::new(entry.score, entry.item);
    per_shard[list].iter().enumerate().skip(pos).find_map(|(pos, entry)| Some(Reverse((key(entry)?, list, pos))))
}

/// Merges per-shard top-k lists (each in [`Ranked`] order) into the exact
/// global top-k with a k-way heap: `O(total log s)` for `s` lists.
///
/// Returns fewer than `k` items only when the lists hold fewer than `k`
/// entries with a non-NaN score in total (k larger than the catalogue, or
/// NaN scores, which never rank).
pub fn merge_top_k(per_shard: &[Vec<ScoredItem>], k: usize) -> Vec<ScoredItem> {
    let mut heap: BinaryHeap<_> = (0..per_shard.len()).filter_map(|list| merge_head(per_shard, list, 0)).collect();
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(Reverse((key, list, pos))) = heap.pop() else { break };
        out.push(ScoredItem::from(key));
        if let Some(next) = merge_head(per_shard, list, pos + 1) {
            heap.push(next);
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
        // Shard 1 is rows 4..7 of the catalogue, read in place.
        assert_eq!(cat.shards()[1].range(), 4..7);
        assert_eq!(cat.shard_rows(1), &w.as_slice()[4 * 4..7 * 4]);
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

    /// The chunk-skipping bitmap walk lists exactly what the per-item walk
    /// does, wherever the marks fall relative to its 64-item chunks.
    #[test]
    fn marked_items_equals_the_per_item_walk() {
        let last_only = |n: usize| (0..n).map(|i| i + 1 == n).collect::<Vec<bool>>();
        let cases = [
            vec![],
            vec![true; 130],
            vec![false; 130],
            last_only(64),
            last_only(65),
            last_only(200),
            (0..157).map(|i| i % 63 == 0 || i == 64).collect(),
        ];
        for bits in cases {
            let naive: Vec<ItemId> = (0..bits.len()).filter(|&i| bits[i]).collect();
            assert_eq!(marked_items(&bits), naive, "{} bits", bits.len());
        }
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
                        cat.rank_batch(queries, qq.as_deref(), &[7], &seen, ShardRun::Scoped(pool), None, scratch).0
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
