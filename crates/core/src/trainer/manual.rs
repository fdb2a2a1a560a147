//! Analytic (manual) gradients of the BPR objective for the pooling-only HAM
//! variants — mini-batched through the GEMM kernel tiers.
//!
//! For one training pair (positive target `j`, sampled negative `k`) with
//! query vector `q = u_i + h + o` and margin `x = q·w_j − q·w_k`, the BPR loss
//! is `softplus(−x)` and its gradients are
//!
//! ```text
//! ∂L/∂w_j =  g·q        ∂L/∂w_k = −g·q        with g = σ(x) − 1
//! ∂L/∂q   =  g·(w_j − w_k)
//! ```
//!
//! `∂L/∂q` is then routed to the user embedding and — through the pooling
//! operator — to the input item embeddings (`1/n_h` per window item for mean
//! pooling; to the per-dimension arg-max item for max pooling).
//!
//! ## Batched fast path
//!
//! `batch_gradients` processes a uniform mini-batch in blocks of
//! `MANUAL_BLOCK` instances. Per block it builds the query matrix `Q` once,
//! gathers the block's **unique** candidate items into `C`, scores every
//! (positive, negative) pair with one
//! [`matmul_transposed_into`](ham_tensor::kernels::matmul_transposed_into)
//! (`Q·Cᵀ`), and accumulates both `∂L/∂C` and `∂L/∂Q` with the rank-1
//! [`axpy_rows`](ham_tensor::kernels::axpy_rows) scatter kernel — candidate
//! rows repeated across a block coalesce into one gradient row before the
//! sparse Adam step sees them. A batch (or block) of **one** instance takes
//! the exact per-instance reference path, so `batch_size = 1` training is
//! bit-identical to the legacy instance-at-a-time loop
//! (`batch_gradients_reference`, against which the GEMM path is pinned at
//! ≤ 1e-5 by the batch-size-invariance proptests in `trainer::tests`).
//!
//! This path only supports `synergy_order == 1`; the synergy variants use the
//! autograd path, against which these gradients are verified in the tests
//! below.

use super::{uniform_shapes, HamParams, PreparedInstance, MANUAL_BLOCK};
use crate::config::HamConfig;
use ham_autograd::GradStore;
use ham_tensor::kernels;
use ham_tensor::matrix::dot;
use ham_tensor::ops::{log_sigmoid, sigmoid_scalar};
use ham_tensor::{Matrix, Pooling};

/// Bits of a packed dedup key reserved for the slot index; items use the
/// remaining high bits, so keys sort by item first.
const SLOT_BITS: u32 = 24;

/// Packs an `(item, slot)` draw into one sortable `u64` key.
#[inline]
fn dedup_key(item: usize, slot: u32) -> u64 {
    debug_assert!(slot < (1 << SLOT_BITS), "dedup slot overflow");
    debug_assert!((item as u64) < (1 << (64 - SLOT_BITS)), "dedup item overflow");
    ((item as u64) << SLOT_BITS) | slot as u64
}

/// Sort-based dedup of packed `(item, slot)` draws (see [`dedup_key`]):
/// assigns one column per distinct item (ascending item order) and records
/// each slot's column. Returns the distinct items; `col_of_slot[slot]`
/// indexes into them. No hashing — the per-chunk cost is one
/// `sort_unstable` of a few hundred integers, independent of the catalogue
/// size.
fn dedup_columns(keyed: &mut [u64], col_of_slot: &mut [u32]) -> Vec<usize> {
    keyed.sort_unstable();
    let mut items: Vec<usize> = Vec::with_capacity(keyed.len());
    for &key in keyed.iter() {
        let item = (key >> SLOT_BITS) as usize;
        let slot = (key & ((1 << SLOT_BITS) - 1)) as usize;
        if items.last() != Some(&item) {
            items.push(item);
        }
        col_of_slot[slot] = (items.len() - 1) as u32;
    }
    items
}

/// Computes the gradients and the mean loss of one mini-batch, routing
/// uniform batches of more than one instance through the blocked GEMM path.
///
/// # Panics
/// Panics if the configuration uses synergies (`synergy_order >= 2`);
/// those variants must use [`super::autograd_ref::batch_gradients`].
pub(crate) fn batch_gradients(params: &HamParams, batch: &[PreparedInstance], config: &HamConfig) -> (GradStore, f32) {
    assert!(!config.uses_synergies(), "manual gradients only support synergy_order == 1; use the autograd trainer");
    assert!(!batch.is_empty(), "batch_gradients: batch must not be empty");
    let batch_scale = 1.0f32 / batch.len() as f32;
    let mut grads = GradStore::new();
    let mut loss = 0.0f64;
    if batch.len() > 1 && uniform_shapes(batch) {
        // Per-block stores merged in block order — the exact computation the
        // threaded trainer performs, so the thread count can never change
        // the result.
        for block in batch.chunks(MANUAL_BLOCK) {
            let (block_grads, block_loss) = block_gradients(params, block, config, batch_scale);
            grads.merge(block_grads);
            loss += block_loss;
        }
    } else {
        loss += reference_into(params, batch, config, batch_scale, &mut grads);
    }
    (grads, loss as f32)
}

/// The legacy per-instance gradient loop: scalar [`dot`] scores and
/// pair-by-pair accumulation. This is the reference the GEMM path is
/// verified against, and the exact path a batch of one instance takes.
pub(crate) fn batch_gradients_reference(
    params: &HamParams,
    batch: &[PreparedInstance],
    config: &HamConfig,
) -> (GradStore, f32) {
    assert!(!config.uses_synergies(), "manual gradients only support synergy_order == 1; use the autograd trainer");
    assert!(!batch.is_empty(), "batch_gradients: batch must not be empty");
    let batch_scale = 1.0f32 / batch.len() as f32;
    let mut grads = GradStore::new();
    let loss = reference_into(params, batch, config, batch_scale, &mut grads);
    (grads, loss as f32)
}

/// Gradients of one block of a larger batch into a fresh store (the threaded
/// trainer computes blocks in parallel and merges them in block order).
/// `batch_scale` is `1 / total batch size`, **not** `1 / block size`.
///
/// Returns the block's contribution to the batch mean loss.
pub(crate) fn block_gradients(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
) -> (GradStore, f64) {
    let mut grads = GradStore::new();
    let loss = block_into(params, block, config, batch_scale, &mut grads);
    (grads, loss)
}

/// Accumulates one block's gradients into `grads`; single-instance blocks
/// take the bit-exact reference path instead of a 1-row GEMM.
fn block_into(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    grads: &mut GradStore,
) -> f64 {
    if block.len() == 1 {
        reference_into(params, block, config, batch_scale, grads)
    } else {
        gemm_block_into(params, block, config, batch_scale, grads)
    }
}

/// Score-GEMM tile width: instances per `Q·Cᵀ` product inside a gradient
/// chunk. `C` holds only the tile's unique candidate items, so a narrow tile
/// keeps the scored rectangle close to the pairs actually needed while the
/// GEMM still amortises the packed-panel walk over the tile's query rows.
const GEMM_TILE: usize = 8;

/// The chunked GEMM path: per [`GEMM_TILE`] instances one `Q·Cᵀ` score
/// product and two `axpy_rows` rank-1 scatters, accumulating straight into
/// chunk-level dense gradient matrices (`∂L/∂C` over the chunk's unique
/// candidates, `∂L/∂Q` per instance) — the sparse `GradStore` is touched
/// once per chunk, with duplicate rows already coalesced.
fn gemm_block_into(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    grads: &mut GradStore,
) -> f64 {
    // Per-chunk score-GEMM timing, resolved from the global telemetry handle
    // here (rather than threaded through the gradient call graph) so the
    // block functions keep their signatures; one registry lookup per chunk
    // of MANUAL_BLOCK instances when enabled, one atomic load when not.
    let gemm_timer = {
        let telemetry = ham_telemetry::global();
        telemetry.registry().map(|r| r.histogram("train_chunk_gemm_nanos"))
    };
    let mut gemm_nanos = 0u64;

    let u_mat = params.store.value(params.u);
    let v_mat = params.store.value(params.v);
    let w_mat = params.store.value(params.w);
    let d = config.d;
    let b = block.len();
    let n_p = block[0].targets.len();
    let has_low = !block[0].low.is_empty();
    let is_max = config.pooling == Pooling::Max;

    // Unique candidate items of the chunk: pair slot `2p` is pair `p`'s
    // positive, `2p + 1` its negative; `pair_cols[slot]` is the item's row in
    // the chunk's gradient matrix `dcand`. The same dedup is what coalesces
    // duplicate candidate rows before the sparse Adam update.
    let pairs = b * n_p;
    let mut keyed: Vec<u64> = Vec::with_capacity(2 * pairs);
    for (i, instance) in block.iter().enumerate() {
        for (t, (&pos, &neg)) in instance.targets.iter().zip(&instance.negatives).enumerate() {
            let pair = (i * n_p + t) as u32;
            keyed.push(dedup_key(pos, 2 * pair));
            keyed.push(dedup_key(neg, 2 * pair + 1));
        }
    }
    let mut pair_cols = vec![0u32; 2 * pairs];
    let items = dedup_columns(&mut keyed, &mut pair_cols);
    let unique = items.len();

    // The chunk's query matrix, one row per instance (h + o + u, exactly the
    // reference construction), with per-instance arg-max positions retained
    // for the max-pooling backward.
    let mut q = Matrix::zeros(b, d);
    let mut argmax_high = vec![0usize; if is_max { b * d } else { 0 }];
    let mut argmax_low = vec![0usize; if is_max && has_low { b * d } else { 0 }];
    let mut low_scratch = vec![0.0f32; d];
    for (i, instance) in block.iter().enumerate() {
        let q_row = q.row_mut(i);
        pool_window_into(v_mat, &instance.input, config.pooling, q_row, argmax_slice(&mut argmax_high, i, d));
        if has_low {
            pool_window_into(
                v_mat,
                &instance.low,
                config.pooling,
                &mut low_scratch,
                argmax_slice(&mut argmax_low, i, d),
            );
            for (qv, ov) in q_row.iter_mut().zip(&low_scratch) {
                *qv += ov;
            }
        }
        if config.use_user_term {
            for (qv, uv) in q_row.iter_mut().zip(u_mat.row(instance.user)) {
                *qv += uv;
            }
        }
    }

    // Chunk-level gradient accumulators: `dcand` coalesces every pair's
    // `±g·q` over the unique candidates, `dq` is ∂L/∂q per instance.
    let mut dcand = Matrix::zeros(unique, d);
    let mut dq = Matrix::zeros(b, d);
    let mut loss_sum = 0.0f64;

    // Tile scratch, reused across the chunk's tiles. The three tile
    // matrices round-trip through `from_vec`/`into_vec` so their capacity
    // survives the loop — the innermost loop performs no steady-state heap
    // allocation.
    let mut tile_cols: Vec<u32> = Vec::new();
    let mut c_buf: Vec<f32> = Vec::new();
    let mut q_buf: Vec<f32> = Vec::new();
    let mut score_buf: Vec<f32> = Vec::new();
    let mut dcand_rows = Vec::with_capacity(2 * GEMM_TILE * n_p);
    let mut dcand_scales = Vec::with_capacity(2 * GEMM_TILE * n_p);
    let mut dcand_src = Vec::with_capacity(2 * GEMM_TILE * n_p);
    let mut dq_rows = Vec::with_capacity(2 * GEMM_TILE * n_p);
    let mut dq_scales = Vec::with_capacity(2 * GEMM_TILE * n_p);
    let mut dq_src = Vec::with_capacity(2 * GEMM_TILE * n_p);

    let mut tile_start = 0usize;
    while tile_start < b {
        let tw = (b - tile_start).min(GEMM_TILE);

        // The tile's candidate set, as sorted unique chunk columns.
        tile_cols.clear();
        tile_cols.extend_from_slice(&pair_cols[2 * tile_start * n_p..2 * (tile_start + tw) * n_p]);
        tile_cols.sort_unstable();
        tile_cols.dedup();

        // Gather the tile's candidate rows and query rows, then score every
        // (instance, candidate) pair of the tile with one GEMM.
        c_buf.clear();
        for &cc in &tile_cols {
            c_buf.extend_from_slice(w_mat.row(items[cc as usize]));
        }
        let c_tile = Matrix::from_vec(tile_cols.len(), d, std::mem::take(&mut c_buf));
        q_buf.clear();
        q_buf.extend_from_slice(&q.as_slice()[tile_start * d..(tile_start + tw) * d]);
        let q_tile = Matrix::from_vec(tw, d, std::mem::take(&mut q_buf));
        score_buf.clear();
        score_buf.resize(tw * tile_cols.len(), 0.0);
        let mut scores = Matrix::from_vec(tw, tile_cols.len(), std::mem::take(&mut score_buf));
        let gemm_started = gemm_timer.is_some().then(std::time::Instant::now);
        kernels::matmul_transposed_into(&q_tile, &c_tile, &mut scores);
        if let Some(started) = gemm_started {
            gemm_nanos += started.elapsed().as_nanos() as u64;
        }

        // Pair pass: losses plus the scatter pattern for the rank-1 updates.
        dcand_rows.clear();
        dcand_scales.clear();
        dcand_src.clear();
        dq_rows.clear();
        dq_scales.clear();
        dq_src.clear();
        for local in 0..tw {
            let i = tile_start + local;
            let instance = &block[i];
            let pair_scale = batch_scale / instance.targets.len() as f32;
            let mut instance_loss = 0.0f32;
            for t in 0..n_p {
                let pair = i * n_p + t;
                let pc = pair_cols[2 * pair];
                let nc = pair_cols[2 * pair + 1];
                let ptc = tile_cols.binary_search(&pc).expect("tile candidate set covers its pairs");
                let ntc = tile_cols.binary_search(&nc).expect("tile candidate set covers its pairs");
                let x = scores.get(local, ptc) - scores.get(local, ntc);
                instance_loss += -log_sigmoid(x) / instance.targets.len() as f32;
                let g = (sigmoid_scalar(x) - 1.0) * pair_scale;
                // ∂L/∂w_pos = g·q_i, ∂L/∂w_neg = −g·q_i (chunk columns)
                dcand_rows.extend([pc as usize, nc as usize]);
                dcand_scales.extend([g, -g]);
                dcand_src.extend([i, i]);
                // ∂L/∂q_i += g·(w_pos − w_neg) (tile rows as sources)
                dq_rows.extend([i, i]);
                dq_scales.extend([g, -g]);
                dq_src.extend([ptc, ntc]);
            }
            loss_sum += instance_loss as f64;
        }

        // Rank-1 scatters for the tile, straight into the chunk matrices.
        kernels::axpy_rows(&mut dcand, &dcand_rows, &dcand_scales, &q, &dcand_src);
        kernels::axpy_rows(&mut dq, &dq_rows, &dq_scales, &c_tile, &dq_src);

        // Hand the tile buffers back for the next iteration.
        c_buf = c_tile.into_vec();
        q_buf = q_tile.into_vec();
        score_buf = scores.into_vec();
        tile_start += tw;
    }

    if let Some(timer) = &gemm_timer {
        timer.record(gemm_nanos);
    }

    // One coalesced sparse accumulation for W: `items` is duplicate-free.
    grads.accumulate_sparse(params.w, &items, &dcand);

    // Route ∂L/∂q to the user embedding.
    if config.use_user_term {
        for (i, instance) in block.iter().enumerate() {
            grads.accumulate_scaled_row(params.u, instance.user, dq.row(i), 1.0);
        }
    }

    // Route ∂L/∂q through the pooling operators onto V. Mean pooling takes
    // one more coalesced `axpy_rows` scatter (every window item of instance
    // `i` receives `dq_i / window len`, summed per unique item before the
    // sparse accumulation); max pooling routes per-dimension arg-max winners
    // per instance.
    if is_max {
        let mut row_scratch = vec![0.0f32; d];
        for (i, instance) in block.iter().enumerate() {
            let dq_row = dq.row(i);
            route_pooling_gradient(
                grads,
                params,
                &instance.input,
                argmax_slice(&mut argmax_high, i, d),
                dq_row,
                config.pooling,
                &mut row_scratch,
            );
            if has_low {
                route_pooling_gradient(
                    grads,
                    params,
                    &instance.low,
                    argmax_slice(&mut argmax_low, i, d),
                    dq_row,
                    config.pooling,
                    &mut row_scratch,
                );
            }
        }
    } else {
        let n_h = block[0].input.len();
        let n_l = block[0].low.len();
        let window_slots = b * (n_h + n_l);
        let mut keyed_windows: Vec<u64> = Vec::with_capacity(window_slots);
        let mut slot = 0u32;
        for instance in block {
            for &item in instance.input.iter().chain(&instance.low) {
                keyed_windows.push(dedup_key(item, slot));
                slot += 1;
            }
        }
        let mut window_cols = vec![0u32; window_slots];
        let window_items = dedup_columns(&mut keyed_windows, &mut window_cols);
        let high_scale = 1.0 / n_h as f32;
        let low_scale = if n_l > 0 { 1.0 / n_l as f32 } else { 0.0 };
        let mut dv = Matrix::zeros(window_items.len(), d);
        {
            let dv_data = dv.as_mut_slice();
            for i in 0..b {
                let dq_row = dq.row(i);
                let base = i * (n_h + n_l);
                for w in 0..n_h + n_l {
                    let col = window_cols[base + w] as usize;
                    let scale = if w < n_h { high_scale } else { low_scale };
                    kernels::axpy(&mut dv_data[col * d..(col + 1) * d], scale, dq_row);
                }
            }
        }
        grads.accumulate_sparse(params.v, &window_items, &dv);
    }

    loss_sum * batch_scale as f64
}

/// The legacy per-instance loop with an explicit `batch_scale` so it can
/// serve as a block of a larger batch. Returns the contribution to the
/// batch mean loss (`Σ instance losses · batch_scale`).
fn reference_into(
    params: &HamParams,
    instances: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    grads: &mut GradStore,
) -> f64 {
    let u_mat = params.store.value(params.u);
    let v_mat = params.store.value(params.v);
    let w_mat = params.store.value(params.w);
    let d = config.d;
    let is_max = config.pooling == Pooling::Max;

    let mut total_loss = 0.0f64;

    // Scratch buffers reused across every instance and pair: the query `q`,
    // the accumulated ∂L/∂q, the pooled low-order window, the max-pooling
    // arg-max positions and a row buffer for routing max-pooling gradients.
    // No per-pair heap allocation happens below — W-row gradients flow
    // through `GradStore::accumulate_scaled_row` straight from `q`.
    let mut q = vec![0.0f32; d];
    let mut dq = vec![0.0f32; d];
    let mut low_pooled = vec![0.0f32; d];
    let mut row_scratch = vec![0.0f32; d];
    let mut argmax_high = vec![0usize; if is_max { d } else { 0 }];
    let mut argmax_low = vec![0usize; if is_max { d } else { 0 }];

    for instance in instances {
        pool_window_into(v_mat, &instance.input, config.pooling, &mut q, &mut argmax_high);
        if !instance.low.is_empty() {
            pool_window_into(v_mat, &instance.low, config.pooling, &mut low_pooled, &mut argmax_low);
            for (qi, oi) in q.iter_mut().zip(&low_pooled) {
                *qi += oi;
            }
        }
        if config.use_user_term {
            for (qi, ui) in q.iter_mut().zip(u_mat.row(instance.user)) {
                *qi += ui;
            }
        }

        let pair_scale = batch_scale / instance.targets.len() as f32;
        dq.fill(0.0);
        let mut instance_loss = 0.0f32;

        for (&pos, &neg) in instance.targets.iter().zip(&instance.negatives) {
            let w_pos = w_mat.row(pos);
            let w_neg = w_mat.row(neg);
            let x = dot(&q, w_pos) - dot(&q, w_neg);
            instance_loss += -log_sigmoid(x) / instance.targets.len() as f32;
            let g = (sigmoid_scalar(x) - 1.0) * pair_scale;

            // ∂L/∂w_pos = g·q and ∂L/∂w_neg = −g·q, accumulated in place.
            grads.accumulate_scaled_row(params.w, pos, &q, g);
            grads.accumulate_scaled_row(params.w, neg, &q, -g);

            // ∂L/∂q accumulated across the n_p pairs
            for c in 0..d {
                dq[c] += g * (w_pos[c] - w_neg[c]);
            }
        }
        total_loss += instance_loss as f64;

        // Route ∂L/∂q to the user embedding.
        if config.use_user_term {
            grads.accumulate_scaled_row(params.u, instance.user, &dq, 1.0);
        }

        // Route ∂L/∂q through the pooling of the high-order window …
        route_pooling_gradient(grads, params, &instance.input, &argmax_high, &dq, config.pooling, &mut row_scratch);
        // … and of the low-order window.
        if !instance.low.is_empty() {
            route_pooling_gradient(grads, params, &instance.low, &argmax_low, &dq, config.pooling, &mut row_scratch);
        }
    }

    total_loss * batch_scale as f64
}

/// The length-`d` slice of a per-instance arg-max buffer (empty when max
/// pooling is not in use, so the mean-pooling path carries no buffer).
fn argmax_slice(buf: &mut [usize], instance: usize, d: usize) -> &mut [usize] {
    if buf.is_empty() {
        &mut []
    } else {
        &mut buf[instance * d..(instance + 1) * d]
    }
}

/// Pools the embeddings of `window` straight into `out` (no gathered-matrix
/// temporary): sum-then-scale for mean pooling — the exact accumulation
/// order of `mean_pool_rows` — or a strict-greater max with first-wins ties,
/// recording per-dimension arg-max window positions into `argmax`.
fn pool_window_into(v_mat: &Matrix, window: &[usize], pooling: Pooling, out: &mut [f32], argmax: &mut [usize]) {
    match pooling {
        Pooling::Mean => {
            out.fill(0.0);
            for &item in window {
                for (o, v) in out.iter_mut().zip(v_mat.row(item)) {
                    *o += v;
                }
            }
            let inv = 1.0 / window.len() as f32;
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
        Pooling::Max => {
            out.copy_from_slice(v_mat.row(window[0]));
            argmax.fill(0);
            for (position, &item) in window.iter().enumerate().skip(1) {
                for (c, &v) in v_mat.row(item).iter().enumerate() {
                    if v > out[c] {
                        out[c] = v;
                        argmax[c] = position;
                    }
                }
            }
        }
    }
}

/// Distributes the pooled-vector gradient `dq` back onto the item embeddings
/// of `window`, reusing `row_scratch` (length `d`) instead of allocating.
fn route_pooling_gradient(
    grads: &mut GradStore,
    params: &HamParams,
    window: &[usize],
    argmax: &[usize],
    dq: &[f32],
    pooling: Pooling,
    row_scratch: &mut [f32],
) {
    match pooling {
        Pooling::Mean => {
            // Every window item receives dq / n; the scale folds into the
            // accumulate call, so no scaled copy of dq is materialised.
            let scale = 1.0 / window.len() as f32;
            for &item in window {
                grads.accumulate_scaled_row(params.v, item, dq, scale);
            }
        }
        Pooling::Max => {
            // Each output dimension receives its gradient only at the window
            // position that attained the maximum. Group dimensions by winning
            // position so each distinct winner gets one accumulate call.
            for (winner, &item) in window.iter().enumerate() {
                let mut any = false;
                row_scratch.fill(0.0);
                for (c, &w) in argmax.iter().enumerate() {
                    if w == winner && dq[c] != 0.0 {
                        row_scratch[c] = dq[c];
                        any = true;
                    }
                }
                if any {
                    grads.accumulate_scaled_row(params.v, item, row_scratch, 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant};
    use crate::model::HamModel;
    use crate::trainer::{autograd_ref, HamParams};

    fn setup(variant: HamVariant, pooling_dims: (usize, usize, usize, usize)) -> (HamParams, HamConfig) {
        let (d, n_h, n_l, n_p) = pooling_dims;
        let config = HamConfig::for_variant(variant).with_dimensions(d, n_h, n_l, n_p, 1);
        let model = HamModel::new(4, 12, config, 17);
        (HamParams::from_model(&model), config)
    }

    fn example_batch() -> Vec<PreparedInstance> {
        vec![
            PreparedInstance {
                user: 0,
                input: vec![1, 2, 3, 4],
                low: vec![3, 4],
                targets: vec![5, 6],
                negatives: vec![7, 8],
            },
            PreparedInstance {
                user: 2,
                input: vec![9, 1, 0, 2],
                low: vec![0, 2],
                targets: vec![3, 10],
                negatives: vec![11, 4],
            },
            PreparedInstance {
                user: 3,
                input: vec![6, 6, 7, 8],
                low: vec![7, 8],
                targets: vec![9, 0],
                negatives: vec![1, 2],
            },
        ]
    }

    /// A larger uniform batch (wraps the example instances with shifted ids)
    /// spanning more than one GEMM tile.
    fn large_batch() -> Vec<PreparedInstance> {
        batch_of_reps(14)
    }

    /// A batch spanning more than one gradient chunk (> MANUAL_BLOCK).
    fn huge_batch() -> Vec<PreparedInstance> {
        batch_of_reps(100)
    }

    fn batch_of_reps(reps: usize) -> Vec<PreparedInstance> {
        let mut batch = Vec::new();
        for rep in 0..reps {
            for base in example_batch() {
                let shift = |items: &[usize]| items.iter().map(|&x| (x + rep) % 12).collect::<Vec<_>>();
                batch.push(PreparedInstance {
                    user: (base.user + rep) % 4,
                    input: shift(&base.input),
                    low: shift(&base.low),
                    targets: shift(&base.targets),
                    negatives: shift(&base.negatives),
                });
            }
        }
        batch
    }

    fn max_param_diff(a: &GradStore, b: &GradStore, params: &HamParams) -> f32 {
        let mut max_diff = 0.0f32;
        for id in [params.u, params.v, params.w] {
            let da = a.to_dense(id, params.store.value(id));
            let db = b.to_dense(id, params.store.value(id));
            for (x, y) in da.as_slice().iter().zip(db.as_slice()) {
                max_diff = max_diff.max((x - y).abs());
            }
        }
        max_diff
    }

    #[test]
    fn manual_matches_autograd_for_mean_pooling() {
        let (params, config) = setup(HamVariant::HamM, (8, 4, 2, 2));
        let batch = example_batch();
        let (manual_grads, manual_loss) = batch_gradients(&params, &batch, &config);
        let (auto_grads, auto_loss) = autograd_ref::batch_gradients(&params, &batch, &config);
        assert!((manual_loss - auto_loss).abs() < 1e-5, "loss mismatch: {manual_loss} vs {auto_loss}");
        let diff = max_param_diff(&manual_grads, &auto_grads, &params);
        assert!(diff < 1e-5, "gradient mismatch between manual and autograd paths: {diff}");
    }

    #[test]
    fn manual_matches_autograd_for_max_pooling() {
        let (params, config) = setup(HamVariant::HamX, (8, 4, 2, 2));
        let batch = example_batch();
        let (manual_grads, _) = batch_gradients(&params, &batch, &config);
        let (auto_grads, _) = autograd_ref::batch_gradients(&params, &batch, &config);
        let diff = max_param_diff(&manual_grads, &auto_grads, &params);
        assert!(diff < 1e-5, "max-pooling gradient mismatch: {diff}");
    }

    #[test]
    fn manual_matches_autograd_beyond_one_gemm_block() {
        for variant in [HamVariant::HamM, HamVariant::HamX] {
            let (params, config) = setup(variant, (8, 4, 2, 2));
            let batch = large_batch();
            assert!(batch.len() > GEMM_TILE, "batch must span multiple GEMM tiles");
            let (manual_grads, manual_loss) = batch_gradients(&params, &batch, &config);
            let (auto_grads, auto_loss) = autograd_ref::batch_gradients(&params, &batch, &config);
            assert!((manual_loss - auto_loss).abs() < 1e-5, "{variant:?} loss: {manual_loss} vs {auto_loss}");
            let diff = max_param_diff(&manual_grads, &auto_grads, &params);
            assert!(diff < 1e-5, "{variant:?} manual/autograd mismatch at batch > 1 block: {diff}");
        }
    }

    #[test]
    fn gemm_path_matches_reference_path() {
        for variant in [HamVariant::HamM, HamVariant::HamX, HamVariant::HamSMNoUser] {
            let (params, config) = setup(variant, (8, 4, 2, 2));
            let config = HamConfig { synergy_order: 1, ..config };
            for batch in [example_batch(), large_batch()] {
                let (fast, fast_loss) = batch_gradients(&params, &batch, &config);
                let (reference, ref_loss) = batch_gradients_reference(&params, &batch, &config);
                assert!((fast_loss - ref_loss).abs() < 1e-5, "{variant:?} loss: {fast_loss} vs {ref_loss}");
                let diff = max_param_diff(&fast, &reference, &params);
                assert!(diff < 1e-5, "{variant:?} GEMM vs reference gradients diverged: {diff}");
            }
        }
    }

    #[test]
    fn single_instance_batch_bit_matches_the_reference_path() {
        let (params, config) = setup(HamVariant::HamM, (8, 4, 2, 2));
        let batch = vec![example_batch().remove(1)];
        let (fast, fast_loss) = batch_gradients(&params, &batch, &config);
        let (reference, ref_loss) = batch_gradients_reference(&params, &batch, &config);
        assert_eq!(fast_loss.to_bits(), ref_loss.to_bits());
        for id in [params.u, params.v, params.w] {
            let a = fast.to_dense(id, params.store.value(id));
            let b = reference.to_dense(id, params.store.value(id));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "batch-of-1 gradients must be bit-identical");
            }
        }
    }

    #[test]
    fn block_gradients_merge_to_the_sequential_result() {
        let (params, config) = setup(HamVariant::HamM, (8, 4, 2, 2));
        let batch = huge_batch();
        assert!(batch.len() > MANUAL_BLOCK, "batch must span multiple gradient chunks");
        let batch_scale = 1.0 / batch.len() as f32;
        let (sequential, seq_loss) = batch_gradients(&params, &batch, &config);
        let mut merged = GradStore::new();
        let mut loss = 0.0f64;
        for block in batch.chunks(MANUAL_BLOCK) {
            let (g, l) = block_gradients(&params, block, &config, batch_scale);
            merged.merge(g);
            loss += l;
        }
        assert_eq!((loss as f32).to_bits(), seq_loss.to_bits());
        for id in [params.u, params.v, params.w] {
            let a = sequential.to_dense(id, params.store.value(id));
            let b = merged.to_dense(id, params.store.value(id));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "block merge must be bit-identical to sequential blocks");
            }
        }
    }

    #[test]
    fn ablated_user_term_receives_no_gradient() {
        let (params, config) = setup(HamVariant::HamSMNoUser, (8, 4, 2, 2));
        // strip synergies so the manual path applies
        let config = HamConfig { synergy_order: 1, ..config };
        let batch = example_batch();
        let (grads, _) = batch_gradients(&params, &batch, &config);
        assert!(!grads.contains(params.u), "user embedding must not receive gradients when ablated");
        assert!(grads.contains(params.v) && grads.contains(params.w));
    }

    #[test]
    fn loss_is_positive_and_finite() {
        let (params, config) = setup(HamVariant::HamM, (8, 4, 2, 2));
        let (_, loss) = batch_gradients(&params, &example_batch(), &config);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    #[should_panic(expected = "synergy_order == 1")]
    fn synergy_config_is_rejected() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let model = HamModel::new(2, 10, config, 1);
        let params = HamParams::from_model(&model);
        let _ = batch_gradients(&params, &example_batch(), &config);
    }
}
