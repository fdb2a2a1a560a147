//! Analytic gradients of the BPR objective for every HAM variant.
//!
//! For one training pair (positive target `j`, sampled negative `k`) with
//! query vector `q = u_i + s + o` and margin `x = q·w_j − q·w_k`, the BPR loss
//! is `softplus(−x)` and its gradients are
//!
//! ```text
//! ∂L/∂w_j =  g·q        ∂L/∂w_k = −g·q        with g = σ(x) − 1
//! ∂L/∂q   =  g·(w_j − w_k)
//! ```
//!
//! `∂L/∂q` is then routed to the user embedding, through the pooling
//! operator to the low-order window (`1/n_l` per window item for mean
//! pooling; to the per-dimension arg-max item for max pooling), and through
//! the latent cross `s = h + Σ_p c^(p) ∘ h` (Eq. 6) to the high-order window.
//! With `r_m = S − v_m` and `T_p = Σ_j v_j ∘ r_j^(p−2)` (so `T_2 = S` and
//! `T_p = n·c^(p−1)`), the closed form of Eq. 5 differentiates to
//!
//! ```text
//! ∂L/∂h   = dq ∘ (1 + Σ_p c^(p))                 (then through the pooling)
//! ∂L/∂v_m += Σ_p (dc/n) ∘ [r_m^(p−1) + (p−1)(T_p − v_m ∘ r_m^(p−2))]
//! ```
//!
//! with `dc = dq ∘ h` — at the paper's default `p = 2` simply
//! `(2/n) dc ∘ (S − v_m)` per window slot. The forward pass evaluates `s`
//! through `WindowAssociation`, the statement of Eq. 5–6 that
//! `HamModel::association_vector` evaluates too, so the trainer's query is
//! the served query bit for bit.
//!
//! ## Blocked path
//!
//! `block_gradients_into` takes `MANUAL_BLOCK` instances at a time. It
//! gives the block's distinct candidate items and distinct window items one
//! row each in two dense per-block gradient matrices (a `BlockRows`), then
//! makes one pass per instance: build `q`, score each pair with two dots,
//! fold `±g·q` into the pair's two candidate rows and `g·(w_j − w_k)` into
//! `∂L/∂q` with four [`axpy`](ham_tensor::kernels::axpy) calls, and write the
//! window gradients straight into the block's coalesced `∂L/∂V` rows. Max
//! pooling's per-winner routes are summed in a sparse store of their own and
//! folded into the block's `∂L/∂V` rows after the pass, so a row's block sum
//! is (its routes) + (its dense sum). Only the user term goes to the sparse
//! `GradStore`. Later blocks of a batch merge into block 0's rows in block
//! order (`merge_block_rows`), and Adam reads the batch's `W` and `V` rows
//! where they were summed ([`ham_autograd::Adam::step_with_rows`]): no row
//! is copied into a hashed store on the way. A block (or batch) of **one**
//! instance takes the per-instance reference loop (`reference_into`: scalar
//! accumulation into the sparse store) instead, so `batch_size = 1` training
//! is bit-identical to `force_reference` training; inside a larger batch,
//! that block's `W` and `V` rows then move to its row sets as they are.
//!
//! The pass is software-pipelined: before instance `i` runs, the `V` rows of
//! instance `i + 2`'s window, its `W` rows and its `U` row are prefetched
//! ([`ham_tensor::prefetch`]), so the random row reads of the next instances
//! overlap the arithmetic of this one. A prefetch changes no value.
//!
//! Rows are deduplicated through a stamped table: a dense `item → row` map
//! holding `u32::MAX` for every item, as long as the item tables (it grows
//! with the catalogue). Each draw of the block looks its item up, a new
//! item takes the next row (first-seen order), and afterwards only the
//! entries the block touched are reset — no sort, no hashing, a cost linear
//! in the block's draws. The row order enters no sum: every row accumulates
//! its contributions in instance order whatever its position, the merges
//! add a later block's row to the earlier sum (`SparseGrad::merge`'s sums in
//! its order), and the optimizer updates each row on its own.
//!
//! Every buffer of a block — the table, the per-draw row maps, the route
//! store, the instance pass and the row scratch — lives in a
//! `BlockWorkspace` the trainer keeps for a whole run, one per lane, and
//! every block's rows in a `BlockRows` it keeps beside them (flat
//! `Vec<f32>`s that only grow, to the bound of the block's shape). After the
//! largest block has run once, a block allocates nothing.
//!
//! These are the trainer's only gradients. The `ham-autograd` tape, one
//! subgraph per instance (`autograd_ref`, compiled for tests only), is the
//! oracle they are tested against, on every variant and synergy order.

use super::{HamParams, PreparedInstance};
use crate::config::HamConfig;
use crate::synergy::{pool_window_into, WindowAssociation};
use ham_autograd::{GradStore, RowSet, SparseGrad};
use ham_tensor::kernels;
use ham_tensor::matrix::dot;
use ham_tensor::ops::{log_sigmoid, sigmoid_scalar};
use ham_tensor::{prefetch, Matrix, Pooling};

/// Marks an item with no row in the block being deduplicated.
const NO_ROW: u32 = u32::MAX;

/// Instances ahead of the one being run whose `U`, `V` and `W` rows are
/// prefetched. One instance's pass (≈ 1 µs at d = 32) already covers a
/// miss; two keep the hint early when a pass runs short. A scratch sweep of
/// 1, 2 and 4 (3 epochs of HAMs_m on the ML-1M profile, 2-vCPU AVX-512
/// host) read all three within run-to-run noise.
const INSTANCES_AHEAD: usize = 2;

/// The buffers one lane of the trainer reuses from block to block and batch
/// to batch (see the module docs). Built for one `HamConfig`.
pub(crate) struct BlockWorkspace {
    /// `item → row` of the rows being deduplicated, [`NO_ROW`] elsewhere.
    row_of_item: Vec<u32>,
    /// Row in the block's `W` rows of each pair slot (`2p` positive,
    /// `2p + 1` negative).
    pair_rows: Vec<u32>,
    /// Row in the block's `V` rows of each dense window slot.
    window_rows: Vec<u32>,
    /// Max pooling's per-winner `∂L/∂V` rows of the block, summed apart
    /// from the dense window rows and folded into them after the pass.
    routes: SparseGrad,
    /// A one-instance block's gradients from the reference loop, before its
    /// `W` and `V` rows move to the block's row sets.
    single: GradStore,
    pass: InstancePass,
    row_scratch: Vec<f32>,
}

impl BlockWorkspace {
    pub(crate) fn new(config: &HamConfig) -> Self {
        Self {
            row_of_item: Vec::new(),
            pair_rows: Vec::new(),
            window_rows: Vec::new(),
            routes: SparseGrad::new(config.d),
            single: GradStore::new(),
            pass: InstancePass::new(config),
            row_scratch: vec![0.0; config.d],
        }
    }

    /// Grows the `item → row` table to cover both item tables of `params`.
    fn cover_tables(&mut self, params: &HamParams) {
        let rows = params.store.value(params.v).rows().max(params.store.value(params.w).rows());
        if self.row_of_item.len() < rows {
            // ham-lint: allow(alloc, "grows with the item tables only; reset entry by entry after every use")
            self.row_of_item.resize(rows, NO_ROW);
        }
    }
}

/// One table's coalesced gradient rows: `values[r * d..][..d]` is the
/// gradient of `items[r]`, so `values` always holds `items.len()` rows.
#[derive(Debug, Default)]
pub(crate) struct GradRows {
    items: Vec<usize>,
    values: Vec<f32>,
}

impl GradRows {
    fn clear(&mut self) {
        self.items.clear();
        self.values.clear();
    }

    /// Sets `values` to `items.len()` zero rows of `d`, with room for `bound`
    /// rows: a buffer that has held `bound` rows once allocates no more.
    fn zero_values(&mut self, d: usize, bound: usize) {
        self.values.clear();
        self.values.reserve(bound.max(self.items.len()) * d);
        self.values.resize(self.items.len() * d, 0.0);
    }
}

/// The `∂L/∂W` and `∂L/∂V` rows of one block — of a whole batch once the
/// later blocks have merged into block 0's — summed in place for Adam.
#[derive(Debug, Default)]
pub(crate) struct BlockRows {
    w: GradRows,
    v: GradRows,
}

impl BlockRows {
    pub(crate) fn clear(&mut self) {
        self.w.clear();
        self.v.clear();
    }

    /// The two tables' rows as Adam reads them.
    pub(crate) fn row_sets(&self, params: &HamParams) -> [RowSet<'_>; 2] {
        [
            RowSet { id: params.w, rows: &self.w.items, values: &self.w.values },
            RowSet { id: params.v, rows: &self.v.items, values: &self.v.values },
        ]
    }

    /// Adds these rows into `grads`, as a store holding a whole batch's
    /// gradients would hold them (for tests comparing gradients).
    #[cfg(test)]
    pub(crate) fn fold_into(&self, params: &HamParams, grads: &mut GradStore) {
        let d = params.store.value(params.w).cols();
        grads.accumulate_sparse_rows(params.w, &self.w.items, &self.w.values, d);
        grads.accumulate_sparse_rows(params.v, &self.v.items, &self.v.values, d);
    }
}

/// Folds row sets into `into`, set by set and row by row: a row `into`
/// already holds gains the set's row (`into += row`), a new row is appended
/// as a copy — `SparseGrad::merge`'s sums in its order. Reserves room for
/// `bound` rows first. `row_of_item` must be [`NO_ROW`] for every item on
/// entry; it is again on return.
fn merge_rows<'a>(
    row_of_item: &mut [u32],
    into: &mut GradRows,
    sets: impl Iterator<Item = (&'a [usize], &'a [f32])>,
    d: usize,
    bound: usize,
) {
    let room = bound.saturating_sub(into.items.len());
    into.items.reserve(room);
    into.values.reserve(room * d);
    for (row, &item) in into.items.iter().enumerate() {
        row_of_item[item] = row as u32;
    }
    for (items, values) in sets {
        for (&item, grad) in items.iter().zip(values.chunks_exact(d)) {
            let row = &mut row_of_item[item];
            if *row == NO_ROW {
                *row = into.items.len() as u32;
                into.items.push(item);
                into.values.extend_from_slice(grad);
            } else {
                for (e, g) in into.values[*row as usize * d..][..d].iter_mut().zip(grad) {
                    *e += g;
                }
            }
        }
    }
    for &item in into.items.iter() {
        row_of_item[item] = NO_ROW;
    }
}

/// Upper bounds on the distinct `W` and `V` rows `instances` instances of
/// `config`'s shape can touch, each capped at its table's size.
fn row_bounds(params: &HamParams, config: &HamConfig, instances: usize) -> (usize, usize) {
    let rows = |id| params.store.value(id).rows();
    ((2 * instances * config.n_p).min(rows(params.w)), (instances * (config.n_h + config.n_l)).min(rows(params.v)))
}

/// Merges the later blocks' rows of a batch into block 0's, in block order,
/// through `ws`'s `item → row` table. `batch_len` bounds the merged rows.
pub(crate) fn merge_block_rows(
    ws: &mut BlockWorkspace,
    params: &HamParams,
    config: &HamConfig,
    batch_len: usize,
    batch: &mut BlockRows,
    later: &[BlockRows],
) {
    if later.is_empty() {
        return;
    }
    ws.cover_tables(params);
    let (w_bound, v_bound) = row_bounds(params, config, batch_len);
    let w_sets = later.iter().map(|rows| (&rows.w.items[..], &rows.w.values[..]));
    merge_rows(&mut ws.row_of_item, &mut batch.w, w_sets, config.d, w_bound);
    let v_sets = later.iter().map(|rows| (&rows.v.items[..], &rows.v.values[..]));
    merge_rows(&mut ws.row_of_item, &mut batch.v, v_sets, config.d, v_bound);
}

/// Gives each distinct item of the `count` `draws` one row, in first-seen
/// order: `rows[slot]` is draw `slot`'s row and `items[row]` its item.
/// `row_of_item` must be [`NO_ROW`] for every item on entry; it is again on
/// return, since only the entries of `items` are reset.
// ham-lint: hot-path
fn stamp_rows(
    row_of_item: &mut [u32],
    draws: impl Iterator<Item = usize>,
    count: usize,
    rows: &mut Vec<u32>,
    items: &mut Vec<usize>,
) {
    rows.clear();
    items.clear();
    // Room for the worst case (every draw distinct, up to the table size),
    // so the buffers stop growing at the first block of a given shape.
    rows.reserve(count);
    items.reserve(count.min(row_of_item.len()));
    for item in draws {
        let row = &mut row_of_item[item];
        if *row == NO_ROW {
            *row = items.len() as u32;
            items.push(item);
        }
        rows.push(*row);
    }
    for &item in items.iter() {
        row_of_item[item] = NO_ROW;
    }
}

/// Row `row` of a flat matrix of `d`-wide rows.
#[inline]
fn row_mut(matrix: &mut [f32], row: u32, d: usize) -> &mut [f32] {
    &mut matrix[row as usize * d..][..d]
}

/// Makes room in `grads` for every row `instances` sampled instances of
/// `config`'s shape can touch (each table capped at its size), so filling
/// it allocates nothing once its buffers have grown to that bound.
pub(crate) fn reserve_rows(params: &HamParams, config: &HamConfig, instances: usize, grads: &mut GradStore) {
    reserve_user_rows(params, config, instances, grads);
    let (w_bound, v_bound) = row_bounds(params, config, instances);
    grads.reserve_rows(params.v, config.d, v_bound);
    grads.reserve_rows(params.w, config.d, w_bound);
}

/// [`reserve_rows`] for the user table alone: all a pair block writes into
/// its store.
fn reserve_user_rows(params: &HamParams, config: &HamConfig, instances: usize, grads: &mut GradStore) {
    if config.use_user_term {
        grads.reserve_rows(params.u, config.d, instances.min(params.store.value(params.u).rows()));
    }
}

/// Gradients of one uniform block of a larger batch: the user term into
/// `grads`, the `W` and `V` rows into `rows` (the trainer computes blocks
/// inline or in parallel and merges them in block order). `batch_scale` is
/// `1 / total batch size`, **not** `1 / block size`. Single-instance blocks
/// take the bit-exact reference loop.
///
/// Returns the block's contribution to the batch mean loss.
// ham-lint: hot-path
pub(crate) fn block_gradients_into(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    ws: &mut BlockWorkspace,
    grads: &mut GradStore,
    rows: &mut BlockRows,
) -> f64 {
    reserve_user_rows(params, config, block.len(), grads);
    if block.len() > 1 {
        return pair_block_into(params, block, config, batch_scale, ws, grads, rows);
    }
    // The reference loop writes every table into a store: its user row goes
    // on to `grads`, its `W` and `V` rows become the block's row sets as
    // they are.
    let mut single = std::mem::take(&mut ws.single);
    single.clear();
    reserve_rows(params, config, 1, &mut single);
    let loss = reference_into(params, block, config, batch_scale, ws, &mut single);
    rows.clear();
    for (table, id) in [(&mut rows.w, params.w), (&mut rows.v, params.v)] {
        if let Some(sparse) = single.sparse(id) {
            table.items.extend_from_slice(sparse.row_ids());
            table.values.extend_from_slice(sparse.values());
        }
    }
    if let Some(user) = single.sparse(params.u) {
        grads.accumulate_sparse_rows(params.u, user.row_ids(), user.values(), config.d);
    }
    ws.single = single;
    loss
}

/// Starts loading the rows `instance`'s pass reads — its window's `V` rows,
/// its targets' and negatives' `W` rows and its `U` row — into the cache.
fn prefetch_instance_rows(
    u_mat: &Matrix,
    v_mat: &Matrix,
    w_mat: &Matrix,
    config: &HamConfig,
    instance: &PreparedInstance,
) {
    // The low-order window is the input's suffix, so the input covers it.
    for &item in &instance.input {
        prefetch::slice(v_mat.row(item));
    }
    for (&pos, &neg) in instance.targets.iter().zip(&instance.negatives) {
        prefetch::slice(w_mat.row(pos));
        prefetch::slice(w_mat.row(neg));
    }
    if config.use_user_term {
        prefetch::slice(u_mat.row(instance.user));
    }
}

/// One instance's forward pass and the gradient buffers of its backward
/// pass, reused across the instances of a block.
struct InstancePass {
    high: WindowAssociation,
    low: Vec<f32>,
    low_argmax: Vec<usize>,
    /// The query `q = s + o + u`.
    q: Vec<f32>,
    /// `∂L/∂q`.
    dq: Vec<f32>,
    /// `∂L/∂h`, the gradient at the pooled high-order window (with
    /// synergies; it is `∂L/∂q` itself without them).
    dh: Vec<f32>,
    /// `dc / n_h = (dq ∘ h) / n_h`, the factor every synergy term shares.
    dc: Vec<f32>,
}

impl InstancePass {
    fn new(config: &HamConfig) -> Self {
        let d = config.d;
        Self {
            high: WindowAssociation::new(d, config.pooling, config.synergy_order),
            low: vec![0.0; d],
            low_argmax: vec![0; if config.pooling == Pooling::Max { d } else { 0 }],
            q: vec![0.0; d],
            dq: vec![0.0; d],
            dh: vec![0.0; if config.uses_synergies() { d } else { 0 }],
            dc: vec![0.0; if config.uses_synergies() { d } else { 0 }],
        }
    }

    /// Builds `q` for `instance` in the expression order of
    /// `HamModel::query_vector` — the association `s`, then `+ o`, then
    /// `+ u` — and clears `∂L/∂q`.
    fn forward(&mut self, u_mat: &Matrix, v_mat: &Matrix, config: &HamConfig, instance: &PreparedInstance) {
        self.high.compute(v_mat, &instance.input);
        self.high.association_into(&mut self.q);
        if !instance.low.is_empty() {
            pool_window_into(v_mat, &instance.low, config.pooling, &mut self.low, &mut self.low_argmax);
            for (q, o) in self.q.iter_mut().zip(&self.low) {
                *q += o;
            }
        }
        if config.use_user_term {
            for (q, u) in self.q.iter_mut().zip(u_mat.row(instance.user)) {
                *q += u;
            }
        }
        self.dq.fill(0.0);
    }

    /// Eq. 6 backward from the accumulated `∂L/∂q`: `∂L/∂h` and the shared
    /// synergy factor `dc / n_h` (nothing to do without synergies).
    fn latent_cross_backward(&mut self, n_h: usize) {
        if self.high.order() < 2 {
            return;
        }
        self.dh.copy_from_slice(&self.dq);
        for c in self.high.synergies.chunks_exact(self.dq.len()) {
            for ((dh, &dq), &c) in self.dh.iter_mut().zip(&self.dq).zip(c) {
                *dh += dq * c;
            }
        }
        let inv = 1.0 / n_h as f32;
        for ((dc, &dq), &h) in self.dc.iter_mut().zip(&self.dq).zip(&self.high.pooled) {
            *dc = dq * h * inv;
        }
    }

    /// `∂L/∂h`, after [`Self::latent_cross_backward`].
    fn dh(&self) -> &[f32] {
        if self.high.order() < 2 {
            &self.dq
        } else {
            &self.dh
        }
    }

    /// Adds the synergy terms' gradient at window slot `v_m` to `out`:
    /// `Σ_p (dc/n) ∘ [r^(p−1) + (p−1)(T_p − v_m ∘ r^(p−2))]`, `r = S − v_m`.
    fn add_synergy_gradient(&self, v_m: &[f32], n_h: usize, out: &mut [f32]) {
        let order = self.high.order();
        let total = &self.high.total;
        if order == 2 {
            // T_2 = S, so the bracket is r + r.
            for (((o, &dc), &s), &v) in out.iter_mut().zip(&self.dc).zip(total).zip(v_m) {
                let r = s - v;
                *o += dc * (r + r);
            }
            return;
        }
        let d = out.len();
        let n = n_h as f32;
        for c in 0..d {
            let (v, s) = (v_m[c], total[c]);
            let r = s - v;
            // `power` runs through r^(p−2).
            let mut power = 1.0f32;
            let mut bracket = 0.0f32;
            for p in 2..=order {
                let t_p = if p == 2 { s } else { n * self.high.synergies[(p - 3) * d + c] };
                bracket += power * r + (p - 1) as f32 * (t_p - v * power);
                power *= r;
            }
            out[c] += self.dc[c] * bracket;
        }
    }
}

/// The pair-direct blocked path: one forward/backward pass per instance,
/// scoring each pair with two dots and accumulating straight into the
/// block's dense gradient rows in `rows` (`∂L/∂W` over the block's unique
/// candidates, `∂L/∂V` over its unique window items, max pooling's routes
/// folded in after the pass) — duplicate rows coalesced, no hashed store.
// ham-lint: hot-path
fn pair_block_into(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    ws: &mut BlockWorkspace,
    grads: &mut GradStore,
    rows: &mut BlockRows,
) -> f64 {
    let u_mat = params.store.value(params.u);
    let v_mat = params.store.value(params.v);
    let w_mat = params.store.value(params.w);
    let d = config.d;
    let n_h = block[0].input.len();
    let n_l = block[0].low.len();
    let n_p = block[0].targets.len();
    let is_mean = config.pooling == Pooling::Mean;
    let synergies = config.uses_synergies();
    ws.cover_tables(params);
    let BlockWorkspace { row_of_item, pair_rows, window_rows, routes, pass, row_scratch, .. } = ws;
    let BlockRows { w: cand, v: window } = rows;
    let (w_bound, v_bound) = row_bounds(params, config, block.len());

    // Unique candidate items of the block: pair slot `2p` is pair `p`'s
    // positive, `2p + 1` its negative; `pair_rows[slot]` is the item's row in
    // the block's `∂L/∂W` rows.
    let candidates = block.iter().flat_map(|i| i.targets.iter().zip(&i.negatives).flat_map(|(&pos, &neg)| [pos, neg]));
    let pair_slots = 2 * block.len() * n_p;
    stamp_rows(row_of_item, candidates, pair_slots, pair_rows, &mut cand.items);

    // Window slots with a dense gradient row: every high-order slot under
    // mean pooling or synergies, every low-order slot under mean pooling.
    // Max pooling routes the pooled gradient to the per-dimension winners
    // through `routes`, so an item that wins nothing stays untouched (as on
    // the reference path).
    let high_slots = if is_mean || synergies { n_h } else { 0 };
    let low_slots = if is_mean { n_l } else { 0 };
    let slots = high_slots + low_slots;
    let windows = block.iter().flat_map(|i| i.input[..high_slots].iter().chain(&i.low[..low_slots]).copied());
    stamp_rows(row_of_item, windows, block.len() * slots, window_rows, &mut window.items);

    cand.zero_values(d, w_bound);
    window.zero_values(d, v_bound);
    routes.clear();
    let (dcand, dv) = (&mut cand.values[..], &mut window.values[..]);
    let pair_scale = batch_scale / n_p as f32;
    let high_scale = 1.0 / n_h as f32;
    let low_scale = if n_l > 0 { 1.0 / n_l as f32 } else { 0.0 };
    let mut loss_sum = 0.0f64;

    for (i, instance) in block.iter().enumerate() {
        if let Some(ahead) = block.get(i + INSTANCES_AHEAD) {
            prefetch_instance_rows(u_mat, v_mat, w_mat, config, ahead);
        }
        pass.forward(u_mat, v_mat, config, instance);
        let mut instance_loss = 0.0f32;
        for (t, (&pos, &neg)) in instance.targets.iter().zip(&instance.negatives).enumerate() {
            let (w_pos, w_neg) = (w_mat.row(pos), w_mat.row(neg));
            let x = dot(&pass.q, w_pos) - dot(&pass.q, w_neg);
            instance_loss += -log_sigmoid(x) / n_p as f32;
            let g = (sigmoid_scalar(x) - 1.0) * pair_scale;
            let pair = i * n_p + t;
            // ±g·q into the pair's two candidate rows, g·(w_pos − w_neg) into ∂L/∂q.
            kernels::axpy(row_mut(dcand, pair_rows[2 * pair], d), g, &pass.q);
            kernels::axpy(row_mut(dcand, pair_rows[2 * pair + 1], d), -g, &pass.q);
            kernels::axpy(&mut pass.dq, g, w_pos);
            kernels::axpy(&mut pass.dq, -g, w_neg);
        }
        loss_sum += instance_loss as f64;

        if config.use_user_term {
            grads.accumulate_scaled_row(params.u, instance.user, &pass.dq, 1.0);
        }
        pass.latent_cross_backward(n_h);
        let rows = &window_rows[i * slots..(i + 1) * slots];
        for (&row, &item) in rows.iter().zip(&instance.input[..high_slots]) {
            let row = row_mut(dv, row, d);
            if is_mean {
                kernels::axpy(row, high_scale, pass.dh());
            }
            if synergies {
                pass.add_synergy_gradient(v_mat.row(item), n_h, row);
            }
        }
        for &row in &rows[high_slots..] {
            kernels::axpy(row_mut(dv, row, d), low_scale, &pass.dq);
        }
        if !is_mean {
            let mut route = |item: usize, grad: &[f32], scale: f32| routes.add_scaled_row(item, grad, scale);
            route_pooling_gradient(
                &mut route,
                &instance.input,
                &pass.high.argmax,
                pass.dh(),
                config.pooling,
                row_scratch,
            );
            if n_l > 0 {
                route_pooling_gradient(
                    &mut route,
                    &instance.low,
                    &pass.low_argmax,
                    &pass.dq,
                    config.pooling,
                    row_scratch,
                );
            }
        }
    }

    if !routes.is_empty() {
        let routed = std::iter::once((routes.row_ids(), routes.values()));
        merge_rows(row_of_item, window, routed, d, v_bound);
    }
    loss_sum * batch_scale as f64
}

/// The per-instance reference loop: scalar [`dot`] scores and pair-by-pair
/// accumulation into the sparse store — the exact path a batch or block of
/// one instance takes. `batch_scale` is explicit so it can serve as a block
/// of a larger batch. Returns the contribution to the batch mean loss
/// (`Σ instance losses · batch_scale`).
pub(crate) fn reference_into(
    params: &HamParams,
    instances: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
    ws: &mut BlockWorkspace,
    grads: &mut GradStore,
) -> f64 {
    let u_mat = params.store.value(params.u);
    let v_mat = params.store.value(params.v);
    let w_mat = params.store.value(params.w);
    let BlockWorkspace { pass, row_scratch, .. } = ws;
    let mut total_loss = 0.0f64;

    for instance in instances {
        pass.forward(u_mat, v_mat, config, instance);
        let pair_scale = batch_scale / instance.targets.len() as f32;
        let mut instance_loss = 0.0f32;

        for (&pos, &neg) in instance.targets.iter().zip(&instance.negatives) {
            let w_pos = w_mat.row(pos);
            let w_neg = w_mat.row(neg);
            let x = dot(&pass.q, w_pos) - dot(&pass.q, w_neg);
            instance_loss += -log_sigmoid(x) / instance.targets.len() as f32;
            let g = (sigmoid_scalar(x) - 1.0) * pair_scale;

            // ∂L/∂w_pos = g·q and ∂L/∂w_neg = −g·q, accumulated in place.
            grads.accumulate_scaled_row(params.w, pos, &pass.q, g);
            grads.accumulate_scaled_row(params.w, neg, &pass.q, -g);

            // ∂L/∂q accumulated across the n_p pairs
            for ((dq, &p), &n) in pass.dq.iter_mut().zip(w_pos).zip(w_neg) {
                *dq += g * (p - n);
            }
        }
        total_loss += instance_loss as f64;

        // Route ∂L/∂q to the user embedding.
        if config.use_user_term {
            grads.accumulate_scaled_row(params.u, instance.user, &pass.dq, 1.0);
        }

        // Route ∂L/∂h through the pooling of the high-order window, then the
        // synergy terms to every window slot …
        pass.latent_cross_backward(instance.input.len());
        let mut route =
            |item: usize, grad: &[f32], scale: f32| grads.accumulate_scaled_row(params.v, item, grad, scale);
        route_pooling_gradient(&mut route, &instance.input, &pass.high.argmax, pass.dh(), config.pooling, row_scratch);
        if config.uses_synergies() {
            for &item in &instance.input {
                row_scratch.fill(0.0);
                pass.add_synergy_gradient(v_mat.row(item), instance.input.len(), row_scratch);
                route(item, row_scratch, 1.0);
            }
        }
        // … and ∂L/∂q through the pooling of the low-order window.
        if !instance.low.is_empty() {
            route_pooling_gradient(&mut route, &instance.low, &pass.low_argmax, &pass.dq, config.pooling, row_scratch);
        }
    }

    total_loss * batch_scale as f64
}

/// Distributes the pooled-vector gradient `dq` back onto the item embeddings
/// of `window`, reusing `row_scratch` (length `d`) instead of allocating:
/// `add(item, grad, scale)` receives `scale · grad` for `item`'s row.
fn route_pooling_gradient(
    add: &mut impl FnMut(usize, &[f32], f32),
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
                add(item, dq, scale);
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
                    add(item, row_scratch, 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant, TrainConfig};
    use crate::model::HamModel;
    use crate::trainer::{autograd_ref, fresh_batch_gradients, HamParams, MANUAL_BLOCK};
    use ham_autograd::gradcheck::check_gradient;
    use proptest::prelude::*;

    const VARIANTS: [HamVariant; 6] = [
        HamVariant::HamX,
        HamVariant::HamM,
        HamVariant::HamSX,
        HamVariant::HamSM,
        HamVariant::HamSMNoLowOrder,
        HamVariant::HamSMNoUser,
    ];

    /// The analytic path, as the trainer runs it.
    fn batch_gradients(params: &HamParams, batch: &[PreparedInstance], config: &HamConfig) -> (GradStore, f32) {
        fresh_batch_gradients(params, batch, config, &TrainConfig::default())
    }

    /// The tape oracle: one tape subgraph per instance.
    fn tape_gradients(params: &HamParams, batch: &[PreparedInstance], config: &HamConfig) -> (GradStore, f32) {
        autograd_ref::batch_gradients_reference(params, batch, config)
    }

    /// The per-instance reference loop over a whole batch, into a fresh
    /// store.
    fn batch_gradients_reference(
        params: &HamParams,
        batch: &[PreparedInstance],
        config: &HamConfig,
    ) -> (GradStore, f32) {
        let mut grads = GradStore::new();
        let batch_scale = 1.0 / batch.len() as f32;
        let loss = reference_into(params, batch, config, batch_scale, &mut BlockWorkspace::new(config), &mut grads);
        (grads, loss as f32)
    }

    /// One block's gradients into a fresh store and workspace, its rows
    /// folded into the store.
    fn block_gradients(
        params: &HamParams,
        block: &[PreparedInstance],
        config: &HamConfig,
        batch_scale: f32,
    ) -> (GradStore, f64) {
        let (mut grads, mut rows) = (GradStore::new(), BlockRows::default());
        let mut ws = BlockWorkspace::new(config);
        let loss = block_gradients_into(params, block, config, batch_scale, &mut ws, &mut grads, &mut rows);
        rows.fold_into(params, &mut grads);
        (grads, loss)
    }

    /// Bits of a packed dedup key reserved for the slot index; items use the
    /// remaining high bits, so keys sort by item first.
    const SLOT_BITS: u32 = 24;

    /// Packs an `(item, slot)` draw into one sortable `u64` key.
    fn dedup_key(item: usize, slot: u32) -> u64 {
        assert!(slot < (1 << SLOT_BITS), "dedup slot overflow");
        ((item as u64) << SLOT_BITS) | slot as u64
    }

    /// The sort-based dedup the stamped table replaced, kept as its
    /// reference: sorts the packed `(item, slot)` keys, gives one column per
    /// distinct item in ascending item order, records each slot's column in
    /// `col_of_slot` and returns the distinct items.
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

    fn setup(variant: HamVariant, order: usize) -> (HamParams, HamConfig) {
        let config = HamConfig::for_variant(variant).with_dimensions(8, 4, 2, 2, order);
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

    /// The example instances repeated `reps` times with shifted ids.
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

    /// `len` uniform instances drawn from `seed` (windows may repeat items;
    /// the low-order window is the input's suffix, as the sampler builds it).
    fn random_batch(
        len: usize,
        config: &HamConfig,
        num_users: usize,
        num_items: usize,
        seed: u64,
    ) -> Vec<PreparedInstance> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut draws = |count: usize, bound: usize| -> Vec<usize> {
            (0..count)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % bound as u64) as usize
                })
                .collect()
        };
        (0..len)
            .map(|_| {
                let input = draws(config.n_h, num_items);
                let low = input[config.n_h - config.n_l..].to_vec();
                let (targets, negatives) = (draws(config.n_p, num_items), draws(config.n_p, num_items));
                PreparedInstance { user: draws(1, num_users)[0], input, low, targets, negatives }
            })
            .collect()
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

    fn assert_bit_identical(a: &GradStore, b: &GradStore, params: &HamParams, what: &str) {
        for id in [params.u, params.v, params.w] {
            let x = a.to_dense(id, params.store.value(id));
            let y = b.to_dense(id, params.store.value(id));
            for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tape is the oracle: analytic loss and every parameter's
        /// gradient agree with it within 1e-5 on every variant, synergy
        /// order, pooling, window ablation and block shape (one instance,
        /// two, a partial block, and a block and a half past
        /// `MANUAL_BLOCK`).
        #[test]
        fn analytic_gradients_match_the_tape_oracle(
            variant_idx in 0usize..6,
            order in 1usize..5,
            pooling_idx in 0usize..2,
            n_l in 0usize..3,
            user_idx in 0usize..2,
            size_idx in 0usize..4,
            seed in 0u64..1_000,
        ) {
            let variant = VARIANTS[variant_idx];
            let mut config = HamConfig::for_variant(variant).with_dimensions(8, 4, n_l, 2, order);
            config.pooling = [Pooling::Mean, Pooling::Max][pooling_idx];
            config.use_user_term = user_idx == 1;
            let params = HamParams::from_model(&HamModel::new(5, 30, config, seed));
            let len = [1, 2, 37, MANUAL_BLOCK + 3][size_idx];
            let batch = random_batch(len, &config, 5, 30, seed);
            let (analytic, analytic_loss) = batch_gradients(&params, &batch, &config);
            let (tape, tape_loss) = tape_gradients(&params, &batch, &config);
            prop_assert!((analytic_loss - tape_loss).abs() <= 1e-5, "{config:?} b={len}: loss {analytic_loss} vs {tape_loss}");
            let diff = max_param_diff(&analytic, &tape, &params);
            prop_assert!(diff <= 1e-5, "{config:?} b={len}: gradients differ by {diff}");
            prop_assert!(analytic.contains(params.u) == config.use_user_term, "user-term gradients follow the ablation");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The stamped table against the sort-based dedup it replaced, on
        /// draws with repeats, a single distinct item and all-distinct items:
        /// both map every slot to its own item and find the same item set,
        /// and the table is all `NO_ROW` again afterwards, so consecutive
        /// blocks can share it.
        #[test]
        fn stamped_rows_match_the_sort_based_dedup(
            draws in proptest::collection::vec(0usize..40, 1..300),
            shape in 0usize..3,
            table_len in 0usize..3,
        ) {
            let draws: Vec<usize> = match shape {
                0 => draws,
                1 => vec![draws[0]; draws.len()],
                _ => (0..draws.len()).map(|slot| (draws[0] + slot) % 400).collect(),
            };
            let mut row_of_item = vec![NO_ROW; 400 + table_len];
            let (mut rows, mut items) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                stamp_rows(&mut row_of_item, draws.iter().copied(), draws.len(), &mut rows, &mut items);
                prop_assert!(row_of_item.iter().all(|&row| row == NO_ROW), "the table is reset after a block");
                let mut keyed: Vec<u64> = draws.iter().enumerate().map(|(slot, &item)| dedup_key(item, slot as u32)).collect();
                let mut sorted_cols = vec![0u32; draws.len()];
                let sorted_items = dedup_columns(&mut keyed, &mut sorted_cols);
                for (slot, &item) in draws.iter().enumerate() {
                    prop_assert_eq!(items[rows[slot] as usize], item);
                    prop_assert_eq!(sorted_items[sorted_cols[slot] as usize], item);
                }
                let mut stamped = items.clone();
                stamped.sort_unstable();
                prop_assert_eq!(&stamped, &sorted_items, "the same distinct items");
                prop_assert_eq!(items.first(), draws.first(), "rows in first-seen order");
            }
        }
    }

    /// Central finite differences of the analytic path's own loss confirm
    /// its order-3 synergy gradients, for both poolings.
    #[test]
    fn analytic_synergy_gradients_pass_finite_difference_check() {
        for variant in [HamVariant::HamSM, HamVariant::HamSX] {
            let config = HamConfig::for_variant(variant).with_dimensions(6, 4, 2, 2, 3);
            let mut params = HamParams::from_model(&HamModel::new(4, 12, config, 23));
            let batch = example_batch();
            let (grads, _) = batch_gradients(&params, &batch, &config);
            let ids = (params.u, params.v, params.w);
            for id in [params.u, params.v, params.w] {
                let analytic = grads.to_dense(id, params.store.value(id));
                let report = check_gradient(&mut params.store, id, &analytic, 24, 1e-3, |store| {
                    let p = HamParams { store: store.clone(), u: ids.0, v: ids.1, w: ids.2 };
                    batch_gradients(&p, &batch, &config).1
                });
                assert!(report.passes(2e-2), "{variant:?} {id:?}: finite-difference check failed: {report:?}");
            }
        }
    }

    /// The trainer's forward pass builds the served query bit for bit: one
    /// statement of Eq. 5–6 for training and inference.
    #[test]
    fn trainer_query_is_the_served_query_bit_for_bit() {
        for variant in VARIANTS {
            for order in 1..=4 {
                let mut config = HamConfig::for_variant(variant).with_dimensions(8, 4, 2, 2, order);
                if matches!(variant, HamVariant::HamSMNoLowOrder) {
                    config.n_l = 0;
                }
                let model = HamModel::new(4, 30, config, 5 + order as u64);
                let params = HamParams::from_model(&model);
                let mut pass = InstancePass::new(&config);
                for instance in random_batch(16, &config, 4, 30, order as u64) {
                    pass.forward(params.store.value(params.u), params.store.value(params.v), &config, &instance);
                    let served = model.query_vector(instance.user, &instance.input);
                    let trained: Vec<u32> = pass.q.iter().map(|x| x.to_bits()).collect();
                    let served: Vec<u32> = served.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(trained, served, "{variant:?} order {order}");
                }
            }
        }
    }

    #[test]
    fn block_path_matches_reference_path() {
        for variant in VARIANTS {
            let (params, config) = setup(variant, 2);
            for batch in [example_batch(), batch_of_reps(14), batch_of_reps(100)] {
                let (fast, fast_loss) = batch_gradients(&params, &batch, &config);
                let (reference, ref_loss) = batch_gradients_reference(&params, &batch, &config);
                assert!((fast_loss - ref_loss).abs() < 1e-5, "{variant:?} loss: {fast_loss} vs {ref_loss}");
                let diff = max_param_diff(&fast, &reference, &params);
                assert!(diff < 1e-5, "{variant:?} blocked vs reference gradients diverged: {diff}");
            }
        }
    }

    #[test]
    fn single_instance_batch_bit_matches_the_reference_path() {
        for variant in [HamVariant::HamM, HamVariant::HamSM, HamVariant::HamSX] {
            let (params, config) = setup(variant, if variant == HamVariant::HamM { 1 } else { 3 });
            let batch = vec![example_batch().remove(1)];
            let (fast, fast_loss) = batch_gradients(&params, &batch, &config);
            let (reference, ref_loss) = batch_gradients_reference(&params, &batch, &config);
            assert_eq!(fast_loss.to_bits(), ref_loss.to_bits());
            assert_bit_identical(&fast, &reference, &params, "batch-of-1 gradients must be bit-identical");
        }
    }

    #[test]
    fn block_gradients_merge_to_the_sequential_result() {
        let (params, config) = setup(HamVariant::HamSM, 2);
        let batch = batch_of_reps(100);
        assert!(batch.len() > MANUAL_BLOCK, "batch must span multiple gradient blocks");
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
        assert_bit_identical(&sequential, &merged, &params, "block merge must be bit-identical to sequential blocks");
    }

    #[test]
    fn ablated_user_term_receives_no_gradient() {
        let (params, config) = setup(HamVariant::HamSMNoUser, 2);
        let (grads, _) = batch_gradients(&params, &example_batch(), &config);
        assert!(!grads.contains(params.u), "user embedding must not receive gradients when ablated");
        assert!(grads.contains(params.v) && grads.contains(params.w));
    }

    #[test]
    fn loss_is_positive_and_finite() {
        let (params, config) = setup(HamVariant::HamM, 1);
        let (_, loss) = batch_gradients(&params, &example_batch(), &config);
        assert!(loss.is_finite() && loss > 0.0);
    }

    /// Synergy configurations train on the analytic path — no tape — and
    /// land on the oracle's gradients.
    #[test]
    fn synergy_config_is_trained_analytically() {
        let (params, config) = setup(HamVariant::HamSM, 2);
        assert!(config.uses_synergies());
        let batch = batch_of_reps(14);
        let (grads, loss) = block_gradients(&params, &batch, &config, 1.0 / batch.len() as f32);
        let (tape, tape_loss) = tape_gradients(&params, &batch, &config);
        assert!((loss as f32 - tape_loss).abs() < 1e-5, "loss: {loss} vs {tape_loss}");
        assert!(max_param_diff(&grads, &tape, &params) < 1e-5);
    }
}
