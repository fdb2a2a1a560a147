//! The BPR objective of HAM expressed on the `ham-autograd` tape.
//!
//! This is the reference trainer: it supports every HAM variant including the
//! synergy/latent-cross models (Eq. 5–6). Uniform mini-batches build **one
//! tape per block** of `TRAIN_BLOCK` instances — every window of the block
//! is gathered at once, pooled with the blocked pooling ops
//! ([`Graph::mean_pool_blocks`] / [`Graph::max_pool_blocks`]), and all
//! (positive, negative) pairs are scored through one `repeat_rows` +
//! `dot_rows` pair of nodes — so the tape length is independent of the batch
//! size instead of linear in it. A batch of one instance takes the exact
//! legacy per-instance graph (`batch_gradients_reference`), which also
//! remains the fallback for non-uniform batches and the target of the
//! finite-difference gradient checks.

use super::{uniform_shapes, HamParams, PreparedInstance, TRAIN_BLOCK};
use crate::config::HamConfig;
use ham_autograd::{GradStore, Graph, VarId};
use ham_tensor::Pooling;

/// Computes the gradients and the mean loss of one mini-batch, building one
/// batched tape per block of uniform instances.
pub(crate) fn batch_gradients(params: &HamParams, batch: &[PreparedInstance], config: &HamConfig) -> (GradStore, f32) {
    assert!(!batch.is_empty(), "batch_gradients: batch must not be empty");
    if batch.len() == 1 || !uniform_shapes(batch) {
        return batch_gradients_reference(params, batch, config);
    }
    let batch_scale = 1.0f32 / batch.len() as f32;
    let mut grads = GradStore::new();
    let mut loss = 0.0f64;
    for block in batch.chunks(TRAIN_BLOCK) {
        let (block_grads, block_loss) = block_gradients(params, block, config, batch_scale);
        grads.merge(block_grads);
        loss += block_loss;
    }
    (grads, loss as f32)
}

/// The legacy path: one per-instance subgraph per batch member, stacked and
/// averaged. Reference for the batched tape and the finite-difference checks.
pub(crate) fn batch_gradients_reference(
    params: &HamParams,
    batch: &[PreparedInstance],
    config: &HamConfig,
) -> (GradStore, f32) {
    assert!(!batch.is_empty(), "batch_gradients: batch must not be empty");
    let mut g = Graph::new();
    let mut instance_losses: Vec<VarId> = Vec::with_capacity(batch.len());

    for instance in batch {
        let loss = instance_loss(&mut g, params, instance, config);
        instance_losses.push(loss);
    }

    let stacked = g.concat_rows(&instance_losses);
    let batch_loss = g.mean_all(stacked);
    let loss_value = g.value(batch_loss).get(0, 0);
    (g.backward(batch_loss), loss_value)
}

/// Gradients of one uniform block of a larger batch on a single batched tape
/// (the threaded trainer computes blocks in parallel and merges them in
/// block order). `batch_scale` is `1 / total batch size`.
///
/// Returns the block's contribution to the batch mean loss.
pub(crate) fn block_gradients(
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
) -> (GradStore, f64) {
    let mut g = Graph::new();
    let loss = block_loss(&mut g, params, block, config, batch_scale);
    let value = g.value(loss).get(0, 0) as f64;
    (g.backward(loss), value)
}

/// Builds the whole block's loss on the tape: one gather per embedding role,
/// blocked pooling, and pair scores via `repeat_rows` + `dot_rows`. The node
/// count is constant in the block size.
fn block_loss(
    g: &mut Graph,
    params: &HamParams,
    block: &[PreparedInstance],
    config: &HamConfig,
    batch_scale: f32,
) -> VarId {
    let store = &params.store;
    let n_h = block[0].input.len();
    let n_l = block[0].low.len();
    let n_p = block[0].targets.len();

    // High-order association: pooled window embeddings (h), optionally
    // combined with the recursive synergies through the latent cross.
    let flat_inputs: Vec<usize> = block.iter().flat_map(|i| i.input.iter().copied()).collect();
    let rows = g.gather(store, params.v, &flat_inputs);
    let h = pool_blocks(g, rows, n_h, config.pooling);
    let mut assoc = h;
    if config.uses_synergies() {
        // S = Σ_k v_k ;  diff_j = S − v_j ;  c^(p) = mean_j(v_j ∘ diff_j^(p−1)),
        // per block of n_h window rows.
        let mean = g.mean_pool_blocks(rows, n_h);
        let total = g.scale(mean, n_h as f32);
        let repeated = g.repeat_rows(total, n_h);
        let neg_rows = g.neg(rows);
        let diff = g.add(neg_rows, repeated);
        let mut cur = rows;
        for _order in 2..=config.synergy_order {
            cur = g.hadamard(cur, diff);
            let c = g.mean_pool_blocks(cur, n_h);
            let cross = g.hadamard(c, h);
            assoc = g.add(assoc, cross);
        }
    }

    // Low-order association.
    let mut q = assoc;
    if n_l > 0 {
        let flat_lows: Vec<usize> = block.iter().flat_map(|i| i.low.iter().copied()).collect();
        let low_rows = g.gather(store, params.v, &flat_lows);
        let o = pool_blocks(g, low_rows, n_l, config.pooling);
        q = g.add(q, o);
    }

    // User general preference.
    if config.use_user_term {
        let users: Vec<usize> = block.iter().map(|i| i.user).collect();
        let u = g.gather(store, params.u, &users);
        q = g.add(q, u);
    }

    // BPR loss over all (positive, negative) pairs of the block: expand each
    // query row to its n_p pairs, score with row-wise dots.
    let flat_targets: Vec<usize> = block.iter().flat_map(|i| i.targets.iter().copied()).collect();
    let flat_negatives: Vec<usize> = block.iter().flat_map(|i| i.negatives.iter().copied()).collect();
    let w_pos = g.gather(store, params.w, &flat_targets);
    let w_neg = g.gather(store, params.w, &flat_negatives);
    let expanded = g.repeat_rows(q, n_p);
    let pos_scores = g.dot_rows(expanded, w_pos);
    let neg_scores = g.dot_rows(expanded, w_neg);
    let margin = g.sub(pos_scores, neg_scores);
    let neg_margin = g.neg(margin);
    let pairwise = g.softplus(neg_margin);
    let total = g.sum_all(pairwise);
    g.scale(total, batch_scale / n_p as f32)
}

/// Builds the loss of a single sliding-window instance on the tape and
/// returns its `1 x 1` node (the legacy per-instance subgraph).
fn instance_loss(g: &mut Graph, params: &HamParams, instance: &PreparedInstance, config: &HamConfig) -> VarId {
    let store = &params.store;

    // High-order association: pooled window embedding (h), optionally combined
    // with the recursive synergies through the latent cross (s).
    let rows = g.gather(store, params.v, &instance.input);
    let h = pool(g, rows, config.pooling);
    let mut assoc = h;
    if config.uses_synergies() {
        // S = Σ_k v_k ;  diff_j = S − v_j ;  c^(p) = mean_j(v_j ∘ diff_j^(p−1))
        let mean = g.mean_rows(rows);
        let total = g.scale(mean, instance.input.len() as f32);
        let neg_rows = g.neg(rows);
        let diff = g.add_row_broadcast(neg_rows, total);
        let mut cur = rows;
        for _order in 2..=config.synergy_order {
            cur = g.hadamard(cur, diff);
            let c = g.mean_rows(cur);
            let cross = g.hadamard(c, h);
            assoc = g.add(assoc, cross);
        }
    }

    // Low-order association.
    let mut q = assoc;
    if !instance.low.is_empty() {
        let low_rows = g.gather(store, params.v, &instance.low);
        let o = pool(g, low_rows, config.pooling);
        q = g.add(q, o);
    }

    // User general preference.
    if config.use_user_term {
        let u = g.gather(store, params.u, &[instance.user]);
        q = g.add(q, u);
    }

    // BPR loss over the n_p (positive, negative) pairs.
    let w_pos = g.gather(store, params.w, &instance.targets);
    let w_neg = g.gather(store, params.w, &instance.negatives);
    let pos_scores = g.matmul_transposed(q, w_pos);
    let neg_scores = g.matmul_transposed(q, w_neg);
    let margin = g.sub(pos_scores, neg_scores);
    let neg_margin = g.neg(margin);
    let pairwise = g.softplus(neg_margin);
    g.mean_all(pairwise)
}

fn pool(g: &mut Graph, rows: VarId, pooling: Pooling) -> VarId {
    match pooling {
        Pooling::Mean => g.mean_rows(rows),
        Pooling::Max => g.max_rows(rows),
    }
}

fn pool_blocks(g: &mut Graph, rows: VarId, block: usize, pooling: Pooling) -> VarId {
    match pooling {
        Pooling::Mean => g.mean_pool_blocks(rows, block),
        Pooling::Max => g.max_pool_blocks(rows, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant};
    use crate::model::HamModel;
    use crate::trainer::HamParams;
    use ham_autograd::gradcheck::check_gradient;

    fn setup(config: HamConfig) -> HamParams {
        let model = HamModel::new(3, 10, config, 23);
        HamParams::from_model(&model)
    }

    fn batch() -> Vec<PreparedInstance> {
        vec![
            PreparedInstance {
                user: 0,
                input: vec![1, 2, 3, 4],
                low: vec![3, 4],
                targets: vec![5, 6],
                negatives: vec![7, 8],
            },
            PreparedInstance {
                user: 1,
                input: vec![0, 2, 4, 6],
                low: vec![4, 6],
                targets: vec![8, 9],
                negatives: vec![1, 3],
            },
        ]
    }

    /// A uniform batch long enough to span more than one tape block.
    fn large_batch() -> Vec<PreparedInstance> {
        let mut out = Vec::new();
        for rep in 0..(TRAIN_BLOCK + 5) {
            for base in batch() {
                let shift = |items: &[usize]| items.iter().map(|&x| (x + rep) % 10).collect::<Vec<_>>();
                out.push(PreparedInstance {
                    user: (base.user + rep) % 3,
                    input: shift(&base.input),
                    low: shift(&base.low),
                    targets: shift(&base.targets),
                    negatives: shift(&base.negatives),
                });
            }
        }
        out
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
    fn synergy_model_gradients_pass_finite_difference_check() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(6, 4, 2, 2, 3);
        let mut params = setup(config);
        let instances = batch();

        let (grads, _) = batch_gradients(&params, &instances, &config);
        for id in [params.u, params.v, params.w] {
            let analytic = grads.to_dense(id, params.store.value(id));
            let ids = (params.u, params.v, params.w);
            let report = check_gradient(&mut params.store, id, &analytic, 18, 5e-3, |store| {
                let p = HamParams { store: store.clone(), u: ids.0, v: ids.1, w: ids.2 };
                let mut g = Graph::new();
                let losses: Vec<VarId> = instances.iter().map(|i| instance_loss(&mut g, &p, i, &config)).collect();
                let stacked = g.concat_rows(&losses);
                let l = g.mean_all(stacked);
                g.value(l).get(0, 0)
            });
            assert!(report.passes(2e-2), "finite-difference check failed: {report:?}");
        }
    }

    #[test]
    fn batched_tape_matches_per_instance_reference() {
        for (variant, order) in
            [(HamVariant::HamSM, 3), (HamVariant::HamSX, 2), (HamVariant::HamM, 1), (HamVariant::HamX, 1)]
        {
            let config = HamConfig::for_variant(variant).with_dimensions(6, 4, 2, 2, order);
            let params = setup(config);
            for instances in [batch(), large_batch()] {
                let (fast, fast_loss) = batch_gradients(&params, &instances, &config);
                let (reference, ref_loss) = batch_gradients_reference(&params, &instances, &config);
                assert!(
                    (fast_loss - ref_loss).abs() < 1e-5,
                    "{variant:?} (b={}) loss: {fast_loss} vs {ref_loss}",
                    instances.len()
                );
                let diff = max_param_diff(&fast, &reference, &params);
                assert!(diff < 1e-5, "{variant:?} (b={}) batched-tape gradients diverged: {diff}", instances.len());
            }
        }
    }

    #[test]
    fn batched_tape_handles_ablations() {
        for variant in [HamVariant::HamSMNoLowOrder, HamVariant::HamSMNoUser] {
            let mut config = HamConfig::for_variant(variant).with_dimensions(6, 4, 2, 2, 2);
            if matches!(variant, HamVariant::HamSMNoLowOrder) {
                config.n_l = 0;
            }
            let params = setup(config);
            let instances: Vec<PreparedInstance> = batch()
                .into_iter()
                .map(|mut i| {
                    if config.n_l == 0 {
                        i.low.clear();
                    }
                    i
                })
                .collect();
            let (fast, _) = batch_gradients(&params, &instances, &config);
            let (reference, _) = batch_gradients_reference(&params, &instances, &config);
            let diff = max_param_diff(&fast, &reference, &params);
            assert!(diff < 1e-5, "{variant:?} ablated batched tape diverged: {diff}");
            if matches!(variant, HamVariant::HamSMNoUser) {
                assert!(!fast.contains(params.u), "ablated user term must not receive gradients");
            }
        }
    }

    #[test]
    fn single_instance_batch_takes_the_reference_path_bit_for_bit() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(6, 4, 2, 2, 2);
        let params = setup(config);
        let one = vec![batch().remove(0)];
        let (fast, fast_loss) = batch_gradients(&params, &one, &config);
        let (reference, ref_loss) = batch_gradients_reference(&params, &one, &config);
        assert_eq!(fast_loss.to_bits(), ref_loss.to_bits());
        for id in [params.u, params.v, params.w] {
            let a = fast.to_dense(id, params.store.value(id));
            let b = reference.to_dense(id, params.store.value(id));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "batch-of-1 autograd gradients must be bit-identical");
            }
        }
    }

    #[test]
    fn loss_decreases_along_the_negative_gradient() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let mut params = setup(config);
        let instances = batch();
        let (grads, loss_before) = batch_gradients(&params, &instances, &config);
        // take a small explicit gradient step on every parameter
        for id in [params.u, params.v, params.w] {
            let dense = grads.to_dense(id, params.store.value(id));
            params.store.value_mut(id).axpy(-0.05, &dense);
        }
        let (_, loss_after) = batch_gradients(&params, &instances, &config);
        assert!(loss_after < loss_before, "loss should drop: {loss_before} -> {loss_after}");
    }

    #[test]
    fn higher_synergy_order_changes_the_loss_surface() {
        let base = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let deeper = HamConfig { synergy_order: 4, ..base };
        let params = setup(base);
        let (_, loss_p2) = batch_gradients(&params, &batch(), &base);
        let (_, loss_p4) = batch_gradients(&params, &batch(), &deeper);
        assert!((loss_p2 - loss_p4).abs() > 1e-9, "synergy order should affect the objective");
    }
}
