//! The BPR objective of HAM expressed on the `ham-autograd` tape.
//!
//! This is the test oracle of the analytic trainer ([`super::manual`]): it
//! expresses every HAM variant, the synergy/latent-cross models (Eq. 5–6)
//! included, as tape operations whose gradients the tape derives on its own.
//! Each instance of a batch gets a subgraph of its own
//! (`batch_gradients_reference`), so the oracle shares neither the block
//! structure nor the closed-form backward of the analytic path it checks.
//! It is compiled for tests only; training never runs it.

use super::{HamParams, PreparedInstance};
use crate::config::HamConfig;
use ham_autograd::{GradStore, Graph, VarId};
use ham_tensor::Pooling;

/// One per-instance subgraph per batch member, stacked and averaged: the
/// oracle of the analytic gradients and the target of the finite-difference
/// checks.
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

/// Builds the loss of a single sliding-window instance on the tape and
/// returns its `1 x 1` node.
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

    #[test]
    fn synergy_model_gradients_pass_finite_difference_check() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(6, 4, 2, 2, 3);
        let mut params = setup(config);
        let instances = batch();

        let (grads, _) = batch_gradients_reference(&params, &instances, &config);
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
    fn loss_decreases_along_the_negative_gradient() {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let mut params = setup(config);
        let instances = batch();
        let (grads, loss_before) = batch_gradients_reference(&params, &instances, &config);
        // take a small explicit gradient step on every parameter
        for id in [params.u, params.v, params.w] {
            let dense = grads.to_dense(id, params.store.value(id));
            params.store.value_mut(id).axpy(-0.05, &dense);
        }
        let (_, loss_after) = batch_gradients_reference(&params, &instances, &config);
        assert!(loss_after < loss_before, "loss should drop: {loss_before} -> {loss_after}");
    }

    #[test]
    fn higher_synergy_order_changes_the_loss_surface() {
        let base = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let deeper = HamConfig { synergy_order: 4, ..base };
        let params = setup(base);
        let (_, loss_p2) = batch_gradients_reference(&params, &batch(), &base);
        let (_, loss_p4) = batch_gradients_reference(&params, &batch(), &deeper);
        assert!((loss_p2 - loss_p4).abs() > 1e-9, "synergy order should affect the objective");
    }
}
