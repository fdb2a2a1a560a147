//! Exhaustive finite-difference checks: every differentiable operation of the
//! tape is exercised in isolation (and a few in combination) against central
//! finite differences.

use ham_autograd::gradcheck::check_gradient;
use ham_autograd::{Graph, ParamId, ParamStore, VarId};
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Checks one scalar-valued graph builder against finite differences for
/// every parameter it declares.
fn assert_gradients_match(
    build_params: impl Fn(&mut ParamStore, &mut StdRng) -> Vec<ParamId>,
    build_loss: impl Fn(&ParamStore, &mut Graph, &[ParamId]) -> VarId,
    label: &str,
) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut params = ParamStore::new();
    let ids = build_params(&mut params, &mut rng);

    let mut graph = Graph::new();
    let loss = build_loss(&params, &mut graph, &ids);
    let grads = graph.backward(loss);

    for &id in &ids {
        let analytic = grads.to_dense(id, params.value(id));
        let ids_clone = ids.clone();
        let report = check_gradient(&mut params, id, &analytic, 20, 1e-2, |p| {
            let mut g = Graph::new();
            let l = build_loss(p, &mut g, &ids_clone);
            g.value(l).get(0, 0)
        });
        assert!(report.passes(2e-2), "{label}: gradient mismatch for param {} ({report:?})", params.name(id));
    }
}

#[test]
fn matmul_chain_gradients() {
    assert_gradients_match(
        |p, rng| {
            vec![
                p.add_dense("A", Matrix::xavier_uniform(3, 4, rng)),
                p.add_dense("B", Matrix::xavier_uniform(4, 2, rng)),
            ]
        },
        |p, g, ids| {
            let a = g.param(p, ids[0]);
            let b = g.param(p, ids[1]);
            let c = g.matmul(a, b);
            let s = g.sigmoid(c);
            g.sum_all(s)
        },
        "matmul→sigmoid→sum",
    );
}

#[test]
fn matmul_transposed_gradients() {
    assert_gradients_match(
        |p, rng| {
            vec![
                p.add_dense("A", Matrix::xavier_uniform(3, 5, rng)),
                p.add_dense("B", Matrix::xavier_uniform(4, 5, rng)),
            ]
        },
        |p, g, ids| {
            let a = g.param(p, ids[0]);
            let b = g.param(p, ids[1]);
            let scores = g.matmul_transposed(a, b); // 3x4
            let tan = g.tanh(scores);
            let reduced = g.mean_all(tan);
            g.sum_all(reduced)
        },
        "matmul_transposed",
    );
}

#[test]
fn pooling_and_softmax_gradients() {
    assert_gradients_match(
        |p, rng| vec![p.add_embedding("V", Matrix::xavier_uniform(7, 4, rng))],
        |p, g, ids| {
            let rows = g.gather(p, ids[0], &[0, 3, 5, 3]);
            let mean = g.mean_rows(rows);
            let max = g.max_rows(rows);
            let both = g.concat_rows(&[mean, max]);
            let soft = g.row_softmax(both);
            let sp = g.softplus(soft);
            g.mean_all(sp)
        },
        "gather→pooling→softmax→softplus",
    );
}

#[test]
fn broadcast_scale_neg_relu_gradients() {
    assert_gradients_match(
        |p, rng| {
            vec![
                p.add_dense("X", Matrix::xavier_uniform(4, 3, rng)),
                p.add_dense("b", Matrix::xavier_uniform(1, 3, rng)),
            ]
        },
        |p, g, ids| {
            let x = g.param(p, ids[0]);
            let b = g.param(p, ids[1]);
            let shifted = g.add_row_broadcast(x, b);
            let scaled = g.scale(shifted, 0.7);
            let neg = g.neg(scaled);
            let act = g.relu(neg);
            g.sum_all(act)
        },
        "broadcast→scale→neg→relu",
    );
}

#[test]
fn reshape_slice_concat_transpose_gradients() {
    assert_gradients_match(
        |p, rng| vec![p.add_dense("X", Matrix::xavier_uniform(4, 6, rng))],
        |p, g, ids| {
            let x = g.param(p, ids[0]);
            let head = g.slice_rows(x, 0, 2);
            let tail = g.slice_rows(x, 2, 2);
            let swapped = g.concat_rows(&[tail, head]);
            let reshaped = g.reshape(swapped, 6, 4);
            let transposed = g.transpose(reshaped);
            let squashed = g.tanh(transposed);
            g.mean_all(squashed)
        },
        "slice→concat→reshape→transpose",
    );
}

#[test]
fn hadamard_and_sub_gradients() {
    assert_gradients_match(
        |p, rng| {
            vec![
                p.add_dense("A", Matrix::xavier_uniform(2, 5, rng)),
                p.add_dense("B", Matrix::xavier_uniform(2, 5, rng)),
            ]
        },
        |p, g, ids| {
            let a = g.param(p, ids[0]);
            let b = g.param(p, ids[1]);
            let prod = g.hadamard(a, b);
            let diff = g.sub(prod, a);
            let sq = g.hadamard(diff, diff);
            g.sum_all(sq)
        },
        "hadamard + sub",
    );
}

#[test]
fn conv_full_width_with_concat_cols_gradients() {
    assert_gradients_match(
        |p, rng| {
            vec![
                p.add_embedding("E", Matrix::xavier_uniform(6, 3, rng)),
                p.add_dense("F1", Matrix::xavier_uniform(1, 3, rng)),
                p.add_dense("F2", Matrix::xavier_uniform(3, 3, rng)),
            ]
        },
        |p, g, ids| {
            let rows = g.gather(p, ids[0], &[0, 1, 2, 3, 4]);
            let f1 = g.param(p, ids[1]);
            let f2 = g.param(p, ids[2]);
            let c1 = g.conv_full_width(rows, f1);
            let c2 = g.conv_full_width(rows, f2);
            let p1 = g.max_rows(c1);
            let p2 = g.max_rows(c2);
            let cat = g.concat_cols(&[p1, p2]);
            let act = g.sigmoid(cat);
            g.sum_all(act)
        },
        "two convolutions → max pool → concat_cols",
    );
}

#[test]
fn duplicate_gather_indices_accumulate_correctly() {
    // When the same embedding row is gathered several times, its sparse
    // gradient must be the sum of all paths; finite differences confirm it.
    assert_gradients_match(
        |p, rng| vec![p.add_embedding("V", Matrix::xavier_uniform(3, 4, rng))],
        |p, g, ids| {
            let rows = g.gather(p, ids[0], &[1, 1, 1, 2]);
            let pooled = g.mean_rows(rows);
            let squared = g.hadamard(pooled, pooled);
            g.sum_all(squared)
        },
        "duplicate gather indices",
    );
}
