//! The computation tape: forward operation constructors and the reverse-mode
//! backward pass.
//!
//! A [`Graph`] is rebuilt for every training example / mini-batch (define-by-
//! run, like PyTorch). Each operation appends a node storing its forward value
//! plus whatever the backward rule needs (input ids, gather indices, arg-max
//! positions, …). [`Graph::backward`] walks the tape in reverse and returns a
//! [`GradStore`] with per-parameter gradients.

use crate::params::{GradStore, ParamId, ParamStore};
use ham_tensor::matrix::dot;
use ham_tensor::ops as tops;
use ham_tensor::Matrix;

/// Handle to a node (intermediate value) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant input; no gradient flows past it.
    Constant,
    /// Dense parameter leaf.
    Param {
        param: ParamId,
    },
    /// Embedding-lookup leaf: rows of `param` selected by `indices`.
    Gather {
        param: ParamId,
        indices: Vec<usize>,
    },
    Add {
        a: VarId,
        b: VarId,
    },
    Sub {
        a: VarId,
        b: VarId,
    },
    Hadamard {
        a: VarId,
        b: VarId,
    },
    Scale {
        a: VarId,
        factor: f32,
    },
    Neg {
        a: VarId,
    },
    MatMul {
        a: VarId,
        b: VarId,
    },
    /// `a · bᵀ`
    MatMulT {
        a: VarId,
        b: VarId,
    },
    Sigmoid {
        a: VarId,
    },
    Tanh {
        a: VarId,
    },
    Relu {
        a: VarId,
    },
    /// `softplus(x) = ln(1 + e^x)`; `-log σ(x) = softplus(-x)`.
    Softplus {
        a: VarId,
    },
    MeanRows {
        a: VarId,
    },
    MaxRows {
        a: VarId,
        argmax: Vec<usize>,
    },
    SumAll {
        a: VarId,
    },
    MeanAll {
        a: VarId,
    },
    RowSoftmax {
        a: VarId,
    },
    Transpose {
        a: VarId,
    },
    Reshape {
        a: VarId,
    },
    ConcatRows {
        parts: Vec<VarId>,
    },
    ConcatCols {
        parts: Vec<VarId>,
    },
    SliceRows {
        a: VarId,
        start: usize,
    },
    /// Adds a `1 x d` row vector `b` to every row of `a`.
    AddRowBroadcast {
        a: VarId,
        b: VarId,
    },
    /// Full-width 1-D convolution of `input (L x d)` with `filter (h x d)`,
    /// producing `(L - h + 1) x 1` window scores (Caser's horizontal filters).
    ConvFullWidth {
        input: VarId,
        filter: VarId,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
}

/// A define-by-run computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Shape of a node's value.
    pub fn shape(&self, id: VarId) -> (usize, usize) {
        self.nodes[id.0].value.shape()
    }

    fn push(&mut self, value: Matrix, op: Op) -> VarId {
        self.nodes.push(Node { value, op });
        VarId(self.nodes.len() - 1)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Records a constant (non-trainable) input.
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Constant)
    }

    /// Records a dense parameter leaf (the parameter value is copied onto the
    /// tape; intended for small weight matrices and biases).
    pub fn param(&mut self, params: &ParamStore, id: ParamId) -> VarId {
        self.push(params.value(id).clone(), Op::Param { param: id })
    }

    /// Records an embedding lookup: the rows of `param` selected by `indices`.
    /// The gradient is accumulated sparsely per selected row.
    pub fn gather(&mut self, params: &ParamStore, id: ParamId, indices: &[usize]) -> VarId {
        let value = params.value(id).gather_rows(indices);
        self.push(value, Op::Gather { param: id, indices: indices.to_vec() })
    }

    // ------------------------------------------------------------------
    // Element-wise / arithmetic
    // ------------------------------------------------------------------

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add { a, b })
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub { a, b })
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).hadamard(self.value(b));
        self.push(value, Op::Hadamard { a, b })
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&mut self, a: VarId, factor: f32) -> VarId {
        let value = self.value(a).scale(factor);
        self.push(value, Op::Scale { a, factor })
    }

    /// Negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        let value = self.value(a).scale(-1.0);
        self.push(value, Op::Neg { a })
    }

    /// Adds the `1 x d` row vector `b` to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: VarId, b: VarId) -> VarId {
        assert_eq!(self.shape(b).0, 1, "add_row_broadcast: b must be a row vector");
        let value = self.value(a).add_row_broadcast(self.value(b).row(0));
        self.push(value, Op::AddRowBroadcast { a, b })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul { a, b })
    }

    /// Matrix product against a transposed right operand, `a · bᵀ`.
    pub fn matmul_transposed(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).matmul_transposed(self.value(b));
        self.push(value, Op::MatMulT { a, b })
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose { a })
    }

    // ------------------------------------------------------------------
    // Non-linearities
    // ------------------------------------------------------------------

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let value = tops::sigmoid(self.value(a));
        self.push(value, Op::Sigmoid { a })
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let value = tops::tanh(self.value(a));
        self.push(value, Op::Tanh { a })
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let value = tops::relu(self.value(a));
        self.push(value, Op::Relu { a })
    }

    /// Element-wise softplus `ln(1 + e^x)`; note `-log σ(x) = softplus(-x)`,
    /// which is how the BPR loss is expressed on the tape.
    pub fn softplus(&mut self, a: VarId) -> VarId {
        let value = self.value(a).map(|x| {
            // numerically stable softplus
            if x > 0.0 {
                x + (-x).exp().ln_1p()
            } else {
                x.exp().ln_1p()
            }
        });
        self.push(value, Op::Softplus { a })
    }

    /// Row-wise softmax.
    pub fn row_softmax(&mut self, a: VarId) -> VarId {
        let value = tops::softmax_rows(self.value(a));
        self.push(value, Op::RowSoftmax { a })
    }

    // ------------------------------------------------------------------
    // Pooling / reductions
    // ------------------------------------------------------------------

    /// Mean pooling over rows, producing a `1 x d` vector.
    pub fn mean_rows(&mut self, a: VarId) -> VarId {
        let pooled = ham_tensor::pool::mean_pool_rows(self.value(a));
        self.push(Matrix::row_vector(&pooled), Op::MeanRows { a })
    }

    /// Max pooling over rows, producing a `1 x d` vector.
    pub fn max_rows(&mut self, a: VarId) -> VarId {
        let (pooled, argmax) = ham_tensor::pool::max_pool_rows(self.value(a));
        self.push(Matrix::row_vector(&pooled), Op::MaxRows { a, argmax })
    }

    /// Sum of every element, producing a `1 x 1` scalar node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let value = Matrix::full(1, 1, self.value(a).sum());
        self.push(value, Op::SumAll { a })
    }

    /// Mean of every element, producing a `1 x 1` scalar node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let value = Matrix::full(1, 1, self.value(a).mean());
        self.push(value, Op::MeanAll { a })
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the value with a new shape holding the same number of
    /// elements (row-major order preserved).
    pub fn reshape(&mut self, a: VarId, rows: usize, cols: usize) -> VarId {
        let v = self.value(a);
        assert_eq!(v.len(), rows * cols, "reshape: element count mismatch");
        let value = Matrix::from_vec(rows, cols, v.as_slice().to_vec());
        self.push(value, Op::Reshape { a })
    }

    /// Stacks matrices with equal column counts on top of each other.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_rows: need at least one part");
        let cols = self.shape(parts[0]).1;
        let mut data = Vec::new();
        let mut rows = 0;
        for &p in parts {
            let v = self.value(p);
            assert_eq!(v.cols(), cols, "concat_rows: column mismatch");
            data.extend_from_slice(v.as_slice());
            rows += v.rows();
        }
        self.push(Matrix::from_vec(rows, cols, data), Op::ConcatRows { parts: parts.to_vec() })
    }

    /// Concatenates matrices with equal row counts side by side.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_cols: need at least one part");
        let rows = self.shape(parts[0]).0;
        let total_cols: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut out = Matrix::zeros(rows, total_cols);
        let mut offset = 0;
        for &p in parts {
            let v = self.value(p);
            assert_eq!(v.rows(), rows, "concat_cols: row mismatch");
            for r in 0..rows {
                out.row_mut(r)[offset..offset + v.cols()].copy_from_slice(v.row(r));
            }
            offset += v.cols();
        }
        self.push(out, Op::ConcatCols { parts: parts.to_vec() })
    }

    /// Selects the contiguous row range `start..start + len`.
    pub fn slice_rows(&mut self, a: VarId, start: usize, len: usize) -> VarId {
        let v = self.value(a);
        assert!(start + len <= v.rows(), "slice_rows: range out of bounds");
        let indices: Vec<usize> = (start..start + len).collect();
        let value = v.gather_rows(&indices);
        self.push(value, Op::SliceRows { a, start })
    }

    // ------------------------------------------------------------------
    // Convolution (Caser)
    // ------------------------------------------------------------------

    /// Full-width 1-D convolution: slides `filter (h x d)` over the rows of
    /// `input (L x d)` and produces the `(L - h + 1) x 1` column of window
    /// activations `out[p] = Σ_{i,c} input[p + i, c] * filter[i, c]`.
    pub fn conv_full_width(&mut self, input: VarId, filter: VarId) -> VarId {
        let (inp, fil) = (self.value(input), self.value(filter));
        assert_eq!(inp.cols(), fil.cols(), "conv_full_width: embedding width mismatch");
        assert!(
            fil.rows() >= 1 && fil.rows() <= inp.rows(),
            "conv_full_width: filter height must be in 1..=input rows"
        );
        let positions = inp.rows() - fil.rows() + 1;
        let mut out = Matrix::zeros(positions, 1);
        for p in 0..positions {
            let mut acc = 0.0;
            for i in 0..fil.rows() {
                acc += dot(inp.row(p + i), fil.row(i));
            }
            out.set(p, 0, acc);
        }
        self.push(out, Op::ConvFullWidth { input, filter })
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs the reverse pass from the scalar node `loss` and returns the
    /// accumulated per-parameter gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` node.
    pub fn backward(&self, loss: VarId) -> GradStore {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be a 1x1 scalar node");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        let mut store = GradStore::new();

        for idx in (0..=loss.0).rev() {
            let Some(grad) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            match &node.op {
                Op::Constant => {}
                Op::Param { param } => store.accumulate_dense(*param, &grad),
                Op::Gather { param, indices } => store.accumulate_sparse(*param, indices, &grad),
                Op::Add { a, b } => {
                    accumulate(&mut grads, *a, grad.clone());
                    accumulate(&mut grads, *b, grad);
                }
                Op::Sub { a, b } => {
                    accumulate(&mut grads, *a, grad.clone());
                    accumulate(&mut grads, *b, grad.scale(-1.0));
                }
                Op::Hadamard { a, b } => {
                    let ga = grad.hadamard(self.value(*b));
                    let gb = grad.hadamard(self.value(*a));
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Scale { a, factor } => accumulate(&mut grads, *a, grad.scale(*factor)),
                Op::Neg { a } => accumulate(&mut grads, *a, grad.scale(-1.0)),
                Op::MatMul { a, b } => {
                    // C = A·B  =>  dA = dC·Bᵀ, dB = Aᵀ·dC
                    let ga = grad.matmul_transposed(self.value(*b));
                    let gb = self.value(*a).transpose().matmul(&grad);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::MatMulT { a, b } => {
                    // C = A·Bᵀ  =>  dA = dC·B, dB = dCᵀ·A
                    let ga = grad.matmul(self.value(*b));
                    let gb = grad.transpose().matmul(self.value(*a));
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Sigmoid { a } => {
                    let s = &node.value;
                    let local = s.map(|v| v * (1.0 - v));
                    accumulate(&mut grads, *a, grad.hadamard(&local));
                }
                Op::Tanh { a } => {
                    let t = &node.value;
                    let local = t.map(|v| 1.0 - v * v);
                    accumulate(&mut grads, *a, grad.hadamard(&local));
                }
                Op::Relu { a } => {
                    let local = self.value(*a).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    accumulate(&mut grads, *a, grad.hadamard(&local));
                }
                Op::Softplus { a } => {
                    let local = self.value(*a).map(tops::sigmoid_scalar);
                    accumulate(&mut grads, *a, grad.hadamard(&local));
                }
                Op::MeanRows { a } => {
                    let (rows, cols) = self.shape(*a);
                    let mut ga = Matrix::zeros(rows, cols);
                    if rows > 0 {
                        let inv = 1.0 / rows as f32;
                        for r in 0..rows {
                            for (g, o) in grad.row(0).iter().zip(ga.row_mut(r)) {
                                *o = g * inv;
                            }
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::MaxRows { a, argmax } => {
                    let (rows, cols) = self.shape(*a);
                    let mut ga = Matrix::zeros(rows, cols);
                    if rows > 0 {
                        for (c, &r) in argmax.iter().enumerate() {
                            let v = ga.get(r, c) + grad.get(0, c);
                            ga.set(r, c, v);
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumAll { a } => {
                    let (rows, cols) = self.shape(*a);
                    accumulate(&mut grads, *a, Matrix::full(rows, cols, grad.get(0, 0)));
                }
                Op::MeanAll { a } => {
                    let (rows, cols) = self.shape(*a);
                    let n = (rows * cols).max(1) as f32;
                    accumulate(&mut grads, *a, Matrix::full(rows, cols, grad.get(0, 0) / n));
                }
                Op::RowSoftmax { a } => {
                    // dX_row = (dY_row - (dY_row · Y_row)) ∘ Y_row
                    let y = &node.value;
                    let mut ga = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let inner = dot(grad.row(r), y.row(r));
                        for c in 0..y.cols() {
                            ga.set(r, c, (grad.get(r, c) - inner) * y.get(r, c));
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::Transpose { a } => accumulate(&mut grads, *a, grad.transpose()),
                Op::Reshape { a } => {
                    let (rows, cols) = self.shape(*a);
                    accumulate(&mut grads, *a, Matrix::from_vec(rows, cols, grad.as_slice().to_vec()));
                }
                Op::ConcatRows { parts } => {
                    let mut offset = 0;
                    for &p in parts {
                        let (rows, cols) = self.shape(p);
                        let mut gp = Matrix::zeros(rows, cols);
                        for r in 0..rows {
                            gp.row_mut(r).copy_from_slice(grad.row(offset + r));
                        }
                        accumulate(&mut grads, p, gp);
                        offset += rows;
                    }
                }
                Op::ConcatCols { parts } => {
                    let mut offset = 0;
                    for &p in parts {
                        let (rows, cols) = self.shape(p);
                        let mut gp = Matrix::zeros(rows, cols);
                        for r in 0..rows {
                            gp.row_mut(r).copy_from_slice(&grad.row(r)[offset..offset + cols]);
                        }
                        accumulate(&mut grads, p, gp);
                        offset += cols;
                    }
                }
                Op::SliceRows { a, start } => {
                    let (rows, cols) = self.shape(*a);
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..grad.rows() {
                        ga.row_mut(start + r).copy_from_slice(grad.row(r));
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::AddRowBroadcast { a, b } => {
                    accumulate(&mut grads, *a, grad.clone());
                    // gradient of the broadcast row vector: column-wise sum
                    let mut gb = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (o, g) in gb.row_mut(0).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                    accumulate(&mut grads, *b, gb);
                }
                Op::ConvFullWidth { input, filter } => {
                    let (inp, fil) = (self.value(*input), self.value(*filter));
                    let positions = inp.rows() - fil.rows() + 1;
                    let mut gi = Matrix::zeros(inp.rows(), inp.cols());
                    let mut gf = Matrix::zeros(fil.rows(), fil.cols());
                    for p in 0..positions {
                        let g = grad.get(p, 0);
                        if g == 0.0 {
                            continue;
                        }
                        for i in 0..fil.rows() {
                            for c in 0..fil.cols() {
                                let v = gi.get(p + i, c) + g * fil.get(i, c);
                                gi.set(p + i, c, v);
                                let w = gf.get(i, c) + g * inp.get(p + i, c);
                                gf.set(i, c, w);
                            }
                        }
                    }
                    accumulate(&mut grads, *input, gi);
                    accumulate(&mut grads, *filter, gf);
                }
            }
        }
        store
    }
}

fn accumulate(grads: &mut [Option<Matrix>], id: VarId, grad: Matrix) {
    match &mut grads[id.0] {
        Some(existing) => existing.add_assign(&grad),
        slot @ None => *slot = Some(grad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn forward_values_are_recorded() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = g.constant(Matrix::row_vector(&[3.0, 4.0]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).as_slice(), &[4.0, 6.0]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn simple_linear_gradient() {
        // loss = sum(x · W), d loss / d W = xᵀ · 1
        let mut params = ParamStore::new();
        let w = params.add_dense("w", Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 2.0]]));
        let mut g = Graph::new();
        let x = g.constant(Matrix::row_vector(&[1.0, 2.0]));
        let wv = g.param(&params, w);
        let y = g.matmul(x, wv);
        let loss = g.sum_all(y);
        assert!(close(g.value(loss).get(0, 0), (0.5 + 2.0) + (-0.25 + 4.0)));
        let grads = g.backward(loss);
        let gw = grads.dense(w).unwrap();
        assert_eq!(gw.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_produces_sparse_gradients() {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]));
        let mut g = Graph::new();
        let rows = g.gather(&params, v, &[2, 0]);
        let pooled = g.mean_rows(rows);
        let loss = g.sum_all(pooled);
        let grads = g.backward(loss);
        let sg = grads.sparse(v).unwrap();
        assert_eq!(sg.touched_rows(), 2);
        let dense = sg.to_dense(3);
        assert_eq!(dense.row(0), &[0.5, 0.5]);
        assert_eq!(dense.row(1), &[0.0, 0.0]);
        assert_eq!(dense.row(2), &[0.5, 0.5]);
    }

    #[test]
    fn hadamard_gradient() {
        let mut params = ParamStore::new();
        let a = params.add_dense("a", Matrix::row_vector(&[2.0, 3.0]));
        let b = params.add_dense("b", Matrix::row_vector(&[5.0, 7.0]));
        let mut g = Graph::new();
        let av = g.param(&params, a);
        let bv = g.param(&params, b);
        let prod = g.hadamard(av, bv);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        assert_eq!(grads.dense(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(grads.dense(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0]]));
        let mut g = Graph::new();
        let rows = g.gather(&params, v, &[0, 1]);
        let pooled = g.max_rows(rows);
        let loss = g.sum_all(pooled);
        let grads = g.backward(loss);
        let dense = grads.sparse(v).unwrap().to_dense(2);
        assert_eq!(dense.row(0), &[0.0, 1.0]);
        assert_eq!(dense.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn bpr_style_loss_gradient_signs() {
        // loss = softplus(-(pos - neg)); d loss/d pos < 0, d loss/d neg > 0
        let mut params = ParamStore::new();
        let pos = params.add_dense("pos", Matrix::full(1, 1, 0.2));
        let neg = params.add_dense("neg", Matrix::full(1, 1, 0.5));
        let mut g = Graph::new();
        let p = g.param(&params, pos);
        let n = g.param(&params, neg);
        let diff = g.sub(p, n);
        let ndiff = g.neg(diff);
        let sp = g.softplus(ndiff);
        let loss = g.sum_all(sp);
        let grads = g.backward(loss);
        assert!(grads.dense(pos).unwrap().get(0, 0) < 0.0);
        assert!(grads.dense(neg).unwrap().get(0, 0) > 0.0);
    }

    #[test]
    fn branching_graph_accumulates_gradients() {
        // y = a + a  =>  dy/da = 2
        let mut params = ParamStore::new();
        let a = params.add_dense("a", Matrix::full(1, 1, 3.0));
        let mut g = Graph::new();
        let av = g.param(&params, a);
        let y = g.add(av, av);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.dense(a).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn concat_and_slice_shapes() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = g.constant(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let cat = g.concat_rows(&[a, b]);
        assert_eq!(g.shape(cat), (3, 2));
        let sl = g.slice_rows(cat, 1, 2);
        assert_eq!(g.value(sl).row(0), &[3.0, 4.0]);
        let side = g.concat_cols(&[a, a]);
        assert_eq!(g.shape(side), (1, 4));
    }

    #[test]
    fn conv_full_width_forward_values() {
        let mut g = Graph::new();
        let input = g.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let filter = g.constant(Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]));
        let out = g.conv_full_width(input, filter);
        // position 0: 1*1 + 0*1 + 0*2 + 1*2 = 3 ; position 1: 0+1 + 2+2 = 5
        assert_eq!(g.value(out).as_slice(), &[3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1 scalar")]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::zeros(2, 2));
        let _ = g.backward(a);
    }

    #[test]
    fn row_softmax_rows_sum_to_one_on_tape() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let s = g.row_softmax(a);
        let sum: f32 = g.value(s).row(0).iter().sum();
        assert!(close(sum, 1.0));
    }
}
