//! Trainable-parameter storage and gradient accumulation.
//!
//! Embedding matrices in recommendation models are tall (tens of thousands of
//! items) while each training step only touches a handful of rows, so their
//! gradients are accumulated *sparsely* as `(row index, row gradient)` pairs.
//! Small dense weight matrices (gating weights, attention projections, biases)
//! accumulate dense gradients.

use ham_tensor::Matrix;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Handle to a parameter stored in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter inside its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Whether a parameter's gradient is accumulated densely or sparsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Gradient has the full shape of the parameter.
    Dense,
    /// Gradient is a set of `(row, row-gradient)` pairs (embedding tables).
    SparseRows,
}

#[derive(Debug, Clone)]
struct Param {
    name: String,
    value: Matrix,
    kind: ParamKind,
}

/// Owns every trainable parameter of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dense parameter (weights, biases) and returns its handle.
    pub fn add_dense(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.push(name.into(), value, ParamKind::Dense)
    }

    /// Registers an embedding table whose gradient is accumulated sparsely.
    pub fn add_embedding(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.push(name.into(), value, ParamKind::SparseRows)
    }

    fn push(&mut self, name: String, value: Matrix, kind: ParamKind) -> ParamId {
        self.params.push(Param { name, value, kind });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to the value of a parameter.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Appends rows to a parameter's value matrix. Embedding tables grow
    /// row-wise when unseen users/items arrive in an online-training stream;
    /// existing rows (and any sparse gradients indexed against them) are
    /// unaffected.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn append_rows(&mut self, id: ParamId, rows: &Matrix) {
        self.params[id.0].value.append_rows(rows);
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// The gradient-accumulation kind of a parameter.
    pub fn kind(&self, id: ParamId) -> ParamKind {
        self.params[id.0].kind
    }

    /// Iterates over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }
}

/// Hashes a `usize` key (a row id or a parameter index) with one multiply.
///
/// Row ids come from training data and parameter indices from this crate's
/// own handles, never from untrusted input, so SipHash's resistance to crafted
/// collisions buys nothing here while its cost lands on every accumulated row.
/// The multiplier is odd, so ids that differ modulo the (power-of-two) table
/// size get different home buckets, and the product's high bits, which the
/// table uses as its per-entry tag, depend on every bit of the id.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by row id or parameter index, hashed with [`IdHasher`].
type IdMap<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;

/// Sparse row-wise gradient for an embedding table.
///
/// Every touched row lives in one contiguous buffer: `slots` maps a row id to
/// its position in `rows` (first-touch order), and slot `s` owns
/// `values[s * cols..(s + 1) * cols]`. Touching a new row appends `cols`
/// zeros instead of allocating a row of its own, and [`Self::clear`] empties
/// the gradient but keeps every buffer's capacity, so a trainer that clears
/// and refills one gradient per batch allocates only while a batch touches
/// more rows than any batch before it.
#[derive(Debug, Clone, Default)]
pub struct SparseGrad {
    slots: IdMap<usize>,
    rows: Vec<usize>,
    values: Vec<f32>,
    cols: usize,
}

impl SparseGrad {
    /// Creates an empty sparse gradient for a table with `cols` columns.
    pub fn new(cols: usize) -> Self {
        Self { cols, ..Self::default() }
    }

    /// Accumulates `grad` into the gradient of `row`.
    pub fn add_row(&mut self, row: usize, grad: &[f32]) {
        self.add_scaled_row(row, grad, 1.0);
    }

    /// Accumulates `scale * grad` into the gradient of `row` without
    /// materialising the scaled row.
    // ham-lint: hot-path
    pub fn add_scaled_row(&mut self, row: usize, grad: &[f32], scale: f32) {
        assert_eq!(grad.len(), self.cols, "SparseGrad::add_scaled_row: width mismatch");
        let next = self.rows.len();
        let slot = *self.slots.entry(row).or_insert(next);
        if slot == next {
            self.rows.push(row);
            // ham-lint: allow(alloc, "the buffer grows by one zeroed row per first touch and keeps its capacity")
            self.values.resize(self.values.len() + self.cols, 0.0);
        }
        for (e, g) in self.values[slot * self.cols..][..self.cols].iter_mut().zip(grad) {
            *e += scale * g;
        }
    }

    /// Reserves room for `rows` more touched rows.
    fn reserve(&mut self, rows: usize) {
        self.slots.reserve(rows);
        self.rows.reserve(rows);
        self.values.reserve(rows * self.cols);
    }

    /// Empties the gradient, keeping the capacity of the slot map and of
    /// both buffers.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.rows.clear();
        self.values.clear();
    }

    /// Whether no row has a gradient.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of distinct rows with a non-empty gradient.
    pub fn touched_rows(&self) -> usize {
        self.rows.len()
    }

    /// Width (number of columns) of each row gradient.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The touched row ids in first-touch order; row `k`'s gradient is
    /// `values()[k * cols..][..cols]`.
    pub fn row_ids(&self) -> &[usize] {
        &self.rows
    }

    /// The gradients of [`Self::row_ids`], one row of [`Self::cols`] values
    /// each, in the same order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over `(row index, row gradient)` pairs in first-touch order:
    /// rows appear in the order they were first accumulated (a merge appends
    /// the other gradient's new rows in its own first-touch order). Each
    /// touched row appears exactly once.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> + '_ {
        self.rows.iter().enumerate().map(|(slot, &row)| (row, &self.values[slot * self.cols..][..self.cols]))
    }

    /// Folds another sparse gradient into this one, row by row, in the
    /// other's first-touch order.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.cols, other.cols, "SparseGrad::merge: width mismatch {} vs {}", self.cols, other.cols);
        for (row, grad) in other.iter() {
            match self.slots.get(&row) {
                Some(&slot) => {
                    for (e, g) in self.values[slot * self.cols..][..self.cols].iter_mut().zip(grad) {
                        *e += g;
                    }
                }
                None => {
                    self.slots.insert(row, self.rows.len());
                    self.rows.push(row);
                    self.values.extend_from_slice(grad);
                }
            }
        }
    }

    /// Materialises the sparse gradient as a dense matrix of the given number
    /// of rows (used by gradient checking and tests).
    pub fn to_dense(&self, rows: usize) -> Matrix {
        let mut out = Matrix::zeros(rows, self.cols);
        for (r, g) in self.iter() {
            assert!(r < rows, "SparseGrad::to_dense: row {r} out of bounds for {rows} rows");
            for (o, v) in out.row_mut(r).iter_mut().zip(g) {
                *o += v;
            }
        }
        out
    }
}

/// The gradients produced by one backward pass, keyed by [`ParamId`].
///
/// [`Self::clear`] keeps each sparse entry (empty, with its capacity) so a
/// store refilled every batch stops allocating once it has seen its largest
/// batch. An entry with no rows is not a gradient: [`Self::contains`],
/// [`Self::sparse`] and [`Self::sparse_ids`] do not see it.
#[derive(Debug, Default)]
pub struct GradStore {
    dense: IdMap<Matrix>,
    sparse: IdMap<SparseGrad>,
}

impl GradStore {
    /// Creates an empty gradient store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a dense gradient for `id`.
    pub fn accumulate_dense(&mut self, id: ParamId, grad: &Matrix) {
        match self.dense.get_mut(&id.0) {
            Some(existing) => existing.add_assign(grad),
            None => {
                self.dense.insert(id.0, grad.clone());
            }
        }
    }

    /// Accumulates a sparse (row-indexed) gradient for `id`.
    ///
    /// Room for every index is reserved up front, so a block's coalesced
    /// gradient (all indices new to the store) lands without rehashing the
    /// slot map or regrowing the value buffer.
    pub fn accumulate_sparse(&mut self, id: ParamId, indices: &[usize], rows: &Matrix) {
        assert_eq!(indices.len(), rows.rows(), "accumulate_sparse: index / row count mismatch");
        self.sparse.entry(id.0).or_insert_with(|| SparseGrad::new(rows.cols())).reserve(indices.len());
        self.accumulate_sparse_rows(id, indices, rows.as_slice(), rows.cols());
    }

    /// Accumulates a sparse gradient for `id` from a flat row-major buffer:
    /// row `i` of `values` (`cols` wide) is the gradient of `indices[i]`.
    /// The slice form of [`Self::accumulate_sparse`], for callers that keep
    /// their coalesced rows in a reused buffer; it reserves nothing, so a
    /// caller that knows its row count reserves it up front
    /// ([`Self::reserve_rows`]).
    ///
    /// # Panics
    /// Panics if `values` does not hold `indices.len()` rows of `cols`.
    pub fn accumulate_sparse_rows(&mut self, id: ParamId, indices: &[usize], values: &[f32], cols: usize) {
        assert_eq!(values.len(), indices.len() * cols, "accumulate_sparse_rows: index / row count mismatch");
        let entry = self.sparse.entry(id.0).or_insert_with(|| SparseGrad::new(cols));
        for (&idx, row) in indices.iter().zip(values.chunks_exact(cols)) {
            entry.add_row(idx, row);
        }
    }

    /// Makes room for `rows` touched rows in total in the sparse gradient of
    /// `id` (`cols` wide), creating it empty if absent. Filling it up to that
    /// many rows then allocates nothing.
    pub fn reserve_rows(&mut self, id: ParamId, cols: usize, rows: usize) {
        let entry = self.sparse.entry(id.0).or_insert_with(|| SparseGrad::new(cols));
        entry.reserve(rows.saturating_sub(entry.touched_rows()));
    }

    /// Accumulates `scale * grad` into sparse row `row` of `id` directly from
    /// a slice — the zero-allocation path the manual trainer uses per
    /// training pair (no `Matrix::row_vector` temporary).
    pub fn accumulate_scaled_row(&mut self, id: ParamId, row: usize, grad: &[f32], scale: f32) {
        let entry = self.sparse.entry(id.0).or_insert_with(|| SparseGrad::new(grad.len()));
        entry.add_scaled_row(row, grad, scale);
    }

    /// Folds another gradient store into this one (dense gradients add
    /// element-wise, sparse gradients merge row-wise).
    ///
    /// The mini-batched trainer computes per-block gradients — possibly in
    /// parallel on the worker pool — and merges them **in block order**, so
    /// the result is deterministic and independent of how many threads ran
    /// the blocks.
    pub fn merge(&mut self, other: GradStore) {
        for (id, grad) in other.dense {
            match self.dense.get_mut(&id) {
                Some(existing) => existing.add_assign(&grad),
                None => {
                    self.dense.insert(id, grad);
                }
            }
        }
        for (id, grad) in other.sparse {
            match self.sparse.get_mut(&id) {
                Some(existing) => existing.merge(&grad),
                None => {
                    self.sparse.insert(id, grad);
                }
            }
        }
    }

    /// Folds another gradient store into this one without consuming it —
    /// the same sums in the same order as [`Self::merge`], so a caller can
    /// keep `other`'s buffers for the next batch. Allocates only for rows
    /// or parameters this store has no room for yet.
    pub fn merge_from(&mut self, other: &GradStore) {
        for (&id, grad) in &other.dense {
            match self.dense.get_mut(&id) {
                Some(existing) => existing.add_assign(grad),
                None => {
                    self.dense.insert(id, grad.clone());
                }
            }
        }
        for (&id, grad) in other.sparse.iter().filter(|(_, grad)| !grad.is_empty()) {
            self.sparse.entry(id).or_insert_with(|| SparseGrad::new(grad.cols())).merge(grad);
        }
    }

    /// Empties the store for reuse: dense gradients are dropped, sparse
    /// entries are emptied with their capacity kept.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.sparse.values_mut().for_each(SparseGrad::clear);
    }

    /// Dense gradient for `id`, if any was accumulated.
    pub fn dense(&self, id: ParamId) -> Option<&Matrix> {
        self.dense.get(&id.0)
    }

    /// Sparse gradient for `id`, if any row was accumulated.
    pub fn sparse(&self, id: ParamId) -> Option<&SparseGrad> {
        self.sparse.get(&id.0).filter(|grad| !grad.is_empty())
    }

    /// Whether any gradient at all was recorded for `id`.
    pub fn contains(&self, id: ParamId) -> bool {
        self.dense.contains_key(&id.0) || self.sparse(id).is_some()
    }

    /// Total gradient of `id` as a dense matrix shaped like `shape_like`
    /// (combines dense and sparse contributions; used by tests/gradcheck).
    pub fn to_dense(&self, id: ParamId, shape_like: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(shape_like.rows(), shape_like.cols());
        if let Some(d) = self.dense(id) {
            out.add_assign(d);
        }
        if let Some(s) = self.sparse(id) {
            out.add_assign(&s.to_dense(shape_like.rows()));
        }
        out
    }

    /// Iterates over parameter indices that received dense gradients.
    pub fn dense_ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.dense.keys().map(|&k| ParamId(k))
    }

    /// Iterates over parameter indices that received sparse gradients.
    pub fn sparse_ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.sparse.iter().filter(|(_, grad)| !grad.is_empty()).map(|(&k, _)| ParamId(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn add_and_lookup_params() {
        let mut store = ParamStore::new();
        let a = store.add_dense("w", Matrix::zeros(2, 3));
        let b = store.add_embedding("V", Matrix::zeros(10, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.kind(b), ParamKind::SparseRows);
        assert_eq!(store.value(b).shape(), (10, 4));
        store.value_mut(a).set(0, 0, 5.0);
        assert_eq!(store.value(a).get(0, 0), 5.0);
        assert_eq!(store.ids().count(), 2);
    }

    #[test]
    fn append_rows_grows_an_embedding_table() {
        let mut store = ParamStore::new();
        let v = store.add_embedding("V", Matrix::full(2, 3, 1.0));
        store.append_rows(v, &Matrix::full(2, 3, 5.0));
        assert_eq!(store.value(v).shape(), (4, 3));
        assert_eq!(store.value(v).row(1), &[1.0, 1.0, 1.0]);
        assert_eq!(store.value(v).row(3), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn sparse_grad_accumulates_and_densifies() {
        let mut g = SparseGrad::new(2);
        g.add_row(3, &[1.0, 2.0]);
        g.add_row(3, &[0.5, 0.5]);
        g.add_row(0, &[1.0, 0.0]);
        assert_eq!(g.touched_rows(), 2);
        let dense = g.to_dense(5);
        assert_eq!(dense.row(3), &[1.5, 2.5]);
        assert_eq!(dense.row(0), &[1.0, 0.0]);
        assert_eq!(dense.row(4), &[0.0, 0.0]);
    }

    #[test]
    fn grad_store_combines_dense_and_sparse() {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::zeros(4, 2));
        let mut grads = GradStore::new();
        grads.accumulate_dense(v, &Matrix::full(4, 2, 1.0));
        grads.accumulate_sparse(v, &[2], &Matrix::row_vector(&[3.0, 3.0]));
        let total = grads.to_dense(v, params.value(v));
        assert_eq!(total.row(0), &[1.0, 1.0]);
        assert_eq!(total.row(2), &[4.0, 4.0]);
        assert!(grads.contains(v));
    }

    #[test]
    fn grad_store_merge_combines_blocks() {
        let mut params = ParamStore::new();
        let w = params.add_dense("w", Matrix::zeros(1, 2));
        let v = params.add_embedding("V", Matrix::zeros(4, 2));

        let mut a = GradStore::new();
        a.accumulate_dense(w, &Matrix::row_vector(&[1.0, 2.0]));
        a.accumulate_scaled_row(v, 1, &[1.0, 1.0], 2.0);

        let mut b = GradStore::new();
        b.accumulate_dense(w, &Matrix::row_vector(&[0.5, -1.0]));
        b.accumulate_scaled_row(v, 1, &[1.0, 0.0], 1.0);
        b.accumulate_scaled_row(v, 3, &[0.0, 4.0], 1.0);

        a.merge(b);
        assert_eq!(a.dense(w).unwrap().as_slice(), &[1.5, 1.0]);
        let dense = a.sparse(v).unwrap().to_dense(4);
        assert_eq!(dense.row(1), &[3.0, 2.0]);
        assert_eq!(dense.row(3), &[0.0, 4.0]);
        assert_eq!(dense.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn add_scaled_row_rejects_a_row_of_the_wrong_width() {
        let mut g = SparseGrad::new(3);
        g.add_row(0, &[1.0, 2.0, 3.0]);
        g.add_scaled_row(1, &[1.0, 2.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_a_gradient_of_the_wrong_width() {
        let mut a = SparseGrad::new(2);
        a.add_row(0, &[1.0, 2.0]);
        a.merge(&SparseGrad::new(3));
    }

    #[test]
    fn a_cleared_store_keeps_its_buffers_and_hides_its_empty_entries() {
        let (u, v) = (ParamId(0), ParamId(1));
        let mut grads = GradStore::new();
        grads.accumulate_scaled_row(v, 5, &[1.0, 2.0], 1.0);
        grads.accumulate_sparse_rows(v, &[1, 5], &[3.0, 3.0, 1.0, 1.0], 2);
        assert_eq!(grads.sparse(v).unwrap().to_dense(6).row(5), &[2.0, 3.0]);
        let capacity = grads.sparse[&v.0].values.capacity();
        grads.clear();
        assert!(!grads.contains(v) && grads.sparse(v).is_none() && grads.sparse_ids().next().is_none());
        assert_eq!(grads.sparse[&v.0].values.capacity(), capacity, "clear keeps the row buffer");
        // A reserved, still empty entry is just as invisible.
        grads.reserve_rows(u, 2, 8);
        assert!(!grads.contains(u) && grads.sparse_ids().next().is_none());
        assert!(grads.sparse[&u.0].values.capacity() >= 16);
        // Merging an empty store in adds nothing either.
        let mut other = GradStore::new();
        other.merge_from(&grads);
        assert!(!other.contains(u) && !other.contains(v));
    }

    /// The previous `SparseGrad`: one heap row per touched row id in a
    /// `HashMap`, kept as the reference model the row buffer is checked
    /// against. `order` is test bookkeeping, not part of that design: the
    /// first-touch order the buffer promises, which the map cannot tell.
    struct ReferenceSparse {
        rows: HashMap<usize, Vec<f32>>,
        cols: usize,
        order: Vec<usize>,
    }

    impl ReferenceSparse {
        fn new(cols: usize) -> Self {
            Self { rows: HashMap::new(), cols, order: Vec::new() }
        }

        fn add_scaled_row(&mut self, row: usize, grad: &[f32], scale: f32) {
            assert_eq!(grad.len(), self.cols);
            if !self.rows.contains_key(&row) {
                self.order.push(row);
            }
            let entry = self.rows.entry(row).or_insert_with(|| vec![0.0; self.cols]);
            for (e, g) in entry.iter_mut().zip(grad) {
                *e += scale * g;
            }
        }

        fn merge(&mut self, other: ReferenceSparse) {
            assert_eq!(self.cols, other.cols);
            for &row in &other.order {
                if !self.rows.contains_key(&row) {
                    self.order.push(row);
                }
            }
            for (row, grad) in other.rows {
                match self.rows.get_mut(&row) {
                    Some(entry) => {
                        for (e, g) in entry.iter_mut().zip(&grad) {
                            *e += g;
                        }
                    }
                    None => {
                        self.rows.insert(row, grad);
                    }
                }
            }
        }

        fn to_dense(&self, rows: usize) -> Matrix {
            let mut out = Matrix::zeros(rows, self.cols);
            for (&r, g) in &self.rows {
                for (o, v) in out.row_mut(r).iter_mut().zip(g) {
                    *o += v;
                }
            }
            out
        }
    }

    /// A `GradStore` and its reference, driven in lockstep.
    #[derive(Default)]
    struct Mirrored {
        store: GradStore,
        reference: HashMap<usize, ReferenceSparse>,
    }

    impl Mirrored {
        fn accumulate_scaled_row(&mut self, param: usize, row: usize, grad: &[f32], scale: f32) {
            self.store.accumulate_scaled_row(ParamId(param), row, grad, scale);
            let entry = self.reference.entry(param).or_insert_with(|| ReferenceSparse::new(grad.len()));
            entry.add_scaled_row(row, grad, scale);
        }

        fn accumulate_sparse(&mut self, param: usize, indices: &[usize], rows: &Matrix) {
            if indices.len().is_multiple_of(2) {
                self.store.accumulate_sparse(ParamId(param), indices, rows);
            } else {
                self.store.accumulate_sparse_rows(ParamId(param), indices, rows.as_slice(), rows.cols());
            }
            let entry = self.reference.entry(param).or_insert_with(|| ReferenceSparse::new(rows.cols()));
            for (i, &row) in indices.iter().enumerate() {
                entry.add_scaled_row(row, rows.row(i), 1.0);
            }
        }

        fn merge(&mut self, other: Mirrored) {
            self.store.merge(other.store);
            self.merge_reference(other.reference);
        }

        /// The borrowing merge, after which `other` is cleared for reuse
        /// (the trainer's lane stores).
        fn merge_from_and_clear(&mut self, other: &mut Mirrored) {
            self.store.merge_from(&other.store);
            other.store.clear();
            self.merge_reference(std::mem::take(&mut other.reference));
        }

        fn merge_reference(&mut self, other: HashMap<usize, ReferenceSparse>) {
            for (param, grad) in other {
                match self.reference.get_mut(&param) {
                    Some(existing) => existing.merge(grad),
                    None => {
                        self.reference.insert(param, grad);
                    }
                }
            }
        }
    }

    const STORE_ROWS: usize = 24;
    const PARAM_WIDTHS: [usize; 3] = [1, 3, 8];

    /// Gradient values with exact zeros of both signs mixed in: rows start
    /// at `+0.0`, so both designs must turn a `-0.0` contribution into the
    /// same bits.
    fn draw_value(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        }
    }

    fn draw_row(rng: &mut StdRng, cols: usize) -> Vec<f32> {
        (0..cols).map(|_| draw_value(rng)).collect()
    }

    /// One random accumulation into `target`: a scaled single row or an
    /// `accumulate_sparse` block with repeated indices, on one of the params.
    fn accumulate_random(target: &mut Mirrored, rng: &mut StdRng) {
        let param = rng.gen_range(0..PARAM_WIDTHS.len());
        let cols = PARAM_WIDTHS[param];
        // A narrow row range makes repeated rows the common case.
        if rng.gen_bool(0.5) {
            let row = rng.gen_range(0..STORE_ROWS);
            let scale = [1.0, -1.0, 0.0, 0.37][rng.gen_range(0..4)];
            target.accumulate_scaled_row(param, row, &draw_row(rng, cols), scale);
        } else {
            let n = rng.gen_range(1..6);
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..STORE_ROWS)).collect();
            let rows = Matrix::from_vec(n, cols, (0..n * cols).map(|_| draw_value(rng)).collect());
            target.accumulate_sparse(param, &indices, &rows);
        }
    }

    fn assert_matches_reference(mirrored: &Mirrored) {
        for (param, &cols) in PARAM_WIDTHS.iter().enumerate() {
            let id = ParamId(param);
            let (Some(grad), Some(reference)) = (mirrored.store.sparse(id), mirrored.reference.get(&param)) else {
                assert!(mirrored.store.sparse(id).is_none() && !mirrored.reference.contains_key(&param));
                continue;
            };
            assert_eq!(grad.cols(), cols);
            assert_eq!(grad.touched_rows(), reference.rows.len());
            let dense = grad.to_dense(STORE_ROWS);
            let ref_dense = reference.to_dense(STORE_ROWS);
            assert!(dense.as_slice().iter().zip(ref_dense.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
            let rows: Vec<usize> = grad.iter().map(|(r, _)| r).collect();
            assert_eq!(rows, reference.order, "each touched row once, in first-touch order");
            for (row, values) in grad.iter() {
                let expected = &reference.rows[&row];
                assert!(values.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits()), "row {row}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row buffer against the per-row-`Vec` map it replaced: random
        /// streams of single-row and block accumulations into a running store
        /// and into block stores merged in (the trainer's per-block merge,
        /// consuming or borrowing and clearing the block store for reuse),
        /// across params of different widths. Every accumulated bit, the
        /// touched-row count and the first-touch iteration order must agree.
        #[test]
        fn grad_store_matches_the_per_row_map_reference(seed in 0u64..1 << 40, ops in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut running = Mirrored::default();
            let mut block = Mirrored::default();
            for _ in 0..ops {
                match rng.gen_range(0..6) {
                    0 | 1 => accumulate_random(&mut running, &mut rng),
                    2 | 3 => accumulate_random(&mut block, &mut rng),
                    4 => running.merge(std::mem::take(&mut block)),
                    _ => running.merge_from_and_clear(&mut block),
                }
            }
            running.merge(block);
            assert_matches_reference(&running);
        }
    }
}
