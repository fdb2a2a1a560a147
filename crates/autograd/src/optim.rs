//! The optimizer: Adam, with lazy/sparse updates for embedding tables (the
//! paper trains all models with Adam).
//!
//! Adam reads a sparse gradient as a *row set*: a table, its touched row ids
//! and one flat buffer holding each row's gradient in the same order
//! ([`RowSet`]). A [`GradStore`]'s sparse entries are row sets already, and
//! a caller that sums its rows elsewhere (the HAM trainer's per-batch
//! workspace) hands them over through [`Adam::step_with_rows`] without
//! copying them into a store first. Both go through one per-row body, which
//! prefetches the value and moment rows a few rows ahead: the rows of a
//! sparse step are scattered over the tables, so each one would otherwise
//! wait for memory.

use crate::params::{GradStore, ParamId, ParamStore};
use ham_tensor::{prefetch, Matrix};
use std::collections::HashMap;

/// Rows of a row set ahead of the one being updated whose value and moment
/// rows are prefetched (three rows of 128 bytes each at d = 32). A scratch
/// sweep of 2, 4 and 8 (3 epochs of HAMs_m on the ML-1M profile, 2-vCPU
/// AVX-512 host) read all three within run-to-run noise.
const PREFETCH_ROWS_AHEAD: usize = 4;

/// One table's sparse gradient in flat form: `values[k * cols..][..cols]` is
/// the gradient of row `rows[k]`, `cols` being the table's width. Within one
/// step a row appears at most once across all the sets of a table.
#[derive(Debug, Clone, Copy)]
pub struct RowSet<'a> {
    /// The table.
    pub id: ParamId,
    /// The touched row ids.
    pub rows: &'a [usize],
    /// Their gradients, one row of the table's width each, in `rows` order.
    pub values: &'a [f32],
}

/// Configuration of the [`Adam`] optimizer.
///
/// Defaults follow the paper's Appendix B: learning rate `1e-3`,
/// regularization factor `1e-3`, and the standard Adam moment decay rates.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Step size.
    pub learning_rate: f32,
    /// Exponential decay rate of the first-moment estimate.
    pub beta1: f32,
    /// Exponential decay rate of the second-moment estimate.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub epsilon: f32,
    /// Decoupled L2 weight decay (the paper's `λ‖Θ‖²` regularizer).
    pub weight_decay: f32,
    /// Bias-correct each sparse row by its **own** update count instead of
    /// the optimizer's global step count.
    ///
    /// With the default global correction, a row whose moments are lazily
    /// created at global step `t` is divided by `1 - βᵗ ≈ 1`, so a cold row
    /// warm-started late (an item first seen mid-stream in online training)
    /// gets an effectively *uncorrected* — i.e. several times oversized —
    /// first update. Per-row correction gives every row the same damped
    /// first-step magnitude it would have had at step 1.
    ///
    /// `false` by default: offline training from scratch touches hot rows
    /// within the first few steps, where the two schemes are numerically
    /// close, and the batched-trainer bit-exactness pins rely on the global
    /// behaviour. The online trainer turns this on.
    pub per_row_bias_correction: bool,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 1e-3,
            per_row_bias_correction: false,
        }
    }
}

/// Adam optimizer with sparse (per-touched-row) updates for embedding tables.
///
/// Rows of an embedding table that did not appear in the current mini-batch
/// are left untouched (lazy Adam); weight decay is likewise only applied to
/// touched rows, which is the standard behaviour for sparse recommenders and
/// avoids decaying embeddings of items that are never observed. Touched rows
/// are updated in their gradient's first-touch order, each exactly once; every
/// element's update is independent of that order.
#[derive(Debug)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    /// First / second moment estimates, keyed by parameter index.
    m: HashMap<usize, Matrix>,
    v: HashMap<usize, Matrix>,
    /// Per-row update counts of sparse tables, keyed by parameter index;
    /// only maintained when [`AdamConfig::per_row_bias_correction`] is on.
    row_steps: HashMap<usize, Vec<u64>>,
}

/// A snapshot of an [`Adam`] optimizer's mutable state (step counter, moment
/// estimates, per-row step counts), used to warm-start a later training run
/// — e.g. the next incremental round of an online trainer, or the same
/// stream resumed in a fresh process.
#[derive(Debug, Clone, Default)]
pub struct AdamState {
    step: u64,
    m: HashMap<usize, Matrix>,
    v: HashMap<usize, Matrix>,
    row_steps: HashMap<usize, Vec<u64>>,
}

impl AdamState {
    /// The global step count recorded in this snapshot.
    pub fn steps(&self) -> u64 {
        self.step
    }
}

impl Adam {
    /// Creates an Adam optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, step: 0, m: HashMap::new(), v: HashMap::new(), row_steps: HashMap::new() }
    }

    /// Recreates an optimizer from a state snapshot: stepping the resumed
    /// optimizer is bit-identical to stepping the one that exported `state`.
    pub fn resume(config: AdamConfig, state: AdamState) -> Self {
        Self { config, step: state.step, m: state.m, v: state.v, row_steps: state.row_steps }
    }

    /// Snapshots the optimizer's mutable state for a later [`Adam::resume`].
    pub fn export_state(&self) -> AdamState {
        AdamState { step: self.step, m: self.m.clone(), v: self.v.clone(), row_steps: self.row_steps.clone() }
    }

    /// The number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }
}

/// The moment matrices of `id`, created on first touch and grown row-wise
/// (zero-filled, like a fresh lazy row) when the parameter gained rows since
/// the last step — embedding tables grow when unseen users/items arrive in an
/// online stream. Takes the two maps rather than `&mut Adam` so the sparse
/// path can borrow the per-row step counts beside them.
fn moments<'a>(
    m: &'a mut HashMap<usize, Matrix>,
    v: &'a mut HashMap<usize, Matrix>,
    id: ParamId,
    shape: (usize, usize),
) -> (&'a mut Matrix, &'a mut Matrix) {
    let m = m.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
    let v = v.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
    if m.rows() < shape.0 {
        m.resize_rows(shape.0);
        v.resize_rows(shape.0);
    }
    (m, v)
}

impl Adam {
    /// Applies one update step using the gradients in `grads`.
    pub fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        self.step_with_rows(params, grads, &[]);
    }

    /// One step over `grads` and the row sets `row_sets` together: the step
    /// count rises once, and every dense gradient, sparse row of `grads` and
    /// row of `row_sets` is applied with that step's bias correction (or its
    /// row's own, under [`AdamConfig::per_row_bias_correction`]).
    /// [`Adam::step`] is this with no row sets. A table may appear both
    /// in `grads` and in `row_sets`, and in several sets, as long as no row
    /// appears twice.
    ///
    /// # Panics
    /// Panics if a gradient's width or a row set's buffer length does not
    /// match its table.
    pub fn step_with_rows(&mut self, params: &mut ParamStore, grads: &GradStore, row_sets: &[RowSet<'_>]) {
        self.step += 1;
        let t = self.step as f32;
        let c = self.config;
        let bias = (1.0 - c.beta1.powf(t), 1.0 - c.beta2.powf(t));

        // `grads`, the moments and the parameter values live in three
        // distinct structures, so every gradient is read in place.
        for id in grads.dense_ids() {
            let shape = params.value(id).shape();
            let grad = grads.dense(id).expect("dense id must have a dense grad");
            assert_eq!(grad.shape(), shape, "Adam: dense gradient shape mismatch for {}", params.name(id));
            let (m, v) = moments(&mut self.m, &mut self.v, id, shape);
            let value = params.value_mut(id).as_mut_slice();
            adam_update(&c, bias.0, bias.1, value, m.as_mut_slice(), v.as_mut_slice(), grad.as_slice());
        }

        for id in grads.sparse_ids() {
            let sparse = grads.sparse(id).expect("sparse id must have a sparse grad");
            assert_eq!(
                sparse.cols(),
                params.value(id).cols(),
                "Adam: sparse gradient width mismatch for {}",
                params.name(id)
            );
            self.apply_rows(params, RowSet { id, rows: sparse.row_ids(), values: sparse.values() }, bias);
        }
        for &set in row_sets.iter().filter(|set| !set.rows.is_empty()) {
            self.apply_rows(params, set, bias);
        }
    }

    /// The per-row body of a sparse step: each row of `set`, with the step's
    /// bias correction `bias` or the row's own.
    fn apply_rows(&mut self, params: &mut ParamStore, set: RowSet<'_>, bias: (f32, f32)) {
        let c = self.config;
        let shape = params.value(set.id).shape();
        let cols = shape.1;
        assert_eq!(
            set.values.len(),
            set.rows.len() * cols,
            "Adam: row set of {} holds {} values for {} rows of width {cols}",
            params.name(set.id),
            set.values.len(),
            set.rows.len()
        );
        let (m, v) = moments(&mut self.m, &mut self.v, set.id, shape);
        let mut row_steps = c.per_row_bias_correction.then(|| {
            let steps = self.row_steps.entry(set.id.index()).or_default();
            if steps.len() < shape.0 {
                steps.resize(shape.0, 0);
            }
            steps
        });
        let (value, m, v) = (params.value_mut(set.id).as_mut_slice(), m.as_mut_slice(), v.as_mut_slice());
        // Each row appears exactly once, so the per-row counts (and every
        // updated value) do not depend on the iteration order.
        // ham-lint: hot-path
        for (k, (&row, grad_row)) in set.rows.iter().zip(set.values.chunks_exact(cols)).enumerate() {
            if let Some(&ahead) = set.rows.get(k + PREFETCH_ROWS_AHEAD) {
                let (lo, hi) = (ahead * cols, (ahead + 1) * cols);
                if hi <= value.len() {
                    prefetch::slice(&value[lo..hi]);
                    prefetch::slice(&m[lo..hi]);
                    prefetch::slice(&v[lo..hi]);
                }
            }
            let (bias1, bias2) = match row_steps.as_mut() {
                Some(steps) => {
                    steps[row] += 1;
                    let rt = steps[row] as f32;
                    (1.0 - c.beta1.powf(rt), 1.0 - c.beta2.powf(rt))
                }
                None => bias,
            };
            let (lo, hi) = (row * cols, (row + 1) * cols);
            adam_update(&c, bias1, bias2, &mut value[lo..hi], &mut m[lo..hi], &mut v[lo..hi], grad_row);
        }
    }
}

/// One Adam update over matching slices of a parameter, its two moments and
/// its gradient. Each element is independent and computed by the same
/// expression in the same order as an element-by-element loop, so zipping
/// the slices changes no bit — it only lets the loop vectorise.
// ham-lint: hot-path
fn adam_update(c: &AdamConfig, bias1: f32, bias2: f32, value: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32]) {
    for (((x, m), v), &raw_g) in value.iter_mut().zip(m).zip(v).zip(grad) {
        let g = raw_g + c.weight_decay * *x;
        let mi = c.beta1 * *m + (1.0 - c.beta1) * g;
        let vi = c.beta2 * *v + (1.0 - c.beta2) * g * g;
        *m = mi;
        *v = vi;
        let m_hat = mi / bias1;
        let v_hat = vi / bias2;
        *x -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Minimises `(w - 3)^2` with Adam and checks convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = ParamStore::new();
        let w = params.add_dense("w", Matrix::full(1, 1, 0.0));
        let mut adam = Adam::new(AdamConfig { learning_rate: 0.1, weight_decay: 0.0, ..Default::default() });
        for _ in 0..500 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let target = g.constant(Matrix::full(1, 1, 3.0));
            let diff = g.sub(wv, target);
            let sq = g.hadamard(diff, diff);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            adam.step(&mut params, &grads);
        }
        assert!((params.value(w).get(0, 0) - 3.0).abs() < 0.05);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn sparse_adam_only_touches_gradient_rows() {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::full(4, 2, 1.0));
        let mut grads = GradStore::new();
        grads.accumulate_sparse(v, &[1], &Matrix::row_vector(&[1.0, -1.0]));
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut params, &grads);
        let value = params.value(v);
        // untouched rows keep their original values exactly
        assert_eq!(value.row(0), &[1.0, 1.0]);
        assert_eq!(value.row(2), &[1.0, 1.0]);
        assert_eq!(value.row(3), &[1.0, 1.0]);
        // the touched row moved opposite to the gradient sign
        assert!(value.get(1, 0) < 1.0);
        assert!(value.get(1, 1) > 1.0);
    }

    /// Trains row 0 for `steps - 1` steps, then touches row 1 for the first
    /// time on the final global step (same gradient as row 0's first step).
    /// Returns the first-update magnitudes of (row 0 at step 1, row 1 at
    /// step `steps`).
    fn cold_row_first_updates(steps: usize, per_row: bool) -> (f32, f32) {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::zeros(2, 1));
        let config = AdamConfig { weight_decay: 0.0, per_row_bias_correction: per_row, ..Default::default() };
        let mut adam = Adam::new(config);
        let g = Matrix::row_vector(&[0.5]);
        let mut first_update_row0 = 0.0;
        for step in 1..=steps {
            let mut grads = GradStore::new();
            grads.accumulate_sparse(v, &[0], &g);
            if step == steps {
                grads.accumulate_sparse(v, &[1], &g);
            }
            adam.step(&mut params, &grads);
            if step == 1 {
                first_update_row0 = params.value(v).get(0, 0).abs();
            }
        }
        (first_update_row0, params.value(v).get(1, 0).abs())
    }

    /// The cold-row bugfix: with per-row bias correction, a row first touched
    /// at a late global step gets exactly the damped first update a row
    /// touched at step 1 gets; with the global correction its first update is
    /// oversized by up to `(1-β₁)/√(1-β₂) ≈ 3.16x`.
    #[test]
    fn per_row_correction_equalises_cold_row_first_updates() {
        for steps in [100, 2000] {
            let (warm, cold) = cold_row_first_updates(steps, true);
            assert_eq!(warm.to_bits(), cold.to_bits(), "per-row: cold row at step {steps} must match step 1 exactly");
        }
        // Contrast: under the global correction the same cold row's first
        // update is several times too large once `1 - β₂ᵗ` has saturated.
        let (warm, cold) = cold_row_first_updates(2000, false);
        assert!(cold > 2.0 * warm, "global correction should overshoot cold rows: warm {warm}, cold {cold}");
    }

    /// Resuming from an exported state is bit-identical to never pausing.
    #[test]
    fn export_and_resume_match_uninterrupted_training() {
        let grad = Matrix::row_vector(&[0.3, -0.7]);
        let run = |resume_at: Option<usize>| {
            let mut params = ParamStore::new();
            let v = params.add_embedding("V", Matrix::full(3, 2, 1.0));
            let config = AdamConfig { per_row_bias_correction: true, ..Default::default() };
            let mut adam = Adam::new(config);
            for step in 0..20 {
                if resume_at == Some(step) {
                    adam = Adam::resume(config, adam.export_state());
                }
                let mut grads = GradStore::new();
                grads.accumulate_sparse(v, &[step % 3], &grad);
                adam.step(&mut params, &grads);
            }
            (adam.steps(), params.value(v).clone())
        };
        let (steps_a, a) = run(None);
        let (steps_b, b) = run(Some(11));
        assert_eq!(steps_a, steps_b);
        assert!(a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// Growing an embedding table between steps grows the moment matrices
    /// too; the new rows behave like freshly lazy-created ones.
    #[test]
    fn moments_grow_with_the_parameter_table() {
        let mut params = ParamStore::new();
        let v = params.add_embedding("V", Matrix::zeros(2, 2));
        let config = AdamConfig { weight_decay: 0.0, per_row_bias_correction: true, ..Default::default() };
        let mut adam = Adam::new(config);
        let g = Matrix::row_vector(&[1.0, -1.0]);
        let mut grads = GradStore::new();
        grads.accumulate_sparse(v, &[0], &g);
        adam.step(&mut params, &grads);
        let first_update = params.value(v).get(0, 0).abs();
        // the table gains two rows mid-stream
        params.append_rows(v, &Matrix::zeros(2, 2));
        let mut grads = GradStore::new();
        grads.accumulate_sparse(v, &[3], &g);
        adam.step(&mut params, &grads);
        let grown_update = params.value(v).get(3, 0).abs();
        assert_eq!(first_update.to_bits(), grown_update.to_bits(), "a grown row's first update matches a cold start");
        assert_eq!(params.value(v).row(2), &[0.0, 0.0], "untouched grown row stays zero");
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient_signal() {
        let mut params = ParamStore::new();
        let w = params.add_dense("w", Matrix::full(1, 1, 1.0));
        let mut adam = Adam::new(AdamConfig { weight_decay: 0.1, ..Default::default() });
        for _ in 0..50 {
            let mut grads = GradStore::new();
            grads.accumulate_dense(w, &Matrix::zeros(1, 1));
            adam.step(&mut params, &grads);
        }
        assert!(params.value(w).get(0, 0) < 1.0);
    }

    /// The previous Adam, which indexed value, moments and gradient element
    /// by element; the reference the slice-wise update is pinned against.
    struct ReferenceAdam {
        config: AdamConfig,
        step: u64,
        m: HashMap<usize, Matrix>,
        v: HashMap<usize, Matrix>,
        row_steps: HashMap<usize, Vec<u64>>,
    }

    impl ReferenceAdam {
        fn new(config: AdamConfig) -> Self {
            Self { config, step: 0, m: HashMap::new(), v: HashMap::new(), row_steps: HashMap::new() }
        }

        fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
            self.step += 1;
            let t = self.step as f32;
            let c = self.config;
            let bias1 = 1.0 - c.beta1.powf(t);
            let bias2 = 1.0 - c.beta2.powf(t);
            let dense_ids: Vec<ParamId> = grads.dense_ids().collect();
            for id in dense_ids {
                let shape = params.value(id).shape();
                let grad = grads.dense(id).unwrap().clone();
                let m = self.m.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
                let v = self.v.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
                if m.rows() < shape.0 {
                    m.resize_rows(shape.0);
                    v.resize_rows(shape.0);
                }
                let value = params.value_mut(id);
                for i in 0..value.len() {
                    let g = grad.as_slice()[i] + c.weight_decay * value.as_slice()[i];
                    let mi = c.beta1 * m.as_slice()[i] + (1.0 - c.beta1) * g;
                    let vi = c.beta2 * v.as_slice()[i] + (1.0 - c.beta2) * g * g;
                    m.as_mut_slice()[i] = mi;
                    v.as_mut_slice()[i] = vi;
                    let m_hat = mi / bias1;
                    let v_hat = vi / bias2;
                    value.as_mut_slice()[i] -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
                }
            }
            let sparse_ids: Vec<ParamId> = grads.sparse_ids().collect();
            for id in sparse_ids {
                let shape = params.value(id).shape();
                let sparse = grads.sparse(id).unwrap();
                let m = self.m.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
                let v = self.v.entry(id.index()).or_insert_with(|| Matrix::zeros(shape.0, shape.1));
                if m.rows() < shape.0 {
                    m.resize_rows(shape.0);
                    v.resize_rows(shape.0);
                }
                let mut row_steps = c.per_row_bias_correction.then(|| {
                    let steps = self.row_steps.entry(id.index()).or_default();
                    if steps.len() < shape.0 {
                        steps.resize(shape.0, 0);
                    }
                    steps
                });
                let value = params.value_mut(id);
                let cols = shape.1;
                for (row, grad_row) in sparse.iter() {
                    let (bias1, bias2) = match row_steps.as_mut() {
                        Some(steps) => {
                            steps[row] += 1;
                            let rt = steps[row] as f32;
                            (1.0 - c.beta1.powf(rt), 1.0 - c.beta2.powf(rt))
                        }
                        None => (bias1, bias2),
                    };
                    for (col, &raw_g) in grad_row.iter().enumerate() {
                        let i = row * cols + col;
                        let g = raw_g + c.weight_decay * value.as_slice()[i];
                        let mi = c.beta1 * m.as_slice()[i] + (1.0 - c.beta1) * g;
                        let vi = c.beta2 * v.as_slice()[i] + (1.0 - c.beta2) * g * g;
                        m.as_mut_slice()[i] = mi;
                        v.as_mut_slice()[i] = vi;
                        let m_hat = mi / bias1;
                        let v_hat = vi / bias2;
                        value.as_mut_slice()[i] -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
                    }
                }
            }
        }
    }

    fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape() && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// One random step's gradients: a dense gradient for `w` on most steps,
    /// and sparse rows of `e` (repeats included) below its current height.
    fn random_grads(rng: &mut StdRng, params: &ParamStore, w: ParamId, e: ParamId) -> GradStore {
        let mut grads = GradStore::new();
        if rng.gen_bool(0.8) {
            let (rows, cols) = params.value(w).shape();
            let values = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            grads.accumulate_dense(w, &Matrix::from_vec(rows, cols, values));
        }
        let (height, cols) = params.value(e).shape();
        for _ in 0..rng.gen_range(0..12) {
            let row = rng.gen_range(0..height);
            let grad: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            grads.accumulate_scaled_row(e, row, &grad, rng.gen_range(-1.5f32..1.5));
        }
        grads
    }

    /// Seeded parameters: a dense `w` and an embedding table `e` whose width
    /// is not a multiple of any SIMD lane count.
    fn pin_params(rng: &mut StdRng) -> (ParamStore, ParamId, ParamId) {
        let mut params = ParamStore::new();
        let w = params.add_dense("w", Matrix::xavier_uniform(3, 5, rng));
        let e = params.add_embedding("e", Matrix::xavier_uniform(12, 11, rng));
        (params, w, e)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The slice-wise Adam against the element-by-element one: seeded
        /// streams of dense and sparse gradients, global or per-row bias
        /// correction, and a table that grows mid-stream. Parameters and
        /// exported moments (and per-row step counts) stay bit-equal.
        #[test]
        fn adam_matches_the_element_loop_reference_bit_for_bit(seed in 0u64..1 << 40, per_row in 0usize..2, steps in 1usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut params, w, e) = pin_params(&mut rng);
            let mut reference_params = params.clone();
            let config = AdamConfig { learning_rate: 0.05, weight_decay: 0.01, per_row_bias_correction: per_row == 1, ..AdamConfig::default() };
            let mut adam = Adam::new(config);
            let mut reference = ReferenceAdam::new(config);
            let grow_at = rng.gen_range(0..steps);
            for step in 0..steps {
                if step == grow_at {
                    let rows = Matrix::xavier_uniform(5, params.value(e).cols(), &mut rng);
                    params.append_rows(e, &rows);
                    reference_params.append_rows(e, &rows);
                }
                let grads = random_grads(&mut rng, &params, w, e);
                adam.step(&mut params, &grads);
                reference.step(&mut reference_params, &grads);
            }
            for id in [w, e] {
                prop_assert!(bits_equal(params.value(id), reference_params.value(id)), "{} drifted", params.name(id));
            }
            let state = adam.export_state();
            prop_assert_eq!(state.step, reference.step);
            prop_assert_eq!(&state.row_steps, &reference.row_steps);
            for id in [w, e] {
                let key = id.index();
                prop_assert!(bits_equal(&state.m[&key], &reference.m[&key]), "first moment of {}", params.name(id));
                prop_assert!(bits_equal(&state.v[&key], &reference.v[&key]), "second moment of {}", params.name(id));
            }
        }

        /// `Adam::step_with_rows` against `Adam::step` over the same
        /// gradients gathered into a `GradStore`: random row sets of two
        /// tables that share row ids, a table split over two sets, a dense
        /// gradient beside them, tables grown between steps, per-row bias
        /// correction on and off and weight decay zero and non-zero.
        /// Parameters, moments and per-row step counts stay bit-equal.
        #[test]
        fn adam_row_sets_step_like_the_grad_store(
            seed in 0u64..1 << 40,
            per_row in 0usize..2,
            decay in 0usize..2,
            steps in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut params, w, e) = pin_params(&mut rng);
            let f = params.add_embedding("f", Matrix::xavier_uniform(9, 11, &mut rng));
            let mut store_params = params.clone();
            let config = AdamConfig {
                learning_rate: 0.05,
                weight_decay: [0.0, 0.01][decay],
                per_row_bias_correction: per_row == 1,
                ..AdamConfig::default()
            };
            let (mut by_rows, mut by_store) = (Adam::new(config), Adam::new(config));
            for _ in 0..steps {
                if rng.gen_bool(0.2) {
                    let table = if rng.gen_bool(0.5) { e } else { f };
                    let rows = Matrix::xavier_uniform(rng.gen_range(1..4), 11, &mut rng);
                    params.append_rows(table, &rows);
                    store_params.append_rows(table, &rows);
                }
                // Distinct rows per table, in random order; `e`'s split over
                // two sets, `f`'s in one. The ids overlap across tables.
                let mut sets: Vec<(ParamId, Vec<usize>, Vec<f32>)> = Vec::new();
                for table in [e, f] {
                    let height = params.value(table).rows();
                    let mut ids: Vec<usize> = (0..height).filter(|_| rng.gen_bool(0.4)).collect();
                    ids.shuffle(&mut rng);
                    let cut = if table == e { rng.gen_range(0..ids.len() + 1) } else { ids.len() };
                    for part in [&ids[..cut], &ids[cut..]] {
                        let values = (0..part.len() * 11).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                        sets.push((table, part.to_vec(), values));
                    }
                }
                let mut dense = GradStore::new();
                if rng.gen_bool(0.7) {
                    let values = (0..15).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                    dense.accumulate_dense(w, &Matrix::from_vec(3, 5, values));
                }
                let row_sets: Vec<RowSet<'_>> =
                    sets.iter().map(|(id, rows, values)| RowSet { id: *id, rows, values }).collect();
                by_rows.step_with_rows(&mut params, &dense, &row_sets);
                for (id, rows, values) in &sets {
                    dense.accumulate_sparse_rows(*id, rows, values, 11);
                }
                by_store.step(&mut store_params, &dense);
            }
            for id in [w, e, f] {
                prop_assert!(bits_equal(params.value(id), store_params.value(id)), "{} drifted", params.name(id));
            }
            let (a, b) = (by_rows.export_state(), by_store.export_state());
            prop_assert_eq!(a.step, b.step);
            prop_assert_eq!(&a.row_steps, &b.row_steps);
            prop_assert_eq!(a.m.len(), b.m.len());
            for (key, m) in &a.m {
                prop_assert!(bits_equal(m, &b.m[key]), "first moment of parameter {key}");
                prop_assert!(bits_equal(&a.v[key], &b.v[key]), "second moment of parameter {key}");
            }
        }
    }
}
