//! Item synergies (Section 4.2.2 of the paper).
//!
//! Pairwise synergies are Hadamard products of item embeddings (Eq. 2); they
//! are aggregated per item (Eq. 3), averaged over the window (Eq. 4) and
//! extended to order-`p` synergies recursively (Eq. 5):
//!
//! ```text
//! c^(1)_j = v_j
//! c^(p)_j = Σ_{k≠j} c^(p-1)_j ∘ v_k
//! c^(p)   = mean_j c^(p)_j
//! ```
//!
//! Because `c^(p-1)_j` does not depend on the summation index `k`, the inner
//! sum factors into `c^(p-1)_j ∘ (S − v_j)` with `S = Σ_k v_k`, giving the
//! closed form used here:
//!
//! ```text
//! c^(p) = mean_j [ v_j ∘ (S − v_j)^{∘(p−1)} ]
//! ```
//!
//! The equivalence with the literal recursion is verified by the unit tests in
//! this module.
//!
//! `WindowAssociation` is the one statement of Eq. 1 pooling plus Eq. 5–6
//! that inference (`HamModel::association_vector`) and the analytic trainer
//! both evaluate: it reads the window's rows by id from the embedding table,
//! with no gathered temporary, and keeps the terms the backward pass needs.

use ham_tensor::{Matrix, Pooling};

/// Computes the order-`order` synergy vector `c^(order)` of the item
/// embeddings in `rows` (one embedding per row).
///
/// `order == 1` returns the mean embedding (`c^(1) = mean_j v_j`), matching
/// the recursion's base case; synergies proper start at `order == 2`.
///
/// # Panics
/// Panics if `order == 0` or `rows` is empty.
pub fn synergy_vector(rows: &Matrix, order: usize) -> Vec<f32> {
    assert!(order >= 1, "synergy_vector: order must be >= 1");
    assert!(rows.rows() > 0, "synergy_vector: the item window must not be empty");
    let window: Vec<usize> = (0..rows.rows()).collect();
    let mut association = WindowAssociation::new(rows.cols(), Pooling::Mean, order);
    association.compute(rows, &window);
    if order == 1 {
        association.pooled
    } else {
        association.synergies.split_off((order - 2) * rows.cols())
    }
}

/// Computes every synergy vector `c^(2) … c^(max_order)`.
/// Returns an empty vector when `max_order < 2`.
pub fn synergy_terms(rows: &Matrix, max_order: usize) -> Vec<Vec<f32>> {
    (2..=max_order).map(|p| synergy_vector(rows, p)).collect()
}

/// Applies the latent-cross combination of Eq. 6:
/// `s = h + Σ_k c^(k) ∘ h`.
pub fn apply_latent_cross(h: &[f32], synergies: &[Vec<f32>]) -> Vec<f32> {
    let mut s = h.to_vec();
    for c in synergies {
        assert_eq!(c.len(), h.len(), "apply_latent_cross: dimension mismatch");
        add_cross(&mut s, c, h);
    }
    s
}

/// `s += c ∘ h`, one latent-cross term of Eq. 6.
fn add_cross(s: &mut [f32], c: &[f32], h: &[f32]) {
    for ((s_i, &c_i), &h_i) in s.iter_mut().zip(c).zip(h) {
        *s_i += c_i * h_i;
    }
}

/// Pools the rows of `window`, read by id from `table`, straight into `out`:
/// sum-then-scale for mean pooling (the accumulation order of
/// `mean_pool_rows`, `argmax` unused), or a strict-greater max with
/// first-wins ties that records the per-dimension arg-max window positions
/// into `argmax` (length `d`).
pub(crate) fn pool_window_into(
    table: &Matrix,
    window: &[usize],
    pooling: Pooling,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    match pooling {
        Pooling::Mean => {
            out.fill(0.0);
            for &item in window {
                for (o, v) in out.iter_mut().zip(table.row(item)) {
                    *o += v;
                }
            }
            let inv = 1.0 / window.len() as f32;
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
        Pooling::Max => {
            out.copy_from_slice(table.row(window[0]));
            argmax.fill(0);
            for (position, &item) in window.iter().enumerate().skip(1) {
                for (c, &v) in table.row(item).iter().enumerate() {
                    if v > out[c] {
                        out[c] = v;
                        argmax[c] = position;
                    }
                }
            }
        }
    }
}

/// The high-order association of one window — the pooled `h` (Eq. 1) and,
/// with synergies, `S` and `c^(2) … c^(p)` (Eq. 5) — kept so the analytic
/// trainer's backward pass reads the terms its forward pass combined.
#[derive(Debug, Clone)]
pub(crate) struct WindowAssociation {
    pooling: Pooling,
    order: usize,
    /// `h`, the pooled window embedding.
    pub(crate) pooled: Vec<f32>,
    /// Per-dimension arg-max window positions (empty under mean pooling).
    pub(crate) argmax: Vec<usize>,
    /// `S = Σ_k v_k` (empty without synergies).
    pub(crate) total: Vec<f32>,
    /// `c^(2) … c^(order)`, one length-`d` segment per order.
    pub(crate) synergies: Vec<f32>,
}

impl WindowAssociation {
    /// Buffers for width-`d` windows pooled by `pooling`, with synergies up
    /// to `order` (`1` = none).
    pub(crate) fn new(d: usize, pooling: Pooling, order: usize) -> Self {
        let argmax = vec![0; if pooling == Pooling::Max { d } else { 0 }];
        let total = vec![0.0; if order >= 2 { d } else { 0 }];
        let synergies = vec![0.0; (order - 1) * d];
        Self { pooling, order, pooled: vec![0.0; d], argmax, total, synergies }
    }

    /// The synergy order `p` (`1` = no synergies).
    pub(crate) fn order(&self) -> usize {
        self.order
    }

    /// Evaluates the terms of `window` (at least one item), read by id from
    /// `table`. Each `c^(p)` accumulates `v_j ∘ (S − v_j)^(p−1)` over the
    /// window in order, so computing all orders in one pass yields the bits
    /// of computing each alone.
    pub(crate) fn compute(&mut self, table: &Matrix, window: &[usize]) {
        if self.order < 2 {
            pool_window_into(table, window, self.pooling, &mut self.pooled, &mut self.argmax);
            return;
        }
        self.total.fill(0.0);
        for &item in window {
            for (t, x) in self.total.iter_mut().zip(table.row(item)) {
                *t += x;
            }
        }
        self.synergies.fill(0.0);
        for &item in window {
            let v = table.row(item);
            for (exponent, acc) in (1..).zip(self.synergies.chunks_exact_mut(v.len())) {
                if exponent == 1 {
                    // `powi(1)` is the identity bit for bit; this arm (the
                    // paper's order 2) keeps the loop vectorisable.
                    for ((a, &x), &t) in acc.iter_mut().zip(v).zip(&self.total) {
                        *a += x * (t - x);
                    }
                } else {
                    for ((a, &x), &t) in acc.iter_mut().zip(v).zip(&self.total) {
                        *a += x * (t - x).powi(exponent);
                    }
                }
            }
        }
        let inv = 1.0 / window.len() as f32;
        self.synergies.iter_mut().for_each(|a| *a *= inv);
        match self.pooling {
            // The mean's sum is `S` itself, accumulated in the same order.
            Pooling::Mean => {
                for (h, &t) in self.pooled.iter_mut().zip(&self.total) {
                    *h = t * inv;
                }
            }
            Pooling::Max => pool_window_into(table, window, self.pooling, &mut self.pooled, &mut self.argmax),
        }
    }

    /// Writes the association `s = h + Σ_p c^(p) ∘ h` (Eq. 6; `h` itself
    /// without synergies) into `out`, in `apply_latent_cross`'s order.
    pub(crate) fn association_into(&self, out: &mut [f32]) {
        out.copy_from_slice(&self.pooled);
        for c in self.synergies.chunks_exact(self.pooled.len()) {
            add_cross(out, c, &self.pooled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Literal implementation of Eq. 2–5 for cross-checking the closed form.
    fn brute_force_synergy(rows: &Matrix, order: usize) -> Vec<f32> {
        let (n, d) = rows.shape();
        // c^(1)_j = v_j
        let mut per_item: Vec<Vec<f32>> = (0..n).map(|j| rows.row(j).to_vec()).collect();
        for _ in 2..=order {
            let mut next: Vec<Vec<f32>> = Vec::with_capacity(n);
            for (j, prev) in per_item.iter().enumerate() {
                let mut acc = vec![0.0f32; d];
                for k in 0..n {
                    if k == j {
                        continue;
                    }
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += prev[c] * rows.get(k, c);
                    }
                }
                next.push(acc);
            }
            per_item = next;
        }
        let mut mean = vec![0.0f32; d];
        for item in &per_item {
            for (m, v) in mean.iter_mut().zip(item) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n as f32);
        mean
    }

    fn example_rows() -> Matrix {
        Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.5], &[-0.75, 1.0, 0.0], &[0.2, 0.3, 0.4]])
    }

    #[test]
    fn closed_form_matches_recursion_order2() {
        let rows = example_rows();
        let fast = synergy_vector(&rows, 2);
        let slow = brute_force_synergy(&rows, 2);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-5, "order 2 mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn closed_form_matches_recursion_order3_and_4() {
        let rows = example_rows();
        for order in [3, 4] {
            let fast = synergy_vector(&rows, order);
            let slow = brute_force_synergy(&rows, order);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-4, "order {order} mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn order_one_is_the_mean_embedding() {
        let rows = example_rows();
        let c1 = synergy_vector(&rows, 1);
        let mean = rows.mean_rows();
        assert_eq!(c1, mean);
    }

    #[test]
    fn pairwise_synergy_of_two_items_is_their_hadamard_product() {
        // With exactly two items, c^(2) = mean(v1∘v2, v2∘v1) = v1∘v2.
        let rows = Matrix::from_rows(&[&[2.0, 3.0], &[4.0, -1.0]]);
        let c2 = synergy_vector(&rows, 2);
        assert_eq!(c2, vec![8.0, -3.0]);
    }

    #[test]
    fn synergy_terms_collects_all_orders() {
        let rows = example_rows();
        let terms = synergy_terms(&rows, 4);
        assert_eq!(terms.len(), 3);
        assert!(synergy_terms(&rows, 1).is_empty());
        assert_eq!(terms[0], synergy_vector(&rows, 2));
    }

    #[test]
    fn latent_cross_with_no_synergies_is_identity() {
        let h = [1.0, 2.0, 3.0];
        assert_eq!(apply_latent_cross(&h, &[]), h.to_vec());
    }

    #[test]
    fn latent_cross_strengthens_aligned_dimensions() {
        let h = [1.0, 2.0];
        let synergies = vec![vec![0.5, -0.25]];
        // s = h + c ∘ h = [1 + 0.5, 2 - 0.5]
        assert_eq!(apply_latent_cross(&h, &synergies), vec![1.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_window_panics() {
        let _ = synergy_vector(&Matrix::zeros(0, 3), 2);
    }
}
