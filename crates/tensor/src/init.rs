//! Random initialisation of embedding and weight matrices.
//!
//! All constructors take an explicit RNG so that every training run in the
//! workspace is reproducible from a single seed.

use crate::Matrix;
use rand::Rng;

impl Matrix {
    /// Uniform initialisation in `[low, high)`.
    pub fn uniform(rows: usize, cols: usize, low: f32, high: f32, rng: &mut impl Rng) -> Self {
        assert!(low < high, "uniform: low must be < high (got {low} >= {high})");
        let data = (0..rows * cols).map(|_| rng.gen_range(low..high)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Xavier/Glorot uniform initialisation: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// This is the initialisation used for all embedding and weight matrices
    /// in the reproduction (the reference implementation uses PyTorch's
    /// default linear-layer initialisation, which is the same family).
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let a = (6.0 / (rows as f32 + cols as f32)).sqrt();
        Self::uniform(rows, cols, -a, a, rng)
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = Matrix::xavier_uniform(4, 4, &mut rng);
        let large = Matrix::xavier_uniform(4000, 400, &mut rng);
        let max_small = small.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let max_large = large.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!(max_large < max_small, "larger fan-in should give smaller init range");
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Matrix::xavier_uniform(5, 7, &mut StdRng::seed_from_u64(42));
        let b = Matrix::xavier_uniform(5, 7, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
