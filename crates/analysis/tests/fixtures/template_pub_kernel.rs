macro_rules! simd_tier_kernels {
    ($features:literal) => {
        // SAFETY: detection-guarded by the dispatcher.
        #[target_feature(enable = $features)]
        pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }
    };
}
