macro_rules! stamp {
    ($features:literal) => {
        // SAFETY: detection-guarded by the dispatcher.
        #[target_feature(enable = $features)]
        unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }
    };
}
