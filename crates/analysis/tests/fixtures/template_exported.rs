#[macro_export]
macro_rules! simd_tier_kernels {
    ($features:literal) => {};
}

pub(crate) use simd_tier_kernels;
