const LANES: usize = 8;

simd_tier_kernels!("avx2,avx512f");
