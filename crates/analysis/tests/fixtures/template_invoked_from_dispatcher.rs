mod avx2;
mod portable;

simd_tier_kernels!("avx2,fma");
