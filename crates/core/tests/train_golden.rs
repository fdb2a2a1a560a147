//! Golden hashes of trained parameters: HAMs_m and HAMx on the tiny profile
//! at batch 1 (the per-instance reference path), 64 (one gradient block) and
//! 300 (two blocks merged in order, inline and on two pool threads), trained
//! two epochs. The hashes were recorded from the trainer that allocated its
//! gradient buffers per block and deduplicated rows by sorting; any change to
//! the order in which a gradient is summed moves one. The values depend on the kernel tier the process dispatches to
//! (`dot` and `axpy` accumulate in a tier-specific order), so there is one
//! table per tier; `HAM_KERNEL_TIER` selects it.

use ham_core::{train, HamConfig, HamModel, HamVariant, TrainConfig};
use ham_data::synthetic::DatasetProfile;
use ham_tensor::kernels::{active_tier, KernelTier};

/// FNV-1a over the bits of every trained parameter, table by table.
fn parameter_hash(model: &HamModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for table in [model.user_embeddings(), model.input_item_embeddings(), model.candidate_item_embeddings()] {
        for value in table.as_slice() {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

const BATCH_SIZES: [usize; 3] = [1, 64, 300];

/// `(variant, [hash at each of BATCH_SIZES])` per tier. The two SIMD tiers
/// agree at `d = 16`; the portable tier sums in another order.
fn golden(tier: KernelTier) -> [(HamVariant, [u64; 3]); 2] {
    match tier {
        KernelTier::Portable => [
            (HamVariant::HamSM, [0xf69a_aa0b_7a97_448d, 0xbd11_4f98_0986_d020, 0xe895_4170_ea7b_8132]),
            (HamVariant::HamX, [0xb4c1_9c28_ef21_6c37, 0x77f7_22ef_0af5_bb78, 0xcd28_ea6e_fa72_1a69]),
        ],
        KernelTier::Avx2 | KernelTier::Avx512 => [
            (HamVariant::HamSM, [0x5eef_a12f_d6b7_67d3, 0x20eb_0576_f0f6_b1b9, 0xacae_874a_bb30_dd10]),
            (HamVariant::HamX, [0xfdfa_4bd2_0535_d6ae, 0x8d9b_885a_1945_2f7b, 0xd14f_4085_3626_4e07]),
        ],
    }
}

#[test]
fn trained_parameters_match_the_golden_hashes() {
    let data = DatasetProfile::tiny("train-golden").generate(4);
    let tier = active_tier();
    for (variant, hashes) in golden(tier) {
        let order = if variant == HamVariant::HamSM { 2 } else { 1 };
        let config = HamConfig::for_variant(variant).with_dimensions(16, 5, 2, 3, order);
        for (batch_size, expected) in BATCH_SIZES.into_iter().zip(hashes) {
            let tc = TrainConfig { epochs: 2, batch_size, ..TrainConfig::default() };
            let hash = parameter_hash(&train(&data.sequences, data.num_items, &config, &tc, 8));
            assert_eq!(hash, expected, "{tier} {variant:?} batch {batch_size}");
            let threaded = TrainConfig { num_threads: 2, ..tc };
            let hash = parameter_hash(&train(&data.sequences, data.num_items, &config, &threaded, 8));
            assert_eq!(hash, expected, "{tier} {variant:?} batch {batch_size} on two threads");
        }
    }
}
