//! Golden hashes of scores: `score_all` and `score_batch` of every model in
//! the workspace — the six HAM variants, generalized HAM and the six
//! baselines — at seeded tiny configurations. The HAM models are scored
//! untrained (seeded initialisation), the baselines after one epoch. The
//! hashes were recorded from the scorers that each model wrote by hand; a
//! change that moves a score's bits (a different kernel, a different query
//! assembly) moves one. The values depend on the kernel tier the process
//! dispatches to (the GEMV and GEMM accumulate in a tier-specific order), so
//! there is one table per tier; `HAM_KERNEL_TIER` selects it.

use ham_baselines::common::BaselineTrainConfig;
use ham_baselines::{
    BprMf, BprMfConfig, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, Hgn, HgnConfig, PopRec, SasRec, SasRecConfig,
};
use ham_core::{GeneralizedHamModel, HamConfig, HamModel, HamVariant, Scorer};
use ham_data::dataset::SequenceDataset;
use ham_data::synthetic::DatasetProfile;
use ham_tensor::kernels::{active_tier, KernelTier};

/// FNV-1a over the bits of `values`.
fn fnv(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// `(score_all hash, score_batch hash)` of `model` over every user of `data`
/// with their full histories: per user in turn, then as one batch.
fn score_hashes(model: &dyn Scorer, data: &SequenceDataset) -> (u64, u64) {
    let users: Vec<usize> = (0..data.sequences.len()).collect();
    let histories: Vec<&[usize]> = data.sequences.iter().map(Vec::as_slice).collect();
    let per_user = fnv(users.iter().zip(&histories).flat_map(|(&u, h)| model.score_all(u, h)));
    let batch = fnv(model.score_batch(&users, &histories).as_slice().iter().copied());
    (per_user, batch)
}

const HAM_VARIANTS: [HamVariant; 6] = [
    HamVariant::HamX,
    HamVariant::HamM,
    HamVariant::HamSX,
    HamVariant::HamSM,
    HamVariant::HamSMNoLowOrder,
    HamVariant::HamSMNoUser,
];

/// Every model, labelled, on `data`.
fn models(data: &SequenceDataset) -> Vec<(String, Box<dyn Scorer>)> {
    let (users, items) = (data.sequences.len(), data.num_items);
    let mut out: Vec<(String, Box<dyn Scorer>)> = Vec::new();
    for (seed, variant) in (1u64..).zip(HAM_VARIANTS) {
        let base = HamConfig::for_variant(variant);
        let order = if base.uses_synergies() { 2 } else { 1 };
        let config = base.with_dimensions(16, 5, base.n_l.min(2), 3, order);
        out.push((variant.name().to_string(), Box::new(HamModel::new(users, items, config, seed))));
    }
    let base =
        HamModel::new(users, items, HamConfig::for_variant(HamVariant::HamSM).with_dimensions(16, 5, 2, 3, 2), 7);
    out.push(("generalized".into(), Box::new(GeneralizedHamModel::from_base(base, vec![5, 3, 1]))));

    let train = BaselineTrainConfig { epochs: 1, batch_size: 64, ..BaselineTrainConfig::default() };
    let seqs = &data.sequences;
    out.push(("PopRec".into(), Box::new(PopRec::fit(seqs, items))));
    out.push((
        "BPR-MF".into(),
        Box::new(BprMf::fit(seqs, items, &BprMfConfig { d: 16, ..Default::default() }, &train, 3)),
    ));
    let caser = CaserConfig { d: 16, seq_len: 4, targets: 2, vertical_filters: 2, horizontal_filters: 2 };
    out.push(("Caser".into(), Box::new(Caser::fit(seqs, items, &caser, &train, 4))));
    let sasrec = SasRecConfig { d: 16, seq_len: 5, targets: 2 };
    out.push(("SASRec".into(), Box::new(SasRec::fit(seqs, items, &sasrec, &train, 5))));
    let gru = Gru4RecConfig { d: 16, seq_len: 4, targets: 2 };
    out.push(("GRU4Rec".into(), Box::new(Gru4Rec::fit(seqs, items, &gru, &train, 6))));
    let hgn = HgnConfig { d: 16, seq_len: 4, targets: 2 };
    out.push(("HGN".into(), Box::new(Hgn::fit(seqs, items, &hgn, &train, 7))));
    out
}

/// `(label, score_all hash, score_batch hash)` per model, in [`models`]'
/// order, per tier.
fn golden(tier: KernelTier) -> &'static [(&'static str, u64, u64)] {
    match tier {
        KernelTier::Portable => PORTABLE,
        KernelTier::Avx2 => AVX2,
        KernelTier::Avx512 => AVX512,
    }
}

const PORTABLE: &[(&str, u64, u64)] = &[
    ("HAMx", 0x8f68_e167_b51c_8ce5, 0x6732_682d_9249_4e52),
    ("HAMm", 0x21ec_6ecb_fbf2_5119, 0xa41f_f182_718e_126a),
    ("HAMs_x", 0x12ef_0d2b_dc85_1fdd, 0x7b83_d1f2_c224_5776),
    ("HAMs_m", 0x83cd_320e_05cc_86fd, 0x3642_767e_dc7d_daa5),
    ("HAMs_m-o", 0xfe91_37bb_1f41_df4a, 0xd5fb_9153_b753_c836),
    ("HAMs_m-u", 0xf8d2_3719_8c14_4c4d, 0xa96c_0e17_a9b4_565c),
    ("generalized", 0x7315_1522_2127_b5b1, 0x54e1_f874_b889_8d86),
    ("PopRec", 0x454b_eae6_340d_9865, 0x454b_eae6_340d_9865),
    ("BPR-MF", 0xe26c_3530_93a7_d52e, 0xb5ca_020b_f89f_1492),
    ("Caser", 0x94e0_6671_0da1_8883, 0x887e_031c_4e75_a73f),
    ("SASRec", 0x0edd_3a68_6b63_500e, 0xa15d_5b90_ea4e_1cc3),
    ("GRU4Rec", 0x8dde_0fd1_9024_f24b, 0x45bc_4461_25a6_d969),
    ("HGN", 0xfca6_64ef_43d1_1e70, 0x081e_6ffe_569f_69a9),
];
const AVX2: &[(&str, u64, u64)] = &[
    ("HAMx", 0xa8d3_b3ff_5f62_f272, 0x3303_eaea_125a_f70e),
    ("HAMm", 0x8750_7d3e_81ed_e8e6, 0x2aac_319f_d1ce_b167),
    ("HAMs_x", 0xee47_ba0f_1a17_2f42, 0xda55_3ce4_e2cd_3cb4),
    ("HAMs_m", 0x19bf_a04f_e37c_2ca4, 0x173a_40e9_125e_bc0b),
    ("HAMs_m-o", 0xceb7_959b_0aa7_6382, 0x411c_14c2_ef98_b9f5),
    ("HAMs_m-u", 0xe792_ede1_8c1f_6245, 0xb595_ded3_30b4_b55f),
    ("generalized", 0x9562_e959_cad5_c9a8, 0x8ce5_e8c1_465a_f5c3),
    ("PopRec", 0x454b_eae6_340d_9865, 0x454b_eae6_340d_9865),
    ("BPR-MF", 0xa654_cb1b_b418_b188, 0x95bb_c4bb_439a_2f21),
    ("Caser", 0x36d4_b39b_2ca2_89c8, 0x6524_3097_989e_0e2e),
    ("SASRec", 0x235b_089c_4181_934f, 0xfc02_acee_dd5e_7a91),
    ("GRU4Rec", 0x9bd8_d56d_7da3_1424, 0xbac1_1dc6_f77f_a437),
    ("HGN", 0xd1a2_6d4b_28e1_9305, 0x03d0_9bbe_4d83_c305),
];
const AVX512: &[(&str, u64, u64)] = &[
    ("HAMx", 0xa8d3_b3ff_5f62_f272, 0x3303_eaea_125a_f70e),
    ("HAMm", 0x8750_7d3e_81ed_e8e6, 0x2aac_319f_d1ce_b167),
    ("HAMs_x", 0xee47_ba0f_1a17_2f42, 0xda55_3ce4_e2cd_3cb4),
    ("HAMs_m", 0x19bf_a04f_e37c_2ca4, 0x173a_40e9_125e_bc0b),
    ("HAMs_m-o", 0xceb7_959b_0aa7_6382, 0x411c_14c2_ef98_b9f5),
    ("HAMs_m-u", 0xe792_ede1_8c1f_6245, 0xb595_ded3_30b4_b55f),
    ("generalized", 0x9562_e959_cad5_c9a8, 0x8ce5_e8c1_465a_f5c3),
    ("PopRec", 0x454b_eae6_340d_9865, 0x454b_eae6_340d_9865),
    ("BPR-MF", 0xa654_cb1b_b418_b188, 0x95bb_c4bb_439a_2f21),
    ("Caser", 0xd533_bc2f_dc50_2284, 0x6524_3097_989e_0e2e),
    ("SASRec", 0x235b_089c_4181_934f, 0xfc02_acee_dd5e_7a91),
    ("GRU4Rec", 0x9bd8_d56d_7da3_1424, 0xbac1_1dc6_f77f_a437),
    ("HGN", 0xd1a2_6d4b_28e1_9305, 0x03d0_9bbe_4d83_c305),
];

#[test]
fn scores_match_the_golden_hashes() {
    let data = DatasetProfile::tiny("scoring-golden").generate(9);
    let tier = active_tier();
    let got: Vec<(String, u64, u64)> = models(&data)
        .into_iter()
        .map(|(label, model)| {
            let (per_user, batch) = score_hashes(model.as_ref(), &data);
            (label, per_user, batch)
        })
        .collect();
    let want = golden(tier);
    assert_eq!(got.len(), want.len(), "{tier}: one golden row per model");
    for ((label, per_user, batch), &(want_label, want_per_user, want_batch)) in got.iter().zip(want) {
        assert_eq!(label, want_label);
        assert_eq!(*per_user, want_per_user, "{tier} {label}: score_all");
        assert_eq!(*batch, want_batch, "{tier} {label}: score_batch");
    }
}
