//! Cost of one epoch of mini-batched BPR training per method, across the
//! batch sizes the pipeline is designed around (1 = the bit-exact
//! per-instance path, 32 = a partial gradient block per batch, 256 = one
//! full block per batch), for HAM's analytic gradients and HGN's tape.

use criterion::{criterion_group, criterion_main, Criterion};
use ham_bench::bench_dataset;
use ham_core::{train_with_history, HamConfig, HamVariant, TrainConfig};
use ham_data::dataset::SequenceDataset;
use std::hint::black_box;

fn one_epoch(data: &SequenceDataset, config: &HamConfig, batch_size: usize) {
    let tc = TrainConfig { epochs: 1, batch_size, ..TrainConfig::default() };
    let (_, history) = train_with_history(&data.sequences, data.num_items, config, &tc, 3);
    black_box(history);
}

fn training_benchmarks(c: &mut Criterion) {
    let data = bench_dataset();
    // keep the benchmark epoch small by truncating users
    let data =
        SequenceDataset::new(data.name.clone(), data.sequences.iter().take(60).cloned().collect(), data.num_items);

    let mut group = c.benchmark_group("train_one_epoch");
    group.sample_size(10);

    let plain = HamConfig::for_variant(HamVariant::HamM).with_dimensions(32, 5, 2, 3, 1);
    let synergy = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 3);
    for batch_size in [1usize, 32, 256] {
        group.bench_function(format!("HAMm_manual_gradients_b{batch_size}"), |b| {
            b.iter(|| one_epoch(&data, &plain, batch_size))
        });
        group.bench_function(format!("HAMs_m_manual_gradients_b{batch_size}"), |b| {
            b.iter(|| one_epoch(&data, &synergy, batch_size))
        });
    }

    group.bench_function("HGN_autograd", |b| {
        b.iter(|| {
            let cfg = ham_baselines::HgnConfig { d: 32, seq_len: 5, targets: 3 };
            let tc = ham_baselines::BaselineTrainConfig { epochs: 1, batch_size: 256, ..Default::default() };
            black_box(ham_baselines::Hgn::fit(&data.sequences, data.num_items, &cfg, &tc, 3));
        })
    });
    group.finish();
}

criterion_group!(benches, training_benchmarks);
criterion_main!(benches);
