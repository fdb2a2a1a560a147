//! Table 14 shape: per-user test-time scoring latency of HAMs_m against the
//! Caser, SASRec and HGN baselines (all scoring the full catalogue).

use criterion::{criterion_group, criterion_main, Criterion};
use ham_baselines::{BaselineTrainConfig, Caser, CaserConfig, Hgn, HgnConfig, SasRec, SasRecConfig};
use ham_bench::{bench_dataset, quick_ham};
use ham_core::{HamVariant, Scorer};
use std::hint::black_box;

fn inference_benchmarks(c: &mut Criterion) {
    let data = bench_dataset();
    let d = 32;
    let tc = BaselineTrainConfig { epochs: 1, batch_size: 256, ..BaselineTrainConfig::default() };

    let ham = quick_ham(&data, HamVariant::HamSM, d);
    let hgn = Hgn::fit(&data.sequences, data.num_items, &HgnConfig { d, seq_len: 5, targets: 3 }, &tc, 1);
    let sasrec = SasRec::fit(&data.sequences, data.num_items, &SasRecConfig { d, seq_len: 5, targets: 3 }, &tc, 1);
    let caser = Caser::fit(
        &data.sequences,
        data.num_items,
        &CaserConfig { d, seq_len: 5, targets: 3, vertical_filters: 2, horizontal_filters: 4 },
        &tc,
        1,
    );

    let history: Vec<usize> = data.sequences[0].clone();
    let mut group = c.benchmark_group("score_all_per_user");
    group.sample_size(20);
    group.bench_function("HAMs_m", |b| b.iter(|| black_box(ham.score_all(0, black_box(&history)))));
    group.bench_function("HGN", |b| b.iter(|| black_box(hgn.score_all(0, black_box(&history)))));
    group.bench_function("SASRec", |b| b.iter(|| black_box(sasrec.score_all(0, black_box(&history)))));
    group.bench_function("Caser", |b| b.iter(|| black_box(caser.score_all(0, black_box(&history)))));
    group.finish();
}

criterion_group!(benches, inference_benchmarks);
criterion_main!(benches);
