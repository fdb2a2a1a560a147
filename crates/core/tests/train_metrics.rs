//! The batched trainer's telemetry, read back through the process-global
//! handle. A test binary of its own: the global handle is installed once per
//! process, and no other test should train with it enabled.

use ham_core::{train_with_history, EpochStats, HamConfig, HamVariant, TrainConfig, TrainerState};
use ham_data::batch::BatchSampler;
use ham_data::synthetic::DatasetProfile;
use ham_telemetry::Telemetry;

/// The trainer's fixed gradient-block size.
const BLOCK: usize = 256;

/// Gradient blocks of one run: every batch splits into `BLOCK`-instance
/// blocks (a batch of one instance is one block on the reference path).
fn blocks(history: &[EpochStats], batch_size: usize) -> u64 {
    history
        .iter()
        .map(|epoch| {
            let (full, rest) = (epoch.num_instances / batch_size, epoch.num_instances % batch_size);
            (full * batch_size.div_ceil(BLOCK) + rest.div_ceil(BLOCK)) as u64
        })
        .sum()
}

#[test]
fn every_optimizer_step_and_gradient_block_is_timed_once_when_telemetry_is_enabled() {
    assert!(ham_telemetry::install_global(Telemetry::enabled()), "the first global install in this process");
    let data = DatasetProfile::tiny("train-metrics").generate(3);
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
    let tc = TrainConfig { epochs: 2, batch_size: 32, ..TrainConfig::default() };

    // The offline trainer inline, and on two pool threads with batches
    // spanning two blocks.
    let mut steps = 0u64;
    let mut expected_blocks = 0u64;
    let threaded = TrainConfig { batch_size: BLOCK + 44, num_threads: 2, ..tc };
    for run in [tc, threaded] {
        let (_, history) = train_with_history(&data.sequences, data.num_items, &config, &run, 1);
        assert!(
            history[0].num_instances > run.batch_size,
            "the dataset must span more than one batch of {}",
            run.batch_size
        );
        steps += history.iter().map(|epoch| epoch.num_instances.div_ceil(run.batch_size) as u64).sum::<u64>();
        expected_blocks += blocks(&history, run.batch_size);
    }

    // The resumable trainer the online loop drives.
    let mut state = TrainerState::new(data.sequences.len(), data.num_items, &config, &tc, 1);
    let mut sampler =
        BatchSampler::new(&data.sequences, data.num_items, config.n_h, config.n_p, config.n_l, tc.batch_size, 2);
    let round = state.train_round(&mut sampler, 1);
    expected_blocks += blocks(&round, tc.batch_size);

    let snapshot = ham_telemetry::global().snapshot().expect("the global handle is enabled");
    let step_nanos =
        snapshot.histogram("train_optimizer_step_nanos").expect("the optimizer-step histogram is registered");
    let batches = steps + state.optimizer_steps();
    assert_eq!(step_nanos.count, batches);
    assert!(step_nanos.sum > 0, "optimizer steps take measurable time");
    let assembly_nanos =
        snapshot.histogram("train_batch_assembly_nanos").expect("the batch-assembly histogram is registered");
    assert_eq!(assembly_nanos.count, batches, "one sample per packed batch on every path");
    assert!(assembly_nanos.sum > 0, "packing a batch takes measurable time");
    let block_nanos =
        snapshot.histogram("train_block_gradient_nanos").expect("the gradient-block histogram is registered");
    assert_eq!(block_nanos.count, expected_blocks, "one sample per gradient block on every path");
    assert!(block_nanos.sum > 0, "gradient blocks take measurable time");
    assert_eq!(snapshot.counter("train_epochs_total"), Some(2 * tc.epochs as u64 + 1));
}
