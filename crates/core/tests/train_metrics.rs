//! The batched trainer's telemetry, read back through the process-global
//! handle. A test binary of its own: the global handle is installed once per
//! process, and no other test should train with it enabled.

use ham_core::{train_with_history, HamConfig, HamVariant, TrainConfig, TrainerState};
use ham_data::batch::BatchSampler;
use ham_data::synthetic::DatasetProfile;
use ham_telemetry::Telemetry;

#[test]
fn every_optimizer_step_is_timed_once_when_telemetry_is_enabled() {
    assert!(ham_telemetry::install_global(Telemetry::enabled()), "the first global install in this process");
    let data = DatasetProfile::tiny("train-metrics").generate(3);
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
    let tc = TrainConfig { epochs: 2, batch_size: 32, ..TrainConfig::default() };

    // The offline trainer: one Adam step per batch of every epoch.
    let (_, history) = train_with_history(&data.sequences, data.num_items, &config, &tc, 1);
    let offline_steps: usize = history.iter().map(|epoch| epoch.num_instances.div_ceil(tc.batch_size)).sum();

    // The resumable trainer the online loop drives.
    let mut state = TrainerState::new(data.sequences.len(), data.num_items, &config, &tc, 1);
    let mut sampler =
        BatchSampler::new(&data.sequences, data.num_items, config.n_h, config.n_p, config.n_l, tc.batch_size, 2);
    state.train_round(&mut sampler, 1);

    let snapshot = ham_telemetry::global().snapshot().expect("the global handle is enabled");
    let steps = snapshot.histogram("train_optimizer_step_nanos").expect("the optimizer-step histogram is registered");
    assert_eq!(steps.count, offline_steps as u64 + state.optimizer_steps());
    assert!(steps.sum > 0, "optimizer steps take measurable time");
    assert_eq!(snapshot.counter("train_epochs_total"), Some(tc.epochs as u64 + 1));
}
