//! Reproducibility guarantees: every pipeline stage is deterministic given a
//! seed, and different seeds genuinely change the outcome.

use ham::core::{train, HamConfig, HamVariant, TrainConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::protocol::{evaluate, EvalConfig};

fn train_cfg() -> TrainConfig {
    TrainConfig { epochs: 2, batch_size: 64, ..TrainConfig::default() }
}

#[test]
fn dataset_generation_is_seed_deterministic() {
    let profile = DatasetProfile::cds().with_scale(0.002);
    let a = profile.generate(123);
    let b = profile.generate(123);
    assert_eq!(a.sequences, b.sequences);
    assert_ne!(a.sequences, profile.generate(124).sequences);
}

#[test]
fn training_and_evaluation_are_seed_deterministic() {
    let dataset = DatasetProfile::tiny("repro").generate(7);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);

    let run = || {
        let model = train(&split.train_with_val(), dataset.num_items, &config, &train_cfg(), 99);
        evaluate(&split, &EvalConfig::default(), |u, h| model.score_all(u, h))
    };
    let first = run();
    let second = run();
    assert_eq!(first.mean, second.mean);
    assert_eq!(first.per_user, second.per_user);
}

#[test]
fn different_seeds_produce_different_models() {
    let dataset = DatasetProfile::tiny("repro-seeds").generate(7);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
    let a = train(&split.train_with_val(), dataset.num_items, &config, &train_cfg(), 1);
    let b = train(&split.train_with_val(), dataset.num_items, &config, &train_cfg(), 2);
    let history = &split.train_with_val()[0];
    assert_ne!(a.score_all(0, history), b.score_all(0, history));
}

#[test]
fn baseline_training_is_seed_deterministic() {
    use ham::core::Scorer;
    use ham_baselines::{BaselineTrainConfig, Hgn, HgnConfig};
    let dataset = DatasetProfile::tiny("repro-hgn").generate(4);
    let cfg = HgnConfig { d: 8, seq_len: 4, targets: 2 };
    let tc = BaselineTrainConfig { epochs: 1, batch_size: 64, ..BaselineTrainConfig::default() };
    let a = Hgn::fit(&dataset.sequences, dataset.num_items, &cfg, &tc, 5);
    let b = Hgn::fit(&dataset.sequences, dataset.num_items, &cfg, &tc, 5);
    assert_eq!(a.score_all(0, &dataset.sequences[0]), b.score_all(0, &dataset.sequences[0]));
}
