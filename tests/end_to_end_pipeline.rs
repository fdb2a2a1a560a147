//! End-to-end integration test: synthetic data generation → split → training
//! → evaluation → serialization, across every crate of the workspace.

use ham::core::{serialize, train, HamConfig, HamVariant, Scorer, TrainConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::protocol::{evaluate, EvalConfig};

fn quick_train_config() -> TrainConfig {
    TrainConfig { epochs: 2, batch_size: 64, ..TrainConfig::default() }
}

#[test]
fn full_pipeline_produces_valid_metrics_for_every_setting() {
    let dataset = DatasetProfile::tiny("e2e").generate(5);
    for setting in EvalSetting::all() {
        let split = split_dataset(&dataset, setting);
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        let model = train(&split.train_with_val(), dataset.num_items, &config, &quick_train_config(), 3);
        let report = evaluate(&split, &EvalConfig::default(), |user, history| model.score_all(user, history));
        assert!(report.num_evaluated > 0, "{}: no users evaluated", setting.name());
        for metric in [report.mean.recall_at_5, report.mean.recall_at_10, report.mean.ndcg_at_5, report.mean.ndcg_at_10]
        {
            assert!((0.0..=1.0).contains(&metric), "{}: metric {metric} out of range", setting.name());
        }
        // recall@10 can never be below recall@5, same for NDCG with binary gains on ≥ positions
        assert!(report.mean.recall_at_10 >= report.mean.recall_at_5);
    }
}

#[test]
fn trained_model_survives_a_serialization_roundtrip() {
    let dataset = DatasetProfile::tiny("e2e-serialize").generate(9);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
    let model = train(&split.train_with_val(), dataset.num_items, &config, &quick_train_config(), 3);

    let json = serialize::to_json(&model).expect("serialize");
    let restored = serialize::from_json(&json).expect("deserialize");

    for user in 0..3 {
        let history = &split.train_with_val()[user];
        if history.is_empty() {
            continue;
        }
        assert_eq!(model.score_all(user, history), restored.score_all(user, history));
        assert_eq!(model.recommend_top_k(user, history, 10, true), restored.recommend_top_k(user, history, 10, true));
    }
}

#[test]
fn every_ham_variant_trains_and_evaluates() {
    let dataset = DatasetProfile::tiny("e2e-variants").generate(2);
    let split = split_dataset(&dataset, EvalSetting::Los3);
    for variant in [
        HamVariant::HamX,
        HamVariant::HamM,
        HamVariant::HamSX,
        HamVariant::HamSM,
        HamVariant::HamSMNoLowOrder,
        HamVariant::HamSMNoUser,
    ] {
        let mut config = HamConfig::for_variant(variant);
        config = config.with_dimensions(8, 4, config.n_l.min(4), 2, config.synergy_order.clamp(1, 4));
        if matches!(variant, HamVariant::HamSMNoLowOrder) {
            config.n_l = 0;
        }
        let model = train(&split.train_with_val(), dataset.num_items, &config, &quick_train_config(), 1);
        assert!(model.is_finite(), "{}: non-finite embeddings after training", variant.name());
        let report = evaluate(&split, &EvalConfig::default(), |user, history| model.score_all(user, history));
        assert!(report.num_evaluated > 0, "{}: evaluated no users", variant.name());
    }
}
