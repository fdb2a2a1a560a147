//! Cross-crate integration test of the method-comparison machinery: every
//! method in the paper's tables trains, evaluates and can be timed through
//! the same harness, and the HAM inference path is faster than the deep
//! baselines (the Table 14 shape).

use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::timing::measure_scoring_time;
use ham::experiments::{prepare_dataset, run_methods, ExperimentConfig, Method};
use ham_core::HamVariant;

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 1.0,
        max_users: 30,
        max_seq_len: 25,
        d: 8,
        epochs: 1,
        batch_size: 64,
        eval_threads: 2,
        ..ExperimentConfig::default()
    }
}

#[test]
fn all_paper_methods_run_through_the_harness() {
    let cfg = quick_config();
    let dataset = prepare_dataset(&DatasetProfile::tiny("comparison"), &cfg);
    let results = run_methods(&dataset, EvalSetting::Cut8020, &Method::paper_methods(), &cfg);
    assert_eq!(results.len(), 7);
    let names: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
    assert_eq!(names, vec!["Caser", "SASRec", "HGN", "HAMx", "HAMm", "HAMs_x", "HAMs_m"]);
    for r in &results {
        assert!(r.report.num_evaluated > 0, "{}: evaluated no users", r.method);
        assert!(r.report.mean.recall_at_10.is_finite());
        assert!(r.train_seconds > 0.0);
    }
}

#[test]
fn ham_inference_is_faster_than_the_convolutional_baseline() {
    let cfg = quick_config();
    let dataset = prepare_dataset(&DatasetProfile::tiny("timing"), &cfg);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let train_sequences = split.train_with_val();
    let users: Vec<(usize, Vec<usize>)> = (0..split.num_users())
        .filter(|&u| !train_sequences[u].is_empty())
        .map(|u| (u, train_sequences[u].clone()))
        .collect();

    let windows = (4, 2, 2, 2);
    let ham = Method::Ham(HamVariant::HamSM).fit(&train_sequences, dataset.num_items, windows, &cfg);
    let caser = Method::Caser.fit(&train_sequences, dataset.num_items, windows, &cfg);

    // Each measurement is a few milliseconds on a machine shared with the
    // other tests of this binary, so one descheduling can double it: the best
    // of a few alternating repetitions is what each model costs.
    let (mut ham_best, mut caser_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        ham_best = ham_best.min(measure_scoring_time(&users, |u, h| ham.score_all(u, h)).seconds_per_user);
        caser_best = caser_best.min(measure_scoring_time(&users, |u, h| caser.score_all(u, h)).seconds_per_user);
    }
    assert!(
        ham_best < caser_best,
        "HAM ({ham_best:.2e}s/user) should be faster than Caser ({caser_best:.2e}s/user) at test time"
    );
}

#[test]
fn ablated_models_differ_from_the_full_model() {
    let cfg = quick_config();
    let dataset = prepare_dataset(&DatasetProfile::tiny("ablation-int"), &cfg);
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let train_sequences = split.train_with_val();
    let windows = (4, 2, 2, 2);
    let full = Method::Ham(HamVariant::HamSM).fit(&train_sequences, dataset.num_items, windows, &cfg);
    let no_user = Method::Ham(HamVariant::HamSMNoUser).fit(&train_sequences, dataset.num_items, windows, &cfg);
    let history = &train_sequences[0];
    assert_ne!(full.score_all(0, history), no_user.score_all(0, history));
    // the no-user model ignores the user id entirely
    assert_eq!(no_user.score_all(0, history), no_user.score_all(1, history));
}
