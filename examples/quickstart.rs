//! Quickstart: generate a small synthetic dataset, train the paper's best
//! model (HAMs_m), evaluate it against a popularity baseline and print a few
//! recommendations.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use ham::core::{train_with_history, HamConfig, HamVariant, Scorer, TrainConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::protocol::{evaluate, EvalConfig};
use ham_baselines::PopRec;

fn main() {
    // 1. Data: a scaled-down Amazon-CDs-like dataset.
    let dataset = DatasetProfile::cds().with_scale(0.01).generate(42);
    println!(
        "dataset: {} users, {} items, {} interactions",
        dataset.num_users(),
        dataset.num_items,
        dataset.num_interactions()
    );

    // 2. Split with the paper's most common protocol (80-20-CUT).
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let train_sequences = split.train_with_val();

    // 3. Train HAMs_m (mean pooling + order-2 synergies).
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 2);
    let train_config = TrainConfig { epochs: 8, batch_size: 64, ..TrainConfig::default() };
    let (model, history) = train_with_history(&train_sequences, dataset.num_items, &config, &train_config, 7);
    for stats in &history {
        println!("epoch {:>2}: mean BPR loss {:.4}", stats.epoch, stats.mean_loss);
    }

    // 4. Evaluate against a popularity baseline.
    let eval_cfg = EvalConfig { num_threads: 4, ..EvalConfig::default() };
    let ham_report = evaluate(&split, &eval_cfg, |user, history| model.score_all(user, history));
    let pop = PopRec::fit(&train_sequences, dataset.num_items);
    let pop_report = evaluate(&split, &eval_cfg, |user, history| pop.score_all(user, history));
    println!("\n              Recall@10    NDCG@10");
    println!("HAMs_m        {:>9.4}  {:>9.4}", ham_report.mean.recall_at_10, ham_report.mean.ndcg_at_10);
    println!("PopRec        {:>9.4}  {:>9.4}", pop_report.mean.recall_at_10, pop_report.mean.ndcg_at_10);

    // 5. Produce recommendations for one user.
    let user = 0;
    let top = model.recommend_top_k(user, &train_sequences[user], 10, true);
    println!("\ntop-10 recommendations for user {user}: {top:?}");
}
