//! A MovieLens-style scenario: compare every HAM variant on a dense,
//! movie-rating-like dataset and inspect how the synergy term changes the
//! recommendations — the use case the paper's introduction motivates with the
//! "Avengers sequel" example (sequential associations) and the
//! "candles + wine → steak" example (item synergies).
//!
//! ```text
//! cargo run --example movie_recommender --release
//! ```

use ham::core::{train, HamConfig, HamVariant, Scorer, TrainConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::protocol::{evaluate, EvalConfig};

fn main() {
    // A scaled-down MovieLens-1M-like profile: dense, strong popularity.
    let dataset = DatasetProfile::ml_1m().with_scale(0.05).generate(11);
    println!(
        "dataset: {} ({} users, {} items, {:.1} interactions/user)",
        dataset.name,
        dataset.num_users(),
        dataset.num_items,
        dataset.interactions_per_user()
    );

    // The paper recommends 80-3-CUT as the most informative setting (Sec 7.3).
    let split = split_dataset(&dataset, EvalSetting::Cut803);
    let train_sequences = split.train_with_val();
    let train_config = TrainConfig { epochs: 6, batch_size: 128, ..TrainConfig::default() };
    let eval_cfg = EvalConfig { num_threads: 4, ..EvalConfig::default() };

    println!("\nvariant     Recall@5   Recall@10   NDCG@10   (80-3-CUT)");
    let mut best: Option<(String, f64)> = None;
    for variant in HamVariant::main_variants() {
        let config = HamConfig::for_variant(variant).with_dimensions(32, 7, 2, 3, 3);
        let model = train(&train_sequences, dataset.num_items, &config, &train_config, 3);
        let report = evaluate(&split, &eval_cfg, |user, history| model.score_all(user, history));
        println!(
            "{:<10} {:>9.4} {:>10.4} {:>10.4}",
            variant.name(),
            report.mean.recall_at_5,
            report.mean.recall_at_10,
            report.mean.ndcg_at_10
        );
        if best.as_ref().is_none_or(|(_, r)| report.mean.recall_at_10 > *r) {
            best = Some((variant.name().to_string(), report.mean.recall_at_10));
        }
    }
    let (best_name, best_recall) = best.expect("at least one variant ran");
    println!("\nbest variant: {best_name} (Recall@10 = {best_recall:.4})");

    // Show how the same user's recommendations change with and without the
    // synergy (latent-cross) term.
    let user = 1;
    let plain = train(
        &train_sequences,
        dataset.num_items,
        &HamConfig::for_variant(HamVariant::HamM).with_dimensions(32, 7, 2, 3, 1),
        &train_config,
        3,
    );
    let with_synergies = train(
        &train_sequences,
        dataset.num_items,
        &HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 7, 2, 3, 3),
        &train_config,
        3,
    );
    println!("\nuser {user}: last items {:?}", &train_sequences[user][train_sequences[user].len().saturating_sub(5)..]);
    println!("  HAMm   top-5: {:?}", plain.recommend_top_k(user, &train_sequences[user], 5, true));
    println!("  HAMs_m top-5: {:?}", with_synergies.recommend_top_k(user, &train_sequences[user], 5, true));
}
