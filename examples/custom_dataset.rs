//! Using your own interaction data end to end: parse a `user,item,timestamp,
//! rating` log, run the paper's preprocessing (binarize, filter, remap),
//! split it, grid-search HAM hyper-parameters on the validation set and
//! report test metrics — the full protocol of Section 5 on real input.
//!
//! The example generates a small CSV in a temporary directory so it runs out
//! of the box; point `load_interactions` at your own file to use real data.
//!
//! ```text
//! cargo run --example custom_dataset --release
//! ```

use ham::core::{HamVariant, Scorer};
use ham::data::loader::{load_interactions, parse_interactions};
use ham::data::preprocess::{preprocess, PreprocessConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::experiments::tuning::{default_grid, grid_search, render_tuning};
use ham::experiments::ExperimentConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

fn main() {
    // 1. Create a small synthetic CSV standing in for "your" interaction log.
    let csv_path = std::env::temp_dir().join("ham_custom_dataset_example.csv");
    std::fs::write(&csv_path, synthesize_csv()).expect("write example csv");
    println!("wrote example interaction log to {}", csv_path.display());

    // 2. Load and preprocess with the paper's protocol (>=10 per user, >=5 per
    //    item, ratings >= 4 are positives).
    let interactions = load_interactions(&csv_path).expect("load interactions");
    println!("loaded {} raw interactions", interactions.len());
    let cfg = PreprocessConfig { min_user_interactions: 8, min_item_interactions: 3, positive_threshold: 4.0 };
    let dataset = preprocess("custom", &interactions, cfg);
    println!(
        "after preprocessing: {} users, {} items, {} interactions",
        dataset.num_users(),
        dataset.num_items,
        dataset.num_interactions()
    );

    // 3. Split, grid-search HAMs_m on the validation set, evaluate on test.
    let split = split_dataset(&dataset, EvalSetting::Cut8020);
    let experiment =
        ExperimentConfig { epochs: 5, d: 16, batch_size: 64, eval_threads: 2, ..ExperimentConfig::default() };
    let grid = default_grid(HamVariant::HamSM, experiment.d);
    let result = grid_search(&split, &grid[..4.min(grid.len())], &experiment);
    println!("\n{}", render_tuning(&dataset.name, &result));

    // 4. Serve a few recommendations from the final model.
    let histories = split.train_with_val();
    #[allow(clippy::needless_range_loop)]
    for user in 0..3.min(dataset.num_users()) {
        if histories[user].is_empty() {
            continue;
        }
        let top = result.final_model.recommend_top_k(user, &histories[user], 5, true);
        println!("user {user}: top-5 recommendations {top:?}");
    }

    // Round-trip sanity check of the text parser on an in-memory string.
    let reparsed = parse_interactions("1,2,3,5.0\n2,3,4\n").expect("parse");
    assert_eq!(reparsed.len(), 2);
    std::fs::remove_file(&csv_path).ok();
}

/// Builds a CSV log with embedded sequential structure: each user walks a ring
/// of item groups, rating items 4–5 inside their walk and occasionally rating
/// something random poorly (which preprocessing then drops).
fn synthesize_csv() -> String {
    let mut rng = StdRng::seed_from_u64(77);
    let mut out = String::from("# user,item,timestamp,rating\n");
    let num_users = 120;
    let num_items = 150;
    for user in 0..num_users {
        let mut position = rng.gen_range(0..num_items);
        for step in 0..30 {
            position = (position + rng.gen_range(1..4)) % num_items;
            let rating = if rng.gen_bool(0.85) { 5.0 } else { 2.0 };
            writeln!(out, "{user},{position},{step},{rating}").expect("write row");
        }
    }
    out
}
