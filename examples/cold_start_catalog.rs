//! A sparse-catalogue scenario: the situation the paper argues HAM is built
//! for — very sparse interaction data where learned attention weights are
//! unreliable (Section 7.2). This example trains HAMs_m and HGN on an
//! Amazon-CDs-like sparse profile, compares their accuracy and test-time
//! latency, and prints the HGN gating-weight summary that motivates pooling.
//!
//! ```text
//! cargo run --example cold_start_catalog --release
//! ```

use ham::core::{train, HamConfig, HamVariant, Scorer, TrainConfig};
use ham::data::split::{split_dataset, EvalSetting};
use ham::data::synthetic::DatasetProfile;
use ham::eval::protocol::{evaluate, EvalConfig};
use ham::eval::timing::measure_scoring_time;
use ham_baselines::{BaselineTrainConfig, Hgn, HgnConfig};

fn main() {
    // The sparsest profile in the paper: Amazon CDs.
    let dataset = DatasetProfile::cds().with_scale(0.01).generate(23);
    let split = split_dataset(&dataset, EvalSetting::Los3);
    let train_sequences = split.train_with_val();
    println!(
        "sparse catalogue: {} users, {} items, density {:.5}",
        dataset.num_users(),
        dataset.num_items,
        dataset.density()
    );

    // Train both models with the same budget.
    let ham_cfg = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(32, 5, 2, 3, 2);
    let ham = train(
        &train_sequences,
        dataset.num_items,
        &ham_cfg,
        &TrainConfig { epochs: 6, batch_size: 64, ..TrainConfig::default() },
        1,
    );
    let hgn = Hgn::fit(
        &train_sequences,
        dataset.num_items,
        &HgnConfig { d: 32, seq_len: 5, targets: 3 },
        &BaselineTrainConfig { epochs: 6, batch_size: 64, ..BaselineTrainConfig::default() },
        1,
    );

    // Accuracy.
    let eval_cfg = EvalConfig { num_threads: 4, ..EvalConfig::default() };
    let ham_report = evaluate(&split, &eval_cfg, |u, h| ham.score_all(u, h));
    let hgn_report = evaluate(&split, &eval_cfg, |u, h| hgn.score_all(u, h));
    println!("\n          Recall@10    NDCG@10");
    println!("HAMs_m    {:>9.4}  {:>9.4}", ham_report.mean.recall_at_10, ham_report.mean.ndcg_at_10);
    println!("HGN       {:>9.4}  {:>9.4}", hgn_report.mean.recall_at_10, hgn_report.mean.ndcg_at_10);

    // Test-time latency (the Table 14 comparison, on two methods).
    let users: Vec<(usize, Vec<usize>)> = (0..split.num_users())
        .filter(|&u| !split.test[u].is_empty())
        .map(|u| (u, train_sequences[u].clone()))
        .collect();
    let ham_time = measure_scoring_time(&users, |u, h| ham.score_all(u, h));
    let hgn_time = measure_scoring_time(&users, |u, h| hgn.score_all(u, h));
    println!(
        "\ntest time per user: HAMs_m {:.2e}s, HGN {:.2e}s ({:.1}x speedup)",
        ham_time.seconds_per_user,
        hgn_time.seconds_per_user,
        ham_time.speedup_over(&hgn_time)
    );

    // The Section 7.2 observation: on sparse data, HGN's learned gating
    // weights for infrequent items stay near their 0.5 initialisation.
    let freqs = dataset.item_frequencies();
    let mut infrequent_weights = Vec::new();
    let mut frequent_weights = Vec::new();
    let median = {
        let mut sorted = freqs.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };
    for (user, history) in train_sequences.iter().enumerate().take(200) {
        if history.is_empty() {
            continue;
        }
        for (item, weight) in hgn.instance_gating_weights(user, history) {
            if freqs[item] <= median {
                infrequent_weights.push(weight);
            } else {
                frequent_weights.push(weight);
            }
        }
    }
    let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nHGN instance-gating weights: infrequent items mean {:.3}, frequent items mean {:.3}",
        mean(&infrequent_weights),
        mean(&frequent_weights)
    );
    println!("(values near 0.5 indicate weights that never moved far from initialisation — the paper's");
    println!(" argument for replacing learned gating/attention with simple pooling on sparse data)");
}
