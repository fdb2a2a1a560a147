//! The evaluation protocol of Section 5.3: for every user with test items,
//! score all items given the user's training(+validation) history, mask the
//! items already seen in that history, rank, and compute Recall/NDCG against
//! the user's test items.
//!
//! Two scoring entry points are provided:
//!
//! * [`evaluate`] — per-user scoring closure `(user, history) -> scores`;
//! * [`evaluate_batch`] — batched scoring closure over a *chunk* of users,
//!   `(users, histories) -> Matrix` with one score row per user, which lets
//!   models answer with one GEMM (`Q·Wᵀ`) instead of a per-item dot loop.
//!
//! Both honor [`EvalConfig::num_threads`]: the evaluated users are split into
//! `num_threads` contiguous chunks. With one chunk the work runs inline on
//! the calling thread (no task submission at all); with more, the chunks run
//! on the process-wide persistent worker pool
//! ([`ham_tensor::pool::global_pool`]) — the caller processes the first chunk
//! itself while the pool's work-stealing workers take the rest, so repeated
//! evaluations (grid searches run thousands) pay zero thread-spawn overhead.
//! Workers never share mutable state — each chunk returns its own ordered
//! result vector and the chunks are concatenated in order — so the report is
//! **bit-identical for every thread count** (only wall-clock time changes).
//!
//! Ranking runs through the fused mask+select path
//! ([`crate::ranking::top_k_excluding`]): seen items are skipped via a
//! reusable per-chunk bitmap during the top-k scan instead of being
//! overwritten with `-inf` in the score buffer, which lets the batched path
//! rank straight out of the shared `Q·Wᵀ` score block.
//!
//! The scoring closures themselves funnel into the tiered kernel layer
//! (`ham_tensor::kernels`): the same evaluation binary hits the explicit
//! AVX2+FMA microkernels on capable hardware and the portable reference
//! loops elsewhere, chosen once per process at runtime — no
//! `-C target-cpu=native` required (force a tier with `HAM_KERNEL_TIER` to
//! compare).

use crate::metrics::MetricSet;
use crate::ranking::top_k_excluding;
use ham_data::split::DataSplit;
use ham_tensor::ops::top_k_indices;
use ham_tensor::pool::global_pool;
use ham_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// Evaluation options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Use the training + validation items as the scoring history (the
    /// paper's final-evaluation protocol). When `false`, only the training
    /// prefix is used (the protocol for validation-time model selection).
    pub include_validation_in_history: bool,
    /// Mask items that appear in the scoring history so they cannot be
    /// recommended again (the protocol of the HGN / Caser evaluation code).
    pub exclude_history_items: bool,
    /// Number of scoped worker threads for evaluation. Users are split into
    /// this many contiguous chunks, one worker per chunk; `1` (or fewer users
    /// than chunks) runs sequentially on the calling thread. The reported
    /// metrics are identical for every value — this knob only trades
    /// wall-clock time for CPU cores.
    pub num_threads: usize,
    /// Ranking depth kept per user; must be at least 10 for the reported
    /// metrics.
    pub max_rank: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { include_validation_in_history: true, exclude_history_items: true, num_threads: 1, max_rank: 10 }
    }
}

/// The outcome of evaluating one scorer on one split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Dataset the split came from.
    pub dataset: String,
    /// Name of the experimental setting.
    pub setting: String,
    /// Mean metrics over evaluated users.
    pub mean: MetricSet,
    /// Per-user metrics, in user order, for users that had test items.
    pub per_user: Vec<MetricSet>,
    /// Number of users that were evaluated.
    pub num_evaluated: usize,
    /// Mean wall-clock seconds spent scoring + ranking per evaluated user.
    pub seconds_per_user: f64,
}

/// Number of users scored per batched-scorer call inside each worker chunk.
/// Large enough that a `Q·Wᵀ` GEMM amortises the query build, small enough
/// that the `B × num_items` score block stays cache- and memory-friendly.
const SCORE_BATCH: usize = 64;

/// Histories and the users eligible for evaluation under `config`.
fn eval_inputs(split: &DataSplit, config: &EvalConfig) -> (Vec<Vec<usize>>, Vec<usize>) {
    assert!(config.max_rank >= 10, "EvalConfig: max_rank must be at least 10 to compute the @10 metrics");
    let histories: Vec<Vec<usize>> =
        if config.include_validation_in_history { split.train_with_val() } else { split.train.clone() };
    let users: Vec<usize> =
        (0..split.num_users()).filter(|&u| !split.test[u].is_empty() && !histories[u].is_empty()).collect();
    (histories, users)
}

/// Ranks one user's (immutable) score vector with fused history masking and
/// judges it against the test truth. `seen_scratch` is the chunk's reusable
/// catalogue bitmap; it is returned all-clear.
fn judge_user(
    scores: &[f32],
    history: &[usize],
    truth: &HashSet<usize>,
    config: &EvalConfig,
    seen_scratch: &mut [bool],
) -> MetricSet {
    let ranked = if config.exclude_history_items {
        top_k_excluding(scores, config.max_rank, history, seen_scratch)
    } else {
        top_k_indices(scores, config.max_rank)
    };
    MetricSet::from_ranking(&ranked, truth)
}

/// Splits `users` into `num_threads` contiguous chunks, runs `work` on each
/// chunk and concatenates the per-chunk results in chunk order.
///
/// One chunk (or fewer than two users) runs inline on the calling thread —
/// no task submission, no synchronisation — fixing the old per-call
/// scoped-spawn overhead for `num_threads == 1`. With more chunks, the
/// caller keeps the first chunk for itself and the remaining chunks run on
/// the persistent work-stealing pool; the scope join makes the caller help
/// drain the pool rather than block. Each chunk owns its output slot, so no
/// locking is involved and the concatenated result is independent of the
/// thread count (and of whether a chunk ran on the caller or a worker).
fn run_user_chunks<W>(users: &[usize], num_threads: usize, work: W) -> Vec<(MetricSet, f64)>
where
    W: Fn(&[usize]) -> Vec<(MetricSet, f64)> + Sync,
{
    let threads = num_threads.max(1);
    if threads <= 1 || users.len() < 2 {
        return work(users);
    }
    let chunk = users.len().div_ceil(threads);
    let parts: Vec<&[usize]> = users.chunks(chunk).collect();
    let mut results: Vec<Option<Vec<(MetricSet, f64)>>> = parts.iter().map(|_| None).collect();
    global_pool().scope(|scope| {
        let (first_slot, rest_slots) = results.split_first_mut().expect("at least one chunk");
        for (slot, &part) in rest_slots.iter_mut().zip(parts.iter().skip(1)) {
            let work = &work;
            scope.spawn(move || *slot = Some(work(part)));
        }
        *first_slot = Some(work(parts[0]));
    });
    results.into_iter().flat_map(|slot| slot.expect("evaluation chunk never ran")).collect()
}

fn build_report(split: &DataSplit, results: Vec<(MetricSet, f64)>) -> EvalReport {
    let per_user: Vec<MetricSet> = results.iter().map(|(m, _)| *m).collect();
    let total_time: f64 = results.iter().map(|(_, t)| t).sum();
    let num_evaluated = per_user.len();
    EvalReport {
        dataset: split.dataset_name.clone(),
        setting: split.setting.name().to_string(),
        mean: MetricSet::mean(&per_user),
        per_user,
        num_evaluated,
        seconds_per_user: if num_evaluated > 0 { total_time / num_evaluated as f64 } else { 0.0 },
    }
}

/// Evaluates a per-user scoring function on a split.
///
/// `score_fn(user, history)` must return one score per catalogue item
/// (`split.num_items` scores). Users without test items (or without any
/// history) are skipped, following the paper's protocol.
///
/// Prefer [`evaluate_batch`] when the model has a batched scorer
/// (`score_batch`); this entry point calls the model once per user.
pub fn evaluate<F>(split: &DataSplit, config: &EvalConfig, score_fn: F) -> EvalReport
where
    F: Fn(usize, &[usize]) -> Vec<f32> + Sync,
{
    let (histories, users) = eval_inputs(split, config);
    let results = run_user_chunks(&users, config.num_threads, |part| {
        let mut seen_scratch = vec![false; split.num_items];
        part.iter()
            .map(|&user| {
                let history = &histories[user];
                let truth: HashSet<usize> = split.test[user].iter().copied().collect();
                let start = Instant::now();
                let scores = score_fn(user, history);
                assert_eq!(
                    scores.len(),
                    split.num_items,
                    "score_fn must return one score per item ({} expected, {} returned)",
                    split.num_items,
                    scores.len()
                );
                let metrics = judge_user(&scores, history, &truth, config, &mut seen_scratch);
                (metrics, start.elapsed().as_secs_f64())
            })
            .collect()
    });
    build_report(split, results)
}

/// Evaluates a batched scoring function on a split.
///
/// `batch_score_fn(users, histories)` receives up to `SCORE_BATCH` (64)
/// users at a time together with their scoring histories (same order) and
/// must return a `users.len() × split.num_items` score matrix — e.g.
/// `HamModel::score_batch`, which builds the query matrix once and scores the
/// whole chunk with a single blocked GEMM.
///
/// Produces a report identical to [`evaluate`] over the same scorer (the mask
/// / rank / metric pipeline per user is shared); only the scoring call shape
/// and the wall-clock accounting differ: scoring time is measured per batch
/// and attributed evenly to the batch's users.
pub fn evaluate_batch<F>(split: &DataSplit, config: &EvalConfig, batch_score_fn: F) -> EvalReport
where
    F: Fn(&[usize], &[&[usize]]) -> Matrix + Sync,
{
    let (histories, users) = eval_inputs(split, config);
    let results = run_user_chunks(&users, config.num_threads, |part| {
        let mut seen_scratch = vec![false; split.num_items];
        let mut out = Vec::with_capacity(part.len());
        for batch in part.chunks(SCORE_BATCH) {
            let batch_histories: Vec<&[usize]> = batch.iter().map(|&u| histories[u].as_slice()).collect();
            let start = Instant::now();
            let scores = batch_score_fn(batch, &batch_histories);
            assert_eq!(
                scores.shape(),
                (batch.len(), split.num_items),
                "batch_score_fn must return a (num_users, num_items) matrix"
            );
            let scoring_elapsed = start.elapsed().as_secs_f64();
            for (i, &user) in batch.iter().enumerate() {
                let truth: HashSet<usize> = split.test[user].iter().copied().collect();
                let start = Instant::now();
                // Fused masking ranks straight out of the shared score block.
                let metrics = judge_user(scores.row(i), &histories[user], &truth, config, &mut seen_scratch);
                let ranking_elapsed = start.elapsed().as_secs_f64();
                out.push((metrics, scoring_elapsed / batch.len() as f64 + ranking_elapsed));
            }
        }
        out
    });
    build_report(split, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::dataset::SequenceDataset;
    use ham_data::split::{split_dataset, EvalSetting};

    fn toy_split() -> DataSplit {
        // 3 users with 20-item sequences over a 30-item catalogue
        let sequences: Vec<Vec<usize>> = (0..3).map(|u| (0..20).map(|t| (u * 7 + t) % 30).collect()).collect();
        let data = SequenceDataset::new("toy", sequences, 30);
        split_dataset(&data, EvalSetting::Cut8020)
    }

    /// An oracle scorer that already knows each user's test items must achieve
    /// perfect recall and NDCG.
    #[test]
    fn oracle_scorer_achieves_perfect_metrics() {
        let split = toy_split();
        let test_sets = split.test.clone();
        let report = evaluate(&split, &EvalConfig::default(), |user, _history| {
            let mut scores = vec![0.0f32; split.num_items];
            for (rank, &item) in test_sets[user].iter().enumerate() {
                scores[item] = 100.0 - rank as f32;
            }
            scores
        });
        assert_eq!(report.num_evaluated, 3);
        assert!((report.mean.recall_at_10 - 1.0).abs() < 1e-9, "recall {:?}", report.mean);
        assert!((report.mean.ndcg_at_10 - 1.0).abs() < 1e-9);
        assert!(report.seconds_per_user >= 0.0);
    }

    /// A scorer that always ranks the user's history first scores zero when
    /// history items are excluded, confirming the mask is applied.
    #[test]
    fn history_exclusion_masks_seen_items() {
        let split = toy_split();
        let histories = split.train_with_val();
        let adversarial = |user: usize, _h: &[usize]| {
            let mut scores = vec![0.0f32; split.num_items];
            for (rank, &item) in histories[user].iter().enumerate() {
                scores[item] = 100.0 - rank as f32;
            }
            scores
        };
        let masked = evaluate(&split, &EvalConfig::default(), adversarial);
        let unmasked =
            evaluate(&split, &EvalConfig { exclude_history_items: false, ..EvalConfig::default() }, adversarial);
        // With masking the adversarial scorer ranks unseen items arbitrarily
        // (all-zero scores) and cannot exploit the history; without masking it
        // wastes the top of the ranking on already-seen items, so both recalls
        // stay low — but the two configurations must differ to prove the mask
        // has an effect.
        assert!(masked.mean.recall_at_10 <= 1.0);
        assert_ne!(masked.per_user, unmasked.per_user);
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree() {
        let split = toy_split();
        let scorer = |user: usize, history: &[usize]| {
            let mut scores = vec![0.1f32; split.num_items];
            scores[(user * 3 + history.len()) % split.num_items] = 1.0;
            scores
        };
        let seq = evaluate(&split, &EvalConfig { num_threads: 1, ..Default::default() }, scorer);
        let par = evaluate(&split, &EvalConfig { num_threads: 4, ..Default::default() }, scorer);
        assert_eq!(seq.per_user, par.per_user);
        assert_eq!(seq.mean, par.mean);
    }

    #[test]
    fn batched_evaluation_matches_per_user_evaluation() {
        let split = toy_split();
        let per_user = |user: usize, history: &[usize]| {
            let mut scores = vec![0.1f32; split.num_items];
            scores[(user * 5 + history.len()) % split.num_items] = 1.0;
            scores
        };
        let reference = evaluate(&split, &EvalConfig::default(), per_user);
        for threads in [1, 3] {
            let config = EvalConfig { num_threads: threads, ..EvalConfig::default() };
            let batched = evaluate_batch(&split, &config, |users, histories| {
                let mut out = Matrix::zeros(users.len(), split.num_items);
                for (i, (&u, h)) in users.iter().zip(histories).enumerate() {
                    out.row_mut(i).copy_from_slice(&per_user(u, h));
                }
                out
            });
            assert_eq!(batched.per_user, reference.per_user, "threads = {threads}");
            assert_eq!(batched.mean, reference.mean);
        }
    }

    /// A 96-item catalogue, so `max_rank = 10` takes the select's heap path
    /// (`10 * 8 <= 96`), split leave-3-out; per user, a score vector built to
    /// hit one corner of it.
    fn heap_path_split() -> (DataSplit, Vec<Vec<f32>>) {
        let sequences: Vec<Vec<usize>> = vec![
            // All but 7 items seen: masked items pad the top 10.
            (0..92).collect(),
            (0..20).map(|t| (t * 5 + 3) % 96).collect(),
            (0..20).map(|t| (t * 7 + 1) % 96).collect(),
        ];
        let split = split_dataset(&SequenceDataset::new("heap", sequences, 96), EvalSetting::Los3);
        // Seen items score highest, so a mask that leaks shows. Unseen 91 (a
        // test item) sits at -inf and loses the index tie-break to the
        // masked padding.
        let mut nearly_all_seen: Vec<f32> = (0..96).map(|i| 10.0 + i as f32).collect();
        for (item, score) in [(92, 3.0), (89, 2.0), (93, 2.0), (90, 1.0), (94, 1.0), (95, 0.5), (91, f32::NEG_INFINITY)]
        {
            nearly_all_seen[item] = score;
        }
        // Mostly -inf: the top 10 runs into -inf ties, masked and unmasked
        // alike, broken by index, which reaches test item 2 but not 93.
        let mut minus_inf = vec![f32::NEG_INFINITY; 96];
        for (item, score) in [(3, 9.0), (8, 8.0), (60, 2.0), (88, 1.5), (50, 0.5), (51, 0.25)] {
            minus_inf[item] = score;
        }
        // Five NaN, one inside the first k and one on test item 24: too few
        // to force the fallback, so the heap path drops them. Test item 38
        // takes the 10th place on a tie with the later item 90.
        let mut few_nan: Vec<f32> = (0..96).map(|i| ((i * 37) % 11) as f32 * 0.25).collect();
        for (item, score) in [(1, 20.0), (31, 9.0), (38, 4.0), (90, 4.0)] {
            few_nan[item] = score;
        }
        for item in [40, 41, 42, 44, 45, 46, 47, 48] {
            few_nan[item] = 5.0;
        }
        for item in [0, 2, 24, 70, 95] {
            few_nan[item] = f32::NAN;
        }
        (split, vec![nearly_all_seen, minus_inf, few_nan])
    }

    /// The protocol written out longhand: `-inf` over the history when it is
    /// masked, NaN dropped, a full sort by (score desc, index asc), cut at
    /// `max_rank`.
    fn reference_ranking(scores: &[f32], history: &[usize], config: &EvalConfig) -> Vec<usize> {
        let mut effective = scores.to_vec();
        if config.exclude_history_items {
            for &item in history {
                effective[item] = f32::NEG_INFINITY;
            }
        }
        let mut ranked: Vec<usize> = (0..effective.len()).filter(|&i| !effective[i].is_nan()).collect();
        ranked.sort_by(|&a, &b| effective[b].partial_cmp(&effective[a]).expect("NaN dropped").then(a.cmp(&b)));
        ranked.truncate(config.max_rank);
        ranked
    }

    #[test]
    fn heap_path_evaluation_matches_the_full_sort_reference() {
        let (split, scores) = heap_path_split();
        let histories = split.train_with_val();
        let default = EvalConfig::default();
        assert_eq!(reference_ranking(&scores[0], &histories[0], &default), [92, 89, 93, 90, 94, 95, 0, 1, 2, 3]);
        assert_eq!(reference_ranking(&scores[1], &histories[1], &default), [60, 88, 50, 51, 0, 1, 2, 3, 4, 5]);
        assert_eq!(reference_ranking(&scores[2], &histories[2], &default), [31, 40, 41, 42, 44, 45, 46, 47, 48, 38]);
        for exclude_history_items in [true, false] {
            let base = EvalConfig { exclude_history_items, ..default };
            let want: Vec<MetricSet> = (0..3)
                .map(|u| {
                    let truth: HashSet<usize> = split.test[u].iter().copied().collect();
                    MetricSet::from_ranking(&reference_ranking(&scores[u], &histories[u], &base), &truth)
                })
                .collect();
            for num_threads in [1, 3] {
                let config = EvalConfig { num_threads, ..base };
                let per_user = evaluate(&split, &config, |u, _| scores[u].clone());
                let batched = evaluate_batch(&split, &config, |users, _| {
                    let rows: Vec<&[f32]> = users.iter().map(|&u| scores[u].as_slice()).collect();
                    Matrix::from_rows(&rows)
                });
                assert_eq!(per_user.per_user, want, "evaluate, {config:?}");
                assert_eq!(batched.per_user, want, "evaluate_batch, {config:?}");
            }
        }
    }

    #[test]
    fn users_without_test_items_are_skipped() {
        let sequences = vec![(0..20).collect::<Vec<usize>>(), vec![0, 1]];
        let data = SequenceDataset::new("short", sequences, 30);
        let split = split_dataset(&data, EvalSetting::Cut8020);
        let report = evaluate(&split, &EvalConfig::default(), |_, _| vec![0.0; 30]);
        assert_eq!(report.num_evaluated, 1);
    }

    #[test]
    #[should_panic(expected = "one score per item")]
    fn wrong_score_length_panics() {
        let split = toy_split();
        let _ = evaluate(&split, &EvalConfig::default(), |_, _| vec![0.0; 3]);
    }
}
