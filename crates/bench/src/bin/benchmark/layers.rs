//! The per-layer half of a traced run: single-threaded replays of each
//! layer's public functions on the workload's own model and inputs, and bare
//! kernel calls on the same matrices.
//!
//! A workload's traced window already observes the layers on its own path
//! (server queue/service split, trainer epochs, online rounds). Everything
//! else is measured here, from outside, so that every traced run reports
//! every per-layer metric as a measured number. Each timed call goes through
//! `black_box` so the compiler cannot drop it.

use crate::inputs::{derive_seed, online_stream, K};
use crate::report::LayerMetrics;
use crate::serving::{record_request_spans, response_is_complete, server_layer_metrics, start_server};
use crate::spec::{model_config, Sizes};
use crate::stats;
use crate::trace::Trace;
use ham_core::{train_with_history, EpochStats, HamModel, SeenMask, TrainConfig};
use ham_data::batch::BatchSampler;
use ham_data::dataset::SequenceDataset;
use ham_data::split::{split_dataset, DataSplit, EvalSetting};
use ham_data::synthetic::DatasetProfile;
use ham_data::window::sliding_windows;
use ham_eval::protocol::{evaluate_batch, EvalConfig};
use ham_eval::ranking::top_k_excluding;
use ham_faults::FaultInjector;
use ham_online::{OnlineConfig, OnlineTrainer, PublishGate, RoundReport};
use ham_serve::{IvfConfig, ModelRegistry, RecommendRequest, ServeScratch, ServingModel, ShardedCatalog};
use ham_telemetry::Telemetry;
use ham_tensor::cluster::kmeans_rows;
use ham_tensor::pool::global_pool;
use ham_tensor::{kernels, ops, Matrix, QuantizedMatrix, QuantizedQuery};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Publishes timed for `serve.registry.publish_us` (each needs a snapshot
/// frozen beforehand, outside the timing).
const PUBLISH_REPEATS: usize = 5;
/// `registry.current()` is tens of nanoseconds; it is timed in runs of this
/// many calls and reported per call.
const CURRENT_CALLS_PER_SAMPLE: usize = 1000;

/// Wall nanoseconds of one call.
fn time_ns<T>(call: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = black_box(call());
    (out, started.elapsed().as_nanos() as u64)
}

/// Wall seconds of one call.
fn time_s<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let (out, ns) = time_ns(call);
    (out, ns as f64 / 1e9)
}

/// Median wall microseconds of `calls` invocations of `call(i)`.
fn median_call_us(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<u64> = (0..calls.max(1)).map(|i| time_ns(|| call(i)).1).collect();
    stats::median_us(&mut samples)
}

/// Median wall seconds of three invocations.
fn median_of_three_s<T>(mut call: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..3).map(|_| time_s(&mut call).1).collect();
    stats::median(&runs).unwrap_or(f64::NAN)
}

/// `serve.server.*` for a workload whose window has no server: one
/// closed-loop client sends the replay's requests through a fresh
/// `RecServer` on `registry`.
pub fn replay_server(
    sizes: &Sizes,
    registry: &Arc<ModelRegistry>,
    stream: &[RecommendRequest],
    trace: &mut Trace,
    layers: &mut LayerMetrics,
) {
    let server = start_server(registry);
    let shards = registry.current().model.catalog().num_shards();
    for (id, request) in stream.iter().cycle().take(sizes.replay_requests).enumerate() {
        let request = request.clone();
        let sent = Instant::now();
        if let Ok(response) = server.submit(request) {
            if response_is_complete(&response, shards) {
                let split = (response.queue_micros, response.service_micros);
                record_request_spans(trace, id as u64, (sent, Instant::now()), split);
            }
        }
    }
    server_layer_metrics(trace, layers);
}

/// `serve.model.*`, `serve.shard.*`, `serve.ivf.*`, `serve.registry.*`: the
/// solo path whole and in parts, the batch path, the two opt-in tiers, and
/// freeze / publish — all on snapshots of `model`, one thread, `stream`'s
/// requests in order.
pub fn replay_serving_layers(
    sizes: &Sizes,
    model: &Arc<HamModel>,
    stream: &[RecommendRequest],
    trace: &mut Trace,
    layers: &mut LayerMetrics,
) {
    let freeze = || ServingModel::from_scorer("replay", Arc::clone(model), sizes.shards).expect("linear head");
    layers.insert("serve.model.freeze_s", median_of_three_s(freeze));
    let serving = freeze();
    let catalog = serving.catalog();
    let replayed: Vec<&RecommendRequest> = stream.iter().cycle().take(sizes.replay_requests).collect();

    // The solo path as the dispatcher calls it: one opaque call.
    let mut scratch = ServeScratch::new();
    let mut exact_lists = Vec::with_capacity(replayed.len());
    let mut recommend_ns = Vec::with_capacity(replayed.len());
    for (id, request) in replayed.iter().enumerate() {
        let started = Instant::now();
        let list = black_box(serving.recommend_with(request, &mut scratch));
        let ended = Instant::now();
        trace.record("serve.model.recommend", trace.ns(started), trace.ns(ended), None, id as u64);
        recommend_ns.push((ended - started).as_nanos() as u64);
        exact_lists.push(list);
    }

    // The same path in parts, through the public functions it is made of.
    let mut seen = SeenMask::new(catalog.num_items());
    let mut scores = vec![0.0f32; catalog.shards().iter().map(|s| s.len()).max().unwrap_or(0)];
    let (mut query_ns, mut scores_sum_ns, mut scores_max_ns, mut top_k_ns, mut merge_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (id, request) in replayed.iter().enumerate() {
        let id = id as u64;
        let started = Instant::now();
        let query = black_box(serving.query_vector(request.user, &request.history));
        let query_done = Instant::now();
        seen.mark(&request.history);
        let mut per_shard = Vec::with_capacity(catalog.num_shards());
        let (mut scores_total, mut scores_max, mut top_k_total) = (0u64, 0u64, 0u64);
        let mut shard_spans = Vec::with_capacity(2 * catalog.num_shards());
        for shard in 0..catalog.num_shards() {
            let out = &mut scores[..catalog.shards()[shard].len()];
            let scan_started = Instant::now();
            catalog.shard_scores_into(shard, &query, out);
            let scan_done = Instant::now();
            per_shard.push(black_box(catalog.shard_top_k(shard, out, request.k, Some(seen.bits()))));
            let select_done = Instant::now();
            let scan_ns = (scan_done - scan_started).as_nanos() as u64;
            scores_total += scan_ns;
            scores_max = scores_max.max(scan_ns);
            top_k_total += (select_done - scan_done).as_nanos() as u64;
            shard_spans.push(("serve.shard.scores", scan_started, scan_done));
            shard_spans.push(("serve.shard.top_k", scan_done, select_done));
        }
        seen.clear(&request.history);
        let merge_started = Instant::now();
        black_box(ham_serve::merge_top_k(&per_shard, request.k));
        let ended = Instant::now();

        let parent = trace.record("serve.model.recommend_in_parts", trace.ns(started), trace.ns(ended), None, id);
        trace.record("serve.model.query_vector", trace.ns(started), trace.ns(query_done), Some(parent), id);
        for (name, from, to) in shard_spans {
            trace.record(name, trace.ns(from), trace.ns(to), Some(parent), id);
        }
        trace.record("serve.shard.merge", trace.ns(merge_started), trace.ns(ended), Some(parent), id);
        query_ns.push((query_done - started).as_nanos() as u64);
        scores_sum_ns.push(scores_total);
        scores_max_ns.push(scores_max);
        top_k_ns.push(top_k_total);
        merge_ns.push((ended - merge_started).as_nanos() as u64);
    }
    let recommend_us = stats::median_us(&mut recommend_ns);
    let parts_us = [
        ("serve.model.query_vector_us", stats::median_us(&mut query_ns)),
        ("serve.shard.scores_us", stats::median_us(&mut scores_sum_ns)),
        ("serve.shard.top_k_us", stats::median_us(&mut top_k_ns)),
        ("serve.shard.merge_us", stats::median_us(&mut merge_ns)),
    ];
    layers.insert("serve.model.recommend_us", recommend_us);
    layers.insert("serve.shard.scores_max_us", stats::median_us(&mut scores_max_ns));
    layers.insert("serve.model.unattributed_us", recommend_us - parts_us.iter().map(|p| p.1).sum::<f64>());
    layers.extend(parts_us);

    // The batch path in its two stages: query assembly, then GEMM + select.
    let (mut assembly_ns, mut batch_ns) = (Vec::new(), Vec::new());
    for chunk in replayed.chunks(sizes.batch_chunk) {
        let (queries, assembly) = time_ns(|| {
            let mut queries = Matrix::zeros(chunk.len(), catalog.dim());
            for (row, request) in chunk.iter().enumerate() {
                queries.row_mut(row).copy_from_slice(&serving.query_vector(request.user, &request.history));
            }
            queries
        });
        let ks = vec![K; chunk.len()];
        let seen_items: Vec<Option<&[usize]>> = chunk.iter().map(|r| Some(r.history.as_slice())).collect();
        batch_ns.push(time_ns(|| catalog.top_k_batch(&queries, &ks, &seen_items, Some(global_pool()))).1);
        assembly_ns.push(assembly);
    }
    layers.insert("serve.model.batch_assembly_us", stats::median_us(&mut assembly_ns));
    layers.insert("serve.shard.batch_top_k_us", stats::median_us(&mut batch_ns));

    // The opt-in tiers, at layer level: int8 pre-selection + exact re-rank,
    // and cluster-routed retrieval at nprobe = 16 with its recall.
    let candidates = model.candidate_item_embeddings();
    let (quantized, quantize_s) = time_s(|| ShardedCatalog::from_matrix(candidates, sizes.shards).with_quantization());
    let ivf_config = IvfConfig::auto().with_nprobe(16);
    let (clustered, ivf_build_s) =
        time_s(|| ShardedCatalog::from_matrix(candidates, sizes.shards).with_cluster_index(&ivf_config));
    layers.insert("serve.shard.quantize_s", quantize_s);
    layers.insert("serve.ivf.build_s", ivf_build_s);
    let mut scores_buf = Vec::new();
    let mut route_buf = Vec::new();
    let mut qquery = QuantizedQuery::quantize(&[]);
    let (mut int8_ns, mut ivf_ns) = (Vec::new(), Vec::new());
    let mut ivf_hits = 0usize;
    for (request, exact) in replayed.iter().zip(&exact_lists) {
        let query = serving.query_vector(request.user, &request.history);
        seen.mark(&request.history);
        let bits = Some(seen.bits());
        int8_ns.push(time_ns(|| quantized.quantized_top_k_with_buf(&query, K, bits, &mut scores_buf, &mut qquery)).1);
        let (approx, ns) = time_ns(|| clustered.ivf_top_k_with_buf(&query, K, bits, &mut scores_buf, &mut route_buf));
        seen.clear(&request.history);
        ivf_ns.push(ns);
        ivf_hits += approx.iter().filter(|a| exact.iter().any(|e| e.item == a.item)).count();
    }
    layers.insert("serve.shard.int8_top_k_us", stats::median_us(&mut int8_ns));
    layers.insert("serve.ivf.top_k_us", stats::median_us(&mut ivf_ns));
    layers.insert("serve.ivf.recall_at_10", ivf_hits as f64 / (K * replayed.len()).max(1) as f64);

    // Hot-swap cost: the registry swap alone (freeze is timed above).
    let registry = ModelRegistry::new(serving);
    let mut publish_ns: Vec<u64> = (0..PUBLISH_REPEATS)
        .map(|_| {
            let snapshot = freeze();
            time_ns(|| registry.publish(snapshot)).1
        })
        .collect();
    layers.insert("serve.registry.publish_us", stats::median_us(&mut publish_ns));
    let mut current_ns: Vec<u64> = (0..sizes.replay_requests.div_ceil(CURRENT_CALLS_PER_SAMPLE).max(3))
        .map(|_| {
            time_ns(|| {
                for _ in 0..CURRENT_CALLS_PER_SAMPLE {
                    black_box(registry.current());
                }
            })
            .1
        })
        .collect();
    layers.insert("serve.registry.current_us", stats::median_us(&mut current_ns) / CURRENT_CALLS_PER_SAMPLE as f64);
}

/// `tensor.*`, `host.stream_gbps`, `core.model.*`, `eval.ranking.*`: bare
/// kernel calls on `model`'s candidate matrix, and the model's own query and
/// batch-scoring functions on `stream`'s requests.
pub fn replay_model_layers(sizes: &Sizes, model: &HamModel, stream: &[RecommendRequest], layers: &mut LayerMetrics) {
    let w = model.candidate_item_embeddings();
    let (n, d) = w.shape();
    let calls = sizes.replay_requests;
    let queries: Vec<Vec<f32>> =
        stream.iter().take(calls.min(256)).map(|r| model.query_vector(r.user, &r.history)).collect();
    let query = |i: usize| queries[i % queries.len()].as_slice();

    // Bytes and flops are computed from the shapes, not counted by hardware.
    let mut out = vec![0.0f32; n];
    let matvec_us = median_call_us(calls, |i| kernels::matvec_transposed_into(w, black_box(query(i)), &mut out));
    layers.insert("tensor.kernels.matvec_us", matvec_us);
    layers.insert("tensor.kernels.matvec_gbps", ((n * d + n + d) * 4) as f64 / (matvec_us * 1e3));

    let rows = sizes.batch_chunk;
    let mut block = Matrix::zeros(rows, d);
    for row in 0..rows {
        block.row_mut(row).copy_from_slice(query(row));
    }
    let mut product = Matrix::zeros(rows, n);
    let matmul_calls = calls.div_ceil(rows).max(3);
    let matmul_us =
        median_call_us(matmul_calls, |_| kernels::matmul_transposed_into(black_box(&block), w, &mut product));
    layers.insert("tensor.kernels.matmul_us", matmul_us);
    layers.insert("tensor.kernels.matmul_gflops", (2 * rows * d * n) as f64 / (matmul_us * 1e3));

    let quantized = QuantizedMatrix::quantize(w);
    let mut qquery = QuantizedQuery::quantize(query(0));
    layers.insert("tensor.quant.quantize_query_us", median_call_us(calls, |i| qquery.requantize(black_box(query(i)))));
    layers.insert(
        "tensor.kernels.qmatvec_us",
        median_call_us(calls, |_| kernels::quantized_matvec_into(&quantized, black_box(&qquery), &mut out)),
    );

    kernels::matvec_transposed_into(w, query(0), &mut out);
    let shard_len = n.div_ceil(sizes.shards);
    layers.insert(
        "tensor.ops.top_k_shard_us",
        median_call_us(calls, |_| drop(black_box(ops::top_k_indices(black_box(&out[..shard_len]), K)))),
    );
    layers.insert(
        "tensor.ops.top_k_catalog_us",
        median_call_us(calls, |_| drop(black_box(ops::top_k_indices(black_box(&out), K)))),
    );
    let mut seen_scratch = vec![false; n];
    layers.insert(
        "eval.ranking.top_k_excluding_us",
        median_call_us(calls, |i| {
            let history = &stream[i % stream.len()].history;
            drop(black_box(top_k_excluding(&out, K, history, &mut seen_scratch)));
        }),
    );

    // One shard's index build, with the IVF tier's own parameters.
    let ivf = IvfConfig::auto();
    let shard_rows = w.gather_rows(&(0..shard_len).collect::<Vec<_>>());
    let (_, kmeans_s) = time_s(|| kmeans_rows(&shard_rows, ivf.clusters_for(shard_len), ivf.iters, ivf.seed));
    layers.insert("tensor.cluster.kmeans_s", kmeans_s);

    let pool = global_pool();
    layers.insert(
        "tensor.pool.scope_us",
        median_call_us(calls, |_| {
            pool.scope(|scope| {
                for _ in 0..sizes.shards {
                    scope.spawn(|| {});
                }
            })
        }),
    );

    // The roofline denominator: a plain copy of a buffer far larger than
    // the caches; bytes moved are computed (read + write).
    let source = vec![1u8; sizes.stream_buffer_mib << 20];
    let mut sink = vec![0u8; source.len()];
    let copy_us = median_call_us(5, |_| sink.copy_from_slice(black_box(&source)));
    black_box(&sink);
    layers.insert("host.stream_gbps", (2 * source.len()) as f64 / (copy_us * 1e3));

    layers.insert(
        "core.model.query_vector_us",
        median_call_us(calls, |i| {
            let request = &stream[i % stream.len()];
            drop(black_box(model.query_vector(request.user, &request.history)));
        }),
    );
    let chunk: Vec<&RecommendRequest> = stream.iter().take(rows).collect();
    let users: Vec<usize> = chunk.iter().map(|r| r.user).collect();
    let histories: Vec<&[usize]> = chunk.iter().map(|r| r.history.as_slice()).collect();
    layers.insert(
        "core.model.score_batch_us",
        median_call_us(matmul_calls, |_| drop(black_box(model.score_batch(&users, &histories)))),
    );
}

/// `data.*`: generation, split, window extraction and one epoch of batch
/// sampling (no training) on `profile`'s dataset. Returns the dataset and
/// its split for the replays that follow.
pub fn replay_data_layers(
    profile: &DatasetProfile,
    seed: u64,
    layers: &mut LayerMetrics,
) -> (SequenceDataset, DataSplit) {
    let config = model_config();
    layers.insert("data.synthetic.generate_s", median_of_three_s(|| profile.generate(seed)));
    let data = profile.generate(seed);
    layers.insert("data.split.split_s", median_of_three_s(|| split_dataset(&data, EvalSetting::Cut8020)));
    let split = split_dataset(&data, EvalSetting::Cut8020);
    let train = split.train_with_val();
    layers
        .insert("data.window.sliding_windows_s", median_of_three_s(|| sliding_windows(&train, config.n_h, config.n_p)));
    let mut sampler =
        BatchSampler::new(&train, data.num_items, config.n_h, config.n_p, config.n_l, 256, derive_seed(seed, 5));
    let sampling_s = median_of_three_s(|| {
        sampler.start_epoch();
        while let Some(batch) = sampler.next_batch() {
            black_box(batch);
        }
    });
    layers.insert("data.batch.epoch_sampling_s", sampling_s);
    layers.insert("data.batch.instances", sampler.num_instances() as f64);
    (data, split)
}

/// The training configuration of the workloads: batch 256, one thread.
pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, batch_size: 256, num_threads: 1, ..TrainConfig::default() }
}

/// Wall seconds of each epoch, recovered from its pairs and pairs/s.
pub fn epoch_seconds(epochs: &[EpochStats]) -> Vec<f64> {
    let n_p = model_config().n_p;
    epochs.iter().filter(|e| e.pairs_per_sec > 0.0).map(|e| (e.num_instances * n_p) as f64 / e.pairs_per_sec).collect()
}

/// `core.trainer.*` from the per-epoch statistics the trainer returns.
pub fn trainer_layer_metrics(epochs: &[EpochStats], layers: &mut LayerMetrics) {
    let rates: Vec<f64> = epochs.iter().map(|e| e.pairs_per_sec).filter(|r| *r > 0.0).collect();
    layers.insert("core.trainer.epoch_s", stats::median(&epoch_seconds(epochs)).unwrap_or(f64::NAN));
    layers.insert("core.trainer.epoch_pairs_per_s", stats::median(&rates).unwrap_or(f64::NAN));
    layers.insert("core.trainer.epoch_pairs_per_s_min", rates.iter().copied().fold(f64::NAN, f64::min));
}

/// `eval.protocol.pass_s`: full evaluation passes of `model` on `split`.
pub fn replay_eval_layer(model: &HamModel, split: &DataSplit, layers: &mut LayerMetrics) {
    let config = EvalConfig::default();
    let pass_s =
        median_of_three_s(|| evaluate_batch(split, &config, |users, histories| model.score_batch(users, histories)));
    layers.insert("eval.protocol.pass_s", pass_s);
}

/// The online loop's configuration in every workload and replay: default
/// gate, no quantization, no IVF.
pub fn online_config(sizes: &Sizes, seed: u64) -> OnlineConfig {
    OnlineConfig {
        model: model_config(),
        train: train_config(sizes.round_epochs),
        shards: sizes.shards,
        quantize_serving: false,
        ivf: None,
        seed: derive_seed(seed, 6),
        gate: PublishGate::default(),
    }
}

/// Bootstraps the online loop with telemetry and fault injection off.
pub fn bootstrap_online(sizes: &Sizes, seed: u64, initial: &SequenceDataset) -> OnlineTrainer {
    OnlineTrainer::bootstrap_instrumented(
        initial,
        online_config(sizes, seed),
        Telemetry::disabled(),
        FaultInjector::disabled(),
    )
}

/// `online.round.*` from the reports `run_round` returns; `round_s[i]` is the
/// benchmark-side wall time of round `i` (first ingest → `run_round` back).
pub fn online_layer_metrics(reports: &[RoundReport], round_s: &[f64], layers: &mut LayerMetrics) {
    let column = |value: fn(&RoundReport) -> f64| reports.iter().map(value).collect::<Vec<f64>>();
    let median_of = |value: fn(&RoundReport) -> f64| stats::median(&column(value)).unwrap_or(f64::NAN);
    let total_of = |value: fn(&RoundReport) -> f64| column(value).iter().sum::<f64>();
    let unaccounted: Vec<f64> =
        reports.iter().zip(round_s).map(|(r, round)| round - r.train_seconds - r.publish_seconds).collect();
    layers.insert("online.round.train_s", median_of(|r| r.train_seconds));
    layers.insert("online.round.publish_s", median_of(|r| r.publish_seconds));
    layers.insert("online.round.unaccounted_s", stats::median(&unaccounted).unwrap_or(f64::NAN));
    layers.insert("online.round.shadow_probes", median_of(|r| r.shadow.map_or(0.0, |s| s.probes as f64)));
    layers.insert("online.round.instances", median_of(|r| r.instances_trained as f64));
    layers.insert("online.round.rejected", total_of(|r| f64::from(u8::from(r.publish_rejected))));
    layers.insert("online.round.retries", total_of(|r| f64::from(r.publish_retries)));
}

/// Streams `ingest` into `trainer` one round's worth at a time and runs the
/// round; returns the report, the round's wall seconds and the median
/// per-`ingest` microseconds. `None` once the stream is exhausted.
pub fn ingest_and_run_round(
    trainer: &mut OnlineTrainer,
    ingest: &mut impl Iterator<Item = (usize, usize)>,
    per_round: usize,
    ingest_ns: &mut Vec<u64>,
) -> Option<(RoundReport, f64)> {
    let started = Instant::now();
    let mut appended = 0;
    for (user, item) in ingest.take(per_round) {
        ingest_ns.push(time_ns(|| trainer.ingest(user, item)).1);
        appended += 1;
    }
    (appended > 0).then(|| {
        let report = trainer.run_round();
        (report, started.elapsed().as_secs_f64())
    })
}

/// `online.*` for a workload that has no online loop of its own: bootstrap
/// on the first halves of `data`, then a few rounds, nobody reading.
pub fn replay_online_layers(sizes: &Sizes, data: &SequenceDataset, seed: u64, layers: &mut LayerMetrics) {
    let stream = online_stream(seed, data);
    let (mut trainer, bootstrap_s) = time_s(|| bootstrap_online(sizes, seed, &stream.initial));
    layers.insert("online.bootstrap_s", bootstrap_s);
    let mut ingest = stream.ingest.iter().copied();
    let mut ingest_ns = Vec::new();
    let (mut reports, mut round_s) = (Vec::new(), Vec::new());
    while reports.len() < sizes.replay_rounds {
        let Some((report, seconds)) =
            ingest_and_run_round(&mut trainer, &mut ingest, sizes.ingests_per_round, &mut ingest_ns)
        else {
            break;
        };
        reports.push(report);
        round_s.push(seconds);
    }
    layers.insert("online.ingest_us", stats::median_us(&mut ingest_ns));
    online_layer_metrics(&reports, &round_s, layers);
}

/// Everything a serving workload's traced run replays of the layers it does
/// not use, on the dataset of the two workloads that do (so the numbers mean
/// the same in every workload): data, one training epoch, evaluation of that
/// model, online.
pub fn replay_dataset_layers(sizes: &Sizes, seed: u64, layers: &mut LayerMetrics) {
    let (data, split) = replay_data_layers(&sizes.dataset, seed, layers);
    let (model, epochs) = train_with_history(
        &split.train_with_val(),
        data.num_items,
        &model_config(),
        &train_config(1),
        derive_seed(seed, 7),
    );
    trainer_layer_metrics(&epochs, layers);
    replay_eval_layer(&model, &split, layers);
    replay_online_layers(sizes, &data, seed, layers);
}
