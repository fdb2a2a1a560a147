//! Stage-level timing of one served batch.
//!
//! A [`StageTrace`] is the serving pipeline's timing scratchpad: the batch
//! path fills in how long query assembly, each shard's task (tile GEMMs —
//! after cluster routing, on the IVF tier — fused with the in-task select),
//! the k-way merges and (on the quantized path) the exact re-rank took; a
//! lone request fills in its one `solo` stage, plus the per-shard task
//! times when it fanned out on the pool. The
//! dispatcher then shapes the totals into per-request
//! [`SpanTree`](ham_telemetry::SpanTree)s for the flight recorder. Tracing is
//! requested explicitly (`Option<&mut StageTrace>` threaded through the batch
//! entry points), so the untraced hot path carries a `None` check and nothing
//! else.

/// Collected stage durations of one served batch (all microseconds).
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// Building the batch's query matrix from user ids + histories.
    pub batch_assembly_micros: u64,
    /// Per-shard task time, `(shard index, micros)` — wall-clock inside each
    /// shard's task, so with parallel shards these overlap. A task scores
    /// its shard in GEMM tiles — on a clustered catalogue it routes every
    /// request and scores the visited cluster panels — **and ranks every
    /// request's shortlist** before returning. A lone request reports its
    /// tasks only when they ran on the pool (children of the `solo` stage).
    pub shard_score_micros: Vec<(usize, u64)>,
    /// The coordinator's k-way merges of the per-shard shortlists across the
    /// batch — k-element lists only, flat or clustered.
    pub merge_micros: u64,
    /// Exact f32 re-rank of the merged candidates (quantized path only;
    /// zero on the exact path).
    pub rerank_micros: u64,
    /// The whole single-request GEMV path — query building, shard tasks,
    /// merge and re-rank — when the batch had one request.
    pub solo_micros: Option<u64>,
}

impl StageTrace {
    /// A cleared trace ready for one batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slowest shard's scoring time — the critical path through the
    /// parallel shard fan-out.
    pub fn max_shard_micros(&self) -> u64 {
        self.shard_score_micros.iter().map(|&(_, us)| us).max().unwrap_or(0)
    }
}
