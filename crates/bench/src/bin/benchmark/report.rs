//! What a workload hands back: phase counts, end-to-end metrics, the
//! per-layer observations of a traced run, and how they are printed.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// Requests (or calls, passes, rounds) of one phase of a workload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn count(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Moves `n` operations from succeeded to failed (a response that looked
    /// fine until the oracle disagreed with it).
    pub fn fail_succeeded(&mut self, n: u64) {
        let n = n.min(self.succeeded);
        self.succeeded -= n;
        self.failed += n;
    }
}

/// Per-layer observations of a traced run, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_runs_s: Vec<f64>,
    pub warmup: Phase,
    pub measured: Phase,
    pub users_per_s: f64,
    /// Caller-observed time of the workload's ranking call.
    pub latency: Summary,
    pub job_s: f64,
    pub recall_at_10: f64,
    pub ndcg_at_10: f64,
    /// Printed, not gated: the same quantities under the names the workload's
    /// own users know them by, and anything else worth a line.
    pub notes: Vec<String>,
    /// Filled by a traced run only.
    pub layers: LayerMetrics,
}

impl Outcome {
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_runs_s).unwrap_or(f64::NAN)
    }

    pub fn failed_share(&self) -> f64 {
        self.measured.failed as f64 / self.measured.sent.max(1) as f64
    }

    /// Every end-to-end metric, in the order of [`END_TO_END`].
    pub fn end_to_end(&self, peak_rss_mib: f64) -> Vec<(&'static str, &'static str, f64)> {
        let values = [
            self.setup_s(),
            peak_rss_mib,
            self.users_per_s,
            self.latency.p50_us(),
            self.latency.p90_us(),
            self.job_s,
            self.recall_at_10,
            self.ndcg_at_10,
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, unit, value)).collect()
    }

    /// Every per-layer metric, in the order of [`PER_LAYER`]; a metric the
    /// traced run failed to observe is reported as NaN by the caller's check.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, unit, self.layers.get(name).copied().unwrap_or(f64::NAN))).collect()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counts_add_up() {
        let mut phase = Phase::default();
        phase.count(true);
        phase.count(true);
        phase.count(false);
        assert_eq!(phase, Phase { sent: 3, succeeded: 2, failed: 1 });
        phase.fail_succeeded(5);
        assert_eq!(phase, Phase { sent: 3, succeeded: 0, failed: 3 });
    }

    #[test]
    fn metrics_json_keeps_all_digits() {
        let json = metrics_json(&[("latency_p50_us", "us", 416.532), ("setup_s", "s", 0.25)]);
        assert_eq!(
            json,
            "{\"latency_p50_us\": {\"value\": 416.532, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
    }
}
