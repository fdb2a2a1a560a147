//! `ham-telemetry` — lock-free metrics and request-span tracing for the HAM
//! serving system.
//!
//! The crate is std-only and splits into three layers:
//!
//! - [`metrics`]: wait-free [`Counter`]/[`Gauge`] cells and a thread-sharded
//!   log2-bucketed [`Histogram`] whose shards merge deterministically on
//!   read.
//! - [`registry`]: a named [`MetricsRegistry`] (get-or-create is the only
//!   locked path; recording never locks) and its serializable
//!   [`MetricsSnapshot`] with JSON, JSON-lines and Prometheus-style text
//!   expositions.
//! - [`span`]: plain-data [`SpanTree`]s for stage-level request timing and
//!   the [`FlightRecorder`] ring of the last N request trees.
//!
//! Components take a [`Telemetry`] handle. A disabled handle is a `None`
//! inside an `Option` — every instrumentation site degrades to one branch,
//! which is what keeps the serve-p50 overhead within the ≤2% budget pinned
//! by `BENCH_telemetry.json`.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{CounterEntry, GaugeEntry, HistogramEntry, MetricsRegistry, MetricsSnapshot};
pub use span::{FlightRecorder, SpanTree};

use std::sync::{Arc, OnceLock};

/// Flight-recorder capacity used by [`Telemetry::enabled`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

#[derive(Debug)]
struct TelemetryInner {
    registry: MetricsRegistry,
    flight: FlightRecorder,
}

/// The cheap, cloneable handle instrumented components hold.
///
/// Enabled handles share one [`MetricsRegistry`] and one [`FlightRecorder`];
/// a disabled handle carries nothing and makes every instrumentation call a
/// single `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// An enabled handle with the default flight-recorder capacity.
    pub fn enabled() -> Self {
        Self::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled handle keeping the last `capacity` request span trees.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                registry: MetricsRegistry::new(),
                flight: FlightRecorder::new(capacity),
            })),
        }
    }

    /// The no-op handle: every instrumentation site short-circuits.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enabled iff the environment sets `HAM_TELEMETRY=1` (or `true`/`on`),
    /// disabled otherwise — the zero-code way to light up an existing
    /// binary.
    pub fn from_env() -> Self {
        match std::env::var("HAM_TELEMETRY") {
            Ok(v) if matches!(v.as_str(), "1" | "true" | "on") => Self::enabled(),
            _ => Self::disabled(),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared registry (`None` when disabled).
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The shared flight recorder (`None` when disabled).
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_deref().map(|i| &i.flight)
    }

    /// Snapshot of every metric (`None` when disabled).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry().map(MetricsRegistry::snapshot)
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs the process-global handle used by call sites that cannot thread
/// a handle through their config types (the batched trainer's `Copy`
/// configs). First install wins; returns whether this call installed.
pub fn install_global(telemetry: Telemetry) -> bool {
    GLOBAL.set(telemetry).is_ok()
}

/// The process-global handle; disabled until [`install_global`] runs.
pub fn global() -> Telemetry {
    GLOBAL.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_carries_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.registry().is_none());
        assert!(t.flight().is_none());
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn enabled_clones_share_state() {
        let t = Telemetry::with_flight_capacity(4);
        let other = t.clone();
        t.registry().unwrap().counter("shared_total").add(5);
        assert_eq!(other.snapshot().unwrap().counter("shared_total"), Some(5));
        other.flight().unwrap().record(SpanTree::leaf("request", 0, 10));
        assert_eq!(t.flight().unwrap().len(), 1);
    }

    #[test]
    fn global_defaults_to_disabled() {
        // install_global is covered end-to-end by the report bin; here we
        // only pin that an uninstalled global is a no-op handle.
        assert!(!global().is_enabled() || GLOBAL.get().is_some());
    }
}
