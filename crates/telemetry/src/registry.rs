//! The metric registry and its serializable snapshot.
//!
//! Components resolve named metric handles once at construction
//! ([`MetricsRegistry::counter`] / [`gauge`](MetricsRegistry::gauge) /
//! [`histogram`](MetricsRegistry::histogram) get-or-create under a mutex —
//! registration is cold); every subsequent record goes straight to the
//! lock-free primitive. [`MetricsRegistry::snapshot`] freezes every metric
//! into a [`MetricsSnapshot`], which serializes to JSON (one object), to
//! JSON-lines (one object per metric per line — the append-to-a-log shape)
//! and to a Prometheus-style text exposition.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use serde::{field, DeError, Deserialize, Serialize, Value};
use std::sync::Mutex;

/// A named collection of counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, creating it at zero on first use. The
    /// returned handle shares state with every other handle of the same
    /// name — resolve once, record lock-free forever.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Registers an externally owned counter under `name` (the serving
    /// layer's always-on stats counters join the registry this way). A
    /// same-named entry is replaced.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.retain(|(n, _)| n != name);
        inner.counters.push((name.to_string(), counter.clone()));
    }

    /// Registers an externally owned gauge under `name` (see
    /// [`Self::register_counter`]).
    pub fn register_gauge(&self, name: &str, gauge: &Gauge) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.retain(|(n, _)| n != name);
        inner.gauges.push((name.to_string(), gauge.clone()));
    }

    /// Freezes every registered metric into an owned snapshot, entries
    /// sorted by name so two snapshots of the same state are identical.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut snapshot = MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| CounterEntry { name: n.clone(), value: c.get() }).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| GaugeEntry { name: n.clone(), value: g.get() }).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| HistogramEntry { name: n.clone(), data: h.snapshot() })
                .collect(),
        };
        snapshot.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// The frozen count.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// The frozen value.
    pub value: i64,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// The merged histogram state.
    pub data: HistogramSnapshot,
}

/// A point-in-time, owned copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// The state of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|e| e.name == name).map(|e| &e.data)
    }

    /// Appends (or replaces) a counter — how values owned outside any
    /// registry (the kernel layer's per-tier dispatch counters) join a
    /// snapshot before exposition.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.retain(|e| e.name != name);
        let at = self.counters.partition_point(|e| e.name.as_str() < name);
        self.counters.insert(at, CounterEntry { name: name.to_string(), value });
    }

    /// Serializes to JSON-lines: one self-describing object per metric per
    /// line (`{"type":"counter","name":…,"value":…}`), the shape an
    /// append-only metrics log ingests.
    // ham-lint: api("README § Observability; ROADMAP item 7")
    pub fn to_json_lines(&self) -> String {
        // The vendored `Value` has no own `Serialize` impl; this wrapper
        // lets prebuilt values flow through `serde_json::to_string`.
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let line = |kind: &str, name: &str, payload_key: &str, payload: Value| {
            let obj = Value::Object(vec![
                ("type".to_string(), kind.to_value()),
                ("name".to_string(), name.to_value()),
                (payload_key.to_string(), payload),
            ]);
            serde_json::to_string(&Raw(obj)).expect("metric line serializes")
        };
        let mut out = String::new();
        for e in &self.counters {
            out.push_str(&line("counter", &e.name, "value", e.value.to_value()));
            out.push('\n');
        }
        for e in &self.gauges {
            out.push_str(&line("gauge", &e.name, "value", e.value.to_value()));
            out.push('\n');
        }
        for e in &self.histograms {
            out.push_str(&line("histogram", &e.name, "data", e.data.to_value()));
            out.push('\n');
        }
        out
    }

    /// Serializes to a Prometheus-style text exposition: counters as
    /// `name value` with `# TYPE` headers, histograms as cumulative
    /// `name_bucket{le="…"}` series plus `name_sum` / `name_count`.
    // ham-lint: api("README § Observability; ROADMAP item 7")
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for e in &self.counters {
            out.push_str(&format!("# TYPE {} counter\n{} {}\n", e.name, e.name, e.value));
        }
        for e in &self.gauges {
            out.push_str(&format!("# TYPE {} gauge\n{} {}\n", e.name, e.name, e.value));
        }
        for e in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", e.name));
            let mut cumulative = 0u64;
            for (bucket, &n) in e.data.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let le = if bucket >= e.data.buckets.len() - 1 {
                    "+Inf".to_string()
                } else if bucket == 0 {
                    "0".to_string()
                } else {
                    ((1u64 << bucket) - 1).to_string()
                };
                out.push_str(&format!("{}_bucket{{le=\"{}\"}} {}\n", e.name, le, cumulative));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", e.name, e.data.count));
            out.push_str(&format!("{}_sum {}\n", e.name, e.data.sum));
            out.push_str(&format!("{}_count {}\n", e.name, e.data.count));
        }
        out
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let entry = |name: &str, value: Value| (name.to_string(), value);
        Value::Object(vec![
            entry(
                "counters",
                Value::Array(
                    self.counters
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                ("name".to_string(), e.name.to_value()),
                                ("value".to_string(), e.value.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            entry(
                "gauges",
                Value::Array(
                    self.gauges
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                ("name".to_string(), e.name.to_value()),
                                ("value".to_string(), e.value.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            entry(
                "histograms",
                Value::Array(
                    self.histograms
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                ("name".to_string(), e.name.to_value()),
                                ("data".to_string(), e.data.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::new("MetricsSnapshot: expected object"))?;
        let entries = |key: &str| -> Result<Vec<Value>, DeError> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, Value::Array(items))) => Ok(items.clone()),
                Some(_) => Err(DeError::new(format!("MetricsSnapshot: `{key}` must be an array"))),
                None => Err(DeError::new(format!("MetricsSnapshot: missing `{key}`"))),
            }
        };
        let mut counters = Vec::new();
        for item in entries("counters")? {
            let o = item.as_object().ok_or_else(|| DeError::new("counter entry: expected object"))?;
            counters.push(CounterEntry { name: field(o, "name")?, value: field(o, "value")? });
        }
        let mut gauges = Vec::new();
        for item in entries("gauges")? {
            let o = item.as_object().ok_or_else(|| DeError::new("gauge entry: expected object"))?;
            gauges.push(GaugeEntry { name: field(o, "name")?, value: field(o, "value")? });
        }
        let mut histograms = Vec::new();
        for item in entries("histograms")? {
            let o = item.as_object().ok_or_else(|| DeError::new("histogram entry: expected object"))?;
            histograms.push(HistogramEntry { name: field(o, "name")?, data: field(o, "data")? });
        }
        Ok(Self { counters, gauges, histograms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests_total");
        let b = registry.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().counter("requests_total"), Some(3));
        assert_eq!(registry.snapshot().counters.len(), 1, "same name resolves to one metric");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let registry = MetricsRegistry::new();
        registry.counter("zeta").add(1);
        registry.counter("alpha").add(2);
        registry.gauge("depth").set(-4);
        registry.histogram("latency").record(100);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.gauge("depth"), Some(-4));
        assert_eq!(snap.histogram("latency").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn external_metrics_can_be_registered_and_pushed() {
        let registry = MetricsRegistry::new();
        let owned = Counter::new();
        owned.add(7);
        registry.register_counter("external_total", &owned);
        owned.inc();
        let mut snap = registry.snapshot();
        assert_eq!(snap.counter("external_total"), Some(8));
        snap.push_counter("kernel_portable_calls_total", 5);
        snap.push_counter("kernel_portable_calls_total", 6);
        assert_eq!(snap.counter("kernel_portable_calls_total"), Some(6), "push replaces");
        let sorted: Vec<&str> = snap.counters.iter().map(|e| e.name.as_str()).collect();
        let mut expect = sorted.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "push keeps the name order");
    }

    #[test]
    fn json_lines_has_one_line_per_metric() {
        let registry = MetricsRegistry::new();
        registry.counter("a").inc();
        registry.gauge("b").set(2);
        registry.histogram("c").record(3);
        let text = registry.snapshot().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"counter\"") && lines[0].contains("\"a\""), "{}", lines[0]);
        assert!(lines[2].contains("\"histogram\""), "{}", lines[2]);
    }

    #[test]
    fn prometheus_text_emits_cumulative_buckets() {
        let registry = MetricsRegistry::new();
        registry.counter("served_total").add(3);
        let h = registry.histogram("latency_micros");
        h.record(5); // bucket le=7
        h.record(6); // bucket le=7
        h.record(100); // bucket le=127
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE served_total counter"), "{text}");
        assert!(text.contains("served_total 3"), "{text}");
        assert!(text.contains("latency_micros_bucket{le=\"7\"} 2"), "{text}");
        assert!(text.contains("latency_micros_bucket{le=\"127\"} 3"), "{text}");
        assert!(text.contains("latency_micros_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("latency_micros_sum 111"), "{text}");
        assert!(text.contains("latency_micros_count 3"), "{text}");
    }

    #[test]
    fn metrics_snapshot_serde_round_trip() {
        let registry = MetricsRegistry::new();
        registry.counter("served_total").add(42);
        registry.gauge("queue_depth").set(-1);
        let h = registry.histogram("latency");
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snap, back);
    }
}
