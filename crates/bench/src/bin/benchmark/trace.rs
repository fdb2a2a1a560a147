//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! memory during the run, written out as JSON lines when it ends.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`. Times are
//! nanoseconds since the trace was created. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover —
//! overlapping children (parallel shard tasks) are covered once, not summed.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request (or one round, one replayed call) share this.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the trace origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (usable as a `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, request_id });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by [`SpanId`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, intervals)| span.duration_ns() - covered_ns(span.start_ns, span.end_ns, intervals))
            .collect()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Self times of every span called `name`, in recording order.
    pub fn self_ns_of(&self, name: &str) -> Vec<u64> {
        let self_times = self.self_times_ns();
        self.spans.iter().zip(self_times).filter(|(s, _)| s.name == name).map(|(_, t)| t).collect()
    }

    /// Writes `header` (one JSON object: where and with what the run was
    /// made) and then one JSON object per span. The parent directory is
    /// created.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        out.flush()
    }
}

/// Length of `[start, end]` covered by the union of `intervals` (each clipped
/// to the parent interval first).
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (child_start, child_end) in intervals {
        let from = child_start.max(frontier);
        let to = child_end.min(end);
        if to > from {
            covered += to - from;
            frontier = to;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let mut trace = Trace::new();
        let root = trace.record("root", 0, 100, None, 1);
        let child = trace.record("child", 10, 60, Some(root), 1);
        trace.record("grandchild", 20, 50, Some(child), 1);
        // root loses only its direct child (50), child loses the grandchild (30)
        assert_eq!(trace.self_times_ns(), vec![50, 20, 30]);
        assert_eq!(trace.self_ns_of("child"), vec![20]);
        assert_eq!(trace.durations_ns("child"), vec![50]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mut trace = Trace::new();
        let root = trace.record("root", 0, 100, None, 7);
        trace.record("shard", 10, 50, Some(root), 7);
        trace.record("shard", 30, 70, Some(root), 7); // overlaps the first by 20
        trace.record("shard", 35, 40, Some(root), 7); // entirely inside both
        trace.record("merge", 80, 90, Some(root), 7);
        // union = [10,70] + [80,90] = 70 covered
        assert_eq!(trace.self_times_ns()[root], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let mut trace = Trace::new();
        let root = trace.record("root", 100, 200, None, 0);
        trace.record("early", 50, 120, Some(root), 0);
        trace.record("late", 190, 400, Some(root), 0);
        assert_eq!(trace.self_times_ns()[root], 70);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut trace = Trace::new();
        let root = trace.record("client.submit", 5, 25, None, 3);
        trace.record("serve.server.queue", 5, 15, Some(root), 3);
        let path = std::env::temp_dir().join(format!("ham-benchmark-trace-{}.jsonl", std::process::id()));
        trace.write_jsonl(&path, "{\"fingerprint\": {\"seed\": 3}}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"fingerprint\": {\"seed\": 3}}");
        assert!(lines[1].contains("\"parent\": null"));
        assert_eq!(
            lines[2],
            "{\"id\": 1, \"name\": \"serve.server.queue\", \"start_ns\": 5, \"end_ns\": 15, \"parent\": 0, \"request_id\": 3}"
        );
    }
}
