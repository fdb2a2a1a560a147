//! Plain-text table formatting for the experiment binaries, mirroring the
//! layout of the paper's tables (methods as columns, datasets as rows).

use crate::metrics::MetricSet;

/// A table of `method → per-dataset metrics` in the layout of Tables 3–8.
#[derive(Debug, Clone, Default)]
pub struct ResultsTable {
    methods: Vec<String>,
    rows: Vec<(String, Vec<MetricSet>)>,
}

impl ResultsTable {
    /// Creates an empty table with the given method (column) names.
    pub fn new(methods: &[&str]) -> Self {
        Self { methods: methods.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one dataset row; `metrics` must hold one entry per method, in
    /// column order.
    ///
    /// # Panics
    /// Panics if the number of metric sets does not match the method count.
    pub fn add_row(&mut self, dataset: &str, metrics: Vec<MetricSet>) {
        assert_eq!(metrics.len(), self.methods.len(), "ResultsTable: one MetricSet per method required");
        self.rows.push((dataset.to_string(), metrics));
    }

    /// The method (column) names.
    pub fn methods(&self) -> &[String] {
        &self.methods
    }

    /// The dataset rows added so far.
    pub fn rows(&self) -> &[(String, Vec<MetricSet>)] {
        &self.rows
    }

    /// Renders one metric (e.g. `"Recall@10"`) as a fixed-width text table,
    /// marking the best method per row with `*`.
    fn render_metric(&self, metric: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{metric}\n"));
        out.push_str(&format!("{:<10}", "Dataset"));
        for m in &self.methods {
            out.push_str(&format!(" {m:>10}"));
        }
        out.push('\n');
        for (dataset, metrics) in &self.rows {
            out.push_str(&format!("{dataset:<10}"));
            let values: Vec<f64> = metrics.iter().map(|m| m.get(metric)).collect();
            let best = values.iter().cloned().fold(f64::MIN, f64::max);
            for &v in &values {
                let marker = if (v - best).abs() < 1e-12 && values.len() > 1 { "*" } else { " " };
                out.push_str(&format!(" {v:>9.4}{marker}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders all four reported metrics.
    pub fn render_all(&self) -> String {
        MetricSet::metric_names().iter().map(|m| self.render_metric(m)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(recall5: f64) -> MetricSet {
        MetricSet { recall_at_5: recall5, recall_at_10: recall5 * 1.5, ndcg_at_5: recall5 * 0.9, ndcg_at_10: recall5 }
    }

    #[test]
    fn renders_rows_and_marks_the_best_method() {
        let mut table = ResultsTable::new(&["Caser", "HGN", "HAMs_m"]);
        table.add_row("CDs", vec![metric(0.02), metric(0.03), metric(0.04)]);
        let text = table.render_metric("Recall@5");
        assert!(text.contains("CDs"));
        assert!(text.contains("0.0400*"), "best value should be starred:\n{text}");
        assert!(!text.contains("0.0300*"));
        assert_eq!(table.methods().len(), 3);
        assert_eq!(table.rows().len(), 1);
    }

    #[test]
    fn render_all_contains_every_metric_header() {
        let mut table = ResultsTable::new(&["A", "B"]);
        table.add_row("X", vec![metric(0.1), metric(0.2)]);
        let text = table.render_all();
        for name in MetricSet::metric_names() {
            assert!(text.contains(name), "missing section for {name}");
        }
    }

    #[test]
    #[should_panic(expected = "one MetricSet per method")]
    fn mismatched_row_width_panics() {
        let mut table = ResultsTable::new(&["A", "B"]);
        table.add_row("X", vec![metric(0.1)]);
    }
}
