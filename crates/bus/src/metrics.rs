//! Connector instrumentation (§7.4): per-source backlog/read metrics
//! and per-sink commit metrics. The engine feeds them from inside its
//! `source-read` and `sink-commit` phases; the sink's commit latency
//! is that phase's own time.

use ss_common::{Counter, Gauge, Histogram, MetricsRegistry};

/// Instrument handles for one named source, under the `ss_source_*`
/// families labelled `{source="<name>"}`.
#[derive(Debug, Clone)]
pub struct SourceMetrics {
    /// `ss_source_backlog_rows` — records available but not yet read
    /// into an epoch (set after each epoch's offset selection).
    pub backlog: Gauge,
    /// `ss_source_rows_total` — records read into epochs.
    pub rows_read: Counter,
    /// `ss_source_read_us` — per-epoch read latency for this source.
    pub read_us: Histogram,
}

impl SourceMetrics {
    pub fn new(registry: &MetricsRegistry, source: &str) -> SourceMetrics {
        registry.describe(
            "ss_source_backlog_rows",
            "Records available at the source but not yet read into an epoch.",
        );
        registry.describe("ss_source_rows_total", "Records read from the source into epochs.");
        registry.describe("ss_source_read_us", "Per-epoch source read latency.");
        SourceMetrics {
            backlog: registry.gauge("ss_source_backlog_rows", &[("source", source)]),
            rows_read: registry.counter("ss_source_rows_total", &[("source", source)]),
            read_us: registry.histogram("ss_source_read_us", &[("source", source)]),
        }
    }
}

/// Instrument handles for one named sink, under the `ss_sink_*`
/// families labelled `{sink="<name>"}`.
#[derive(Debug, Clone)]
pub struct SinkMetrics {
    /// `ss_sink_commits_total` — epoch commits accepted.
    pub commits: Counter,
    /// `ss_sink_rows_total` — rows delivered across all commits.
    pub rows: Counter,
    /// `ss_sink_commit_us` — per-epoch commit latency.
    pub commit_us: Histogram,
}

impl SinkMetrics {
    pub fn new(registry: &MetricsRegistry, sink: &str) -> SinkMetrics {
        registry.describe("ss_sink_commits_total", "Epoch commits accepted by the sink.");
        registry.describe("ss_sink_rows_total", "Rows delivered to the sink.");
        registry.describe("ss_sink_commit_us", "Per-epoch sink commit latency.");
        SinkMetrics {
            commits: registry.counter("ss_sink_commits_total", &[("sink", sink)]),
            rows: registry.counter("ss_sink_rows_total", &[("sink", sink)]),
            commit_us: registry.histogram("ss_sink_commit_us", &[("sink", sink)]),
        }
    }

    /// Record one successful commit of `rows` rows taking `us` µs.
    pub fn observe_commit(&self, rows: u64, us: u64) {
        self.commits.inc();
        self.rows.add(rows);
        self.commit_us.observe(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::MetricValue;

    #[test]
    fn source_metrics_register_labelled_series() {
        let registry = MetricsRegistry::new();
        let m = SourceMetrics::new(&registry, "clicks");
        m.backlog.set(40);
        m.rows_read.add(10);
        m.read_us.observe(120);
        assert_eq!(
            registry.value("ss_source_backlog_rows", &[("source", "clicks")]),
            Some(MetricValue::Gauge(40))
        );
        assert_eq!(
            registry.value("ss_source_rows_total", &[("source", "clicks")]),
            Some(MetricValue::Counter(10))
        );
    }
}
