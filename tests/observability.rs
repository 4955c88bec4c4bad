//! End-to-end observability (§7.4 Monitoring): a query run over the
//! in-repo bus must expose per-operator, state-store, WAL, source and
//! sink metrics through its registry; render a valid Prometheus text
//! exposition; produce chrome://tracing-compatible span JSON; and fire
//! one `on_progress` per epoch on registered listeners.

use std::sync::Arc;
use std::sync::Mutex;

use structured_streaming::prelude::*;
use structured_streaming::ss_common::MetricValue;
use structured_streaming::ss_core::StreamingQueryListener;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ])
}

fn rows(n: u64, start: u64) -> Vec<Row> {
    (start..start + n)
        .map(|i| row![format!("k{}", i % 3), i as i64])
        .collect()
}

#[derive(Default)]
struct Collector {
    progress: Mutex<Vec<QueryProgress>>,
    terminated: Mutex<Vec<(String, Option<String>)>>,
}

impl StreamingQueryListener for Collector {
    fn on_progress(&self, p: &QueryProgress) {
        self.progress.lock().unwrap().push(p.clone());
    }
    fn on_terminated(&self, name: &str, error: Option<&str>) {
        self.terminated
            .lock()
            .unwrap()
            .push((name.to_string(), error.map(str::to_string)));
    }
}

#[test]
fn query_exposes_metrics_traces_and_listener_events() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .filter(col("v").gt_eq(lit(0i64)))
        .group_by(vec![col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .query_name("obs")
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .start_sync()
        .unwrap();

    let collector = Arc::new(Collector::default());
    q.add_listener(collector.clone());

    // Two epochs of data.
    bus.append("in", 0, rows(6, 0)).unwrap();
    bus.append("in", 1, rows(6, 6)).unwrap();
    q.process_available().unwrap();
    bus.append("in", 0, rows(3, 12)).unwrap();
    q.process_available().unwrap();
    assert_eq!(sink.snapshot().len(), 3);

    // One on_progress per epoch, each with a per-operator breakdown.
    let progress = collector.progress.lock().unwrap().clone();
    assert_eq!(progress.len(), 2, "one progress record per epoch");
    assert_eq!(progress[0].num_input_rows, 12);
    assert_eq!(progress[1].num_input_rows, 3);
    for p in &progress {
        assert!(
            !p.operator_durations.is_empty(),
            "per-operator durations must be populated"
        );
        // The breakdown names the scan and the aggregation.
        assert!(p.operator_durations.iter().any(|d| d.op.starts_with("scan:")));
        assert!(p.operator_durations.iter().any(|d| d.op.starts_with("agg")));
        assert!(p.batch_duration_us >= 1);
        assert!(p.input_rows_per_second.is_finite());
    }

    // The registry snapshot covers every layer: operators (exec),
    // state store, WAL, source and sink.
    let registry = q.metrics();
    let snapshot = registry.snapshot();
    let has = |name: &str| snapshot.iter().any(|s| s.name == name);
    for name in [
        "ss_operator_rows_total",
        "ss_operator_eval_us",
        "ss_epoch_duration_us",
        "ss_state_puts_total",
        "ss_state_gets_total",
        "ss_state_keys",
        "ss_wal_appends_total",
        "ss_source_rows_total",
        "ss_source_backlog_rows",
        "ss_sink_commits_total",
        "ss_sink_commit_us",
    ] {
        assert!(has(name), "registry is missing `{name}`");
    }
    // 15 input rows flowed through the scan; 3 result keys are held as
    // state; the sink committed 2 epochs.
    match registry.value("ss_source_rows_total", &[("source", "in")]) {
        Some(MetricValue::Counter(n)) => assert_eq!(n, 15),
        other => panic!("unexpected source row count: {other:?}"),
    }
    match registry.value("ss_state_keys", &[]) {
        Some(MetricValue::Gauge(n)) => assert_eq!(n, 3),
        other => panic!("unexpected state key gauge: {other:?}"),
    }
    match registry.value("ss_sink_commits_total", &[("sink", "out")]) {
        Some(MetricValue::Counter(n)) => assert_eq!(n, 2),
        other => panic!("unexpected sink commit count: {other:?}"),
    }

    // The Prometheus text exposition is well-formed.
    let text = q.metrics().render();
    assert!(text.contains("# TYPE ss_operator_rows_total counter"));
    assert!(text.contains("# TYPE ss_epoch_duration_us histogram"));
    assert!(text.contains("_bucket{"));
    assert!(text.contains("le=\"+Inf\""));
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (_, value) = line.rsplit_once(' ').expect("line has a value");
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample line: {line}"));
    }

    // The trace log is valid chrome://tracing JSON with epoch spans.
    let json = q.trace().to_chrome_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let field = |e: &serde_json::Value, key: &str| -> Option<String> {
        e.get(key).and_then(|v| v.as_str()).map(str::to_string)
    };
    let phase_of = |name: &str, ph: &str| {
        events
            .iter()
            .any(|e| field(e, "name").as_deref() == Some(name) && field(e, "ph").as_deref() == Some(ph))
    };
    assert!(phase_of("epoch", "B"), "epoch begin span");
    assert!(phase_of("epoch", "E"), "epoch end span");
    assert!(phase_of("sink-commit", "B"), "sink commit span");
    assert!(
        events.iter().any(|e| field(e, "ph").as_deref() == Some("X")
            && field(e, "name").is_some_and(|n| n.starts_with("op:"))),
        "per-operator complete events"
    );

    // Stopping fires on_terminated exactly once, with no error.
    q.stop().unwrap();
    let terminated = collector.terminated.lock().unwrap().clone();
    assert_eq!(terminated, vec![("obs".to_string(), None)]);
}

/// Snapshots and renders taken while a data-parallel query is actively
/// writing metrics from four worker threads must never show torn
/// samples: counters and histogram count/sum only move forward, and
/// every rendered exposition stays well-formed.
#[test]
fn metrics_snapshot_and_render_are_consistent_under_concurrent_writers() {
    use std::collections::HashMap;

    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let ctx = StreamingContext::new();
    let wschema = Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("time", DataType::Timestamp),
    ]);
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", wschema).unwrap()))
        .unwrap()
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .query_name("conc")
        .output_mode(OutputMode::Complete)
        .engine_config(MicroBatchConfig {
            parallelism: 4,
            ..Default::default()
        })
        .sink(sink)
        .start_sync()
        .unwrap();
    // A shared handle onto the same registry the engine writes to.
    let registry = q.metrics();

    const EPOCHS: u64 = 40;
    const ROWS_PER_EPOCH: u64 = 400;
    let driver = std::thread::spawn(move || {
        for e in 0..EPOCHS {
            let base = e * ROWS_PER_EPOCH;
            let make = |start: u64, n: u64| -> Vec<Row> {
                (start..start + n)
                    .map(|i| row![format!("k{}", i % 13), Value::Timestamp((i as i64) * 100_000)])
                    .collect()
            };
            bus.append("in", 0, make(base, ROWS_PER_EPOCH / 2)).unwrap();
            bus.append("in", 1, make(base + ROWS_PER_EPOCH / 2, ROWS_PER_EPOCH / 2))
                .unwrap();
            q.process_available().unwrap();
        }
        q
    });

    // Poll snapshots and renders while the driver runs epochs. Keyed
    // by (family, sorted labels); value is the (count, sum) floor.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut floor: HashMap<SeriesKey, (u64, u64)> = HashMap::new();
    let mut polls = 0u32;
    while !driver.is_finished() {
        let snap = registry.snapshot();
        for s in snap {
            let key = (s.name.clone(), s.labels.clone());
            let observed = match s.value {
                MetricValue::Counter(n) => (n, 0),
                MetricValue::Histogram { count, sum } => (count, sum),
                MetricValue::Gauge(_) => continue, // gauges may move both ways
            };
            let prev = floor.entry(key).or_insert((0, 0));
            assert!(
                observed.0 >= prev.0 && observed.1 >= prev.1,
                "`{}` moved backwards: {:?} -> {:?}",
                s.name,
                prev,
                observed
            );
            *prev = observed;
        }
        // Renders taken mid-write must still be line-by-line parseable.
        let text = registry.render();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("torn sample line: {line}"));
        }
        polls += 1;
    }
    let q = driver.join().expect("driver thread");
    assert!(polls > 0, "the poller never overlapped the driver");
    // Final totals are exact: no increments were lost to races.
    match registry.value("ss_admitted_rows_total", &[]) {
        Some(MetricValue::Counter(n)) => assert_eq!(n, EPOCHS * ROWS_PER_EPOCH),
        other => panic!("unexpected admitted rows: {other:?}"),
    }
    assert_eq!(
        q.last_progress().map(|p| p.epoch),
        Some(EPOCHS),
        "all epochs ran"
    );
    q.stop().unwrap();
}
