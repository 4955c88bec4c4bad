//! End-to-end overload robustness: admission control, bounded topics
//! and memory-pressure spill working together against a sink that
//! cannot keep up.
//!
//! The acceptance bar: under a throttled sink, epoch latency and
//! state memory stay bounded while the PID admission controller and
//! the state-store spill path visibly engage (metrics prove it); once
//! the throttle is removed the backlog drains and the result is
//! identical to an unthrottled run of the same input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use structured_streaming::prelude::*;
use structured_streaming::ss_bus::{OverflowPolicy, TopicConfig};
use structured_streaming::ss_common::{MetricValue, Result as SsResult};
use structured_streaming::ss_core::microbatch::{
    EpochRun, MemoryBudget, MicroBatchConfig, MicroBatchExecution,
};
use structured_streaming::ss_core::RateControllerConfig;
use structured_streaming::ss_exec::MemoryCatalog;

/// A sink wrapper with a settable per-commit delay — a stand-in for a
/// slow external system (rate-limited API, overloaded database).
struct ThrottledSink {
    inner: Arc<MemorySink>,
    delay_us: AtomicU64,
}

impl ThrottledSink {
    fn new(inner: Arc<MemorySink>, delay_us: u64) -> Arc<ThrottledSink> {
        Arc::new(ThrottledSink {
            inner,
            delay_us: AtomicU64::new(delay_us),
        })
    }

    fn set_delay_us(&self, us: u64) {
        self.delay_us.store(us, Ordering::SeqCst);
    }
}

impl Sink for ThrottledSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> SsResult<()> {
        let d = self.delay_us.load(Ordering::SeqCst);
        if d > 0 {
            thread::sleep(Duration::from_micros(d));
        }
        self.inner.commit_epoch(epoch, output)
    }

    fn truncate_after(&self, epoch: u64) -> SsResult<()> {
        self.inner.truncate_after(epoch)
    }

    fn rows_written(&self) -> u64 {
        self.inner.rows_written()
    }
}

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn feed(bus: &MessageBus, topic: &str, n: u64, start: u64) {
    let partitions = bus.num_partitions(topic).unwrap() as u64;
    for i in start..start + n {
        bus.append(
            topic,
            (i % partitions) as u32,
            vec![row![
                format!("k{}", i % 5),
                i as i64,
                Value::Timestamp(i as i64 * 1_000_000)
            ]],
        )
        .unwrap();
    }
}

fn build_engine(
    bus: Arc<MessageBus>,
    sink: Arc<dyn Sink>,
    config: MicroBatchConfig,
) -> MicroBatchExecution {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus, "in", schema()).unwrap()))
        .unwrap();
    let plan = ctx
        .table("in")
        .unwrap()
        .group_by(vec![
            window(col("time"), "10 seconds").unwrap(),
            col("key"),
        ])
        .agg(vec![count_star(), sum(col("v"))])
        .plan();
    let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
    for (name, s) in ctx.sources_snapshot() {
        sources.insert(name, s);
    }
    MicroBatchExecution::new(
        "overload",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink,
        OutputMode::Update,
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap()
}

const TOTAL_ROWS: u64 = 300;

/// The same input through an unthrottled, unlimited engine.
fn reference() -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    feed(&bus, "in", TOTAL_ROWS, 0);
    let sink = MemorySink::new("ref");
    let mut eng = build_engine(bus, sink.clone(), MicroBatchConfig::default());
    eng.process_available().unwrap();
    let mut rows = sink.snapshot();
    rows.sort();
    rows
}

#[test]
fn overloaded_query_stays_bounded_then_drains_to_parity() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    // The whole input arrives at once: a backlog no single epoch may
    // swallow.
    feed(&bus, "in", TOTAL_ROWS, 0);

    let mem = MemorySink::new("out");
    // 3ms per commit versus a 2ms trigger interval: the sink can never
    // keep up, whatever the admission rate.
    let sink = ThrottledSink::new(mem.clone(), 3_000);
    let config = MicroBatchConfig {
        max_records_per_trigger: Some(10),
        adaptive_batching: false,
        checkpoint_interval: 1,
        rate_controller: Some(RateControllerConfig {
            min_rate: 1.0,
            batch_interval_us: 2_000,
        }),
        state_budget: MemoryBudget {
            soft_limit_bytes: Some(512),
            hard_limit_bytes: None,
        },
        ..Default::default()
    };
    let mut eng = build_engine(bus.clone(), sink.clone(), config);

    // Phase 1: overloaded. Run a fixed number of epochs; the system
    // must fall behind gracefully, not explode.
    for _ in 0..15 {
        match eng.run_epoch().unwrap() {
            EpochRun::Ran(_) => {}
            EpochRun::Idle => break,
        }
    }
    let records: Vec<QueryProgress> = eng.progress().all().cloned().collect();
    assert!(!records.is_empty());
    // Admission held: no epoch ever exceeded the hard cap, so epoch
    // latency is bounded by (cap × per-row cost + sink delay), not by
    // the backlog size.
    assert!(records.iter().all(|p| p.admitted_rows <= 10));
    assert!(records.iter().all(|p| p.batch_duration_us < 1_000_000));
    // The PID controller engaged: a rate limit was in force while rows
    // were visibly held back.
    assert!(
        records
            .iter()
            .any(|p| p.rate_limit.is_some() && p.backlog_rows > 0),
        "rate limiter never engaged"
    );
    // Epochs overran the 2ms interval, and the progress records say so.
    assert!(records.iter().any(|p| p.scheduling_delay_us > 0));
    // Memory pressure engaged: state spilled to the checkpoint backend
    // and in-memory state stayed under the soft limit after each spill.
    match eng.metrics().value("ss_state_spills_total", &[]) {
        Some(MetricValue::Counter(n)) => assert!(n >= 1, "no spills recorded"),
        other => panic!("missing spill counter: {other:?}"),
    }
    assert!(
        records.iter().any(|p| p.spilled_bytes > 0),
        "progress never surfaced spilled bytes"
    );
    let last = records.last().unwrap();
    assert!(
        last.state_bytes <= 512,
        "state memory {}B exceeds the soft limit after spill",
        last.state_bytes
    );
    assert!(last.backlog_rows > 0, "test never actually fell behind");
    assert!(eng.metrics().render().contains("ss_admission_rate_limit"));

    // Phase 2: the throttle lifts; the backlog must drain completely.
    sink.set_delay_us(0);
    eng.process_available().unwrap();
    assert_eq!(eng.progress().total_input_rows(), TOTAL_ROWS);

    // And the result is exactly what an unthrottled run produces.
    let mut rows = mem.snapshot();
    rows.sort();
    assert_eq!(rows, reference());
}

#[test]
fn bounded_topic_blocks_producer_and_backpressure_resolves() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic_with(
        "in",
        TopicConfig {
            partitions: 1,
            capacity: Some(8),
            overflow: OverflowPolicy::Block {
                timeout_us: 5_000_000,
            },
        },
    )
    .unwrap();
    let sink = MemorySink::new("out");
    let mut eng = build_engine(bus.clone(), sink.clone(), MicroBatchConfig::default());

    // A producer that wants to push far more than the topic holds; it
    // only finishes if the consumer side keeps freeing space.
    let producer = {
        let bus = bus.clone();
        thread::spawn(move || feed(&bus, "in", 100, 0))
    };

    let mut drained = 0u64;
    for _ in 0..2_000 {
        eng.run_epoch().unwrap();
        drained = eng.progress().total_input_rows();
        // Retention never exceeds the configured bound.
        assert!(bus.retained_records("in").unwrap() <= 8);
        // Completing the cycle: truncate consumed offsets so the
        // blocked producer can make progress.
        if let Some(offsets) = eng.positions().get("in").cloned() {
            for (p, off) in offsets {
                bus.truncate_before("in", p, off).unwrap();
            }
        }
        if drained == 100 {
            break;
        }
        thread::sleep(Duration::from_micros(200));
    }
    producer.join().expect("producer died: backpressure deadlock");
    eng.process_available().unwrap();
    assert_eq!(eng.progress().total_input_rows(), 100);
    assert_eq!(drained, 100);
    // Exactly-once held end to end: per-key counts sum to the input.
    let total: i64 = sink
        .snapshot()
        .iter()
        .map(|r| match r.values()[3] {
            Value::Int64(n) => n,
            ref v => panic!("unexpected count column: {v:?}"),
        })
        .sum();
    assert_eq!(total, 100);
}

#[test]
fn drop_oldest_topic_sheds_and_the_query_reports_it() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic_with(
        "in",
        TopicConfig {
            partitions: 1,
            capacity: Some(10),
            overflow: OverflowPolicy::DropOldest,
        },
    )
    .unwrap();
    // 50 rows into a 10-slot topic: 40 shed before any consumer shows
    // up — deliberate load shedding, not silent loss.
    feed(&bus, "in", 50, 0);
    assert_eq!(bus.shed_records("in").unwrap(), 40);

    let sink = MemorySink::new("out");
    let mut eng = build_engine(bus, sink.clone(), MicroBatchConfig::default());
    eng.process_available().unwrap();

    // Only the survivors were processed, and the progress record
    // carries the shed count so the loss is observable.
    assert_eq!(eng.progress().total_input_rows(), 10);
    let last = eng.progress().last().unwrap();
    assert_eq!(last.shed_records, 40);
}
