//! Operational features through the public API (§7): query manager,
//! background triggers, durable restarts over a real filesystem
//! checkpoint directory, rollback, monitoring, and continuous mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use structured_streaming::prelude::*;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn rows(n: u64, start: u64) -> Vec<Row> {
    (start..start + n)
        .map(|i| row![format!("k{}", i % 3), i as i64, Value::Timestamp(i as i64)])
        .collect()
}

#[test]
fn durable_restart_over_filesystem() {
    let dir = std::env::temp_dir().join(format!("ss-it-fs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let sink = MemorySink::new("out");

    let start_query = |sink: Arc<MemorySink>| {
        let ctx = StreamingContext::new();
        let df = ctx
            .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
            .unwrap()
            .group_by(vec![col("k")])
            .agg(vec![sum(col("v"))]);
        df.write_stream()
            .query_name("fs-restart")
            .output_mode(OutputMode::Complete)
            .sink(sink)
            .checkpoint_dir(&dir)
            .unwrap()
            .start_sync()
            .unwrap()
    };

    bus.append("in", 0, rows(10, 0)).unwrap();
    {
        let mut q = start_query(sink.clone());
        q.process_available().unwrap();
    } // process "dies"; JSON WAL + state snapshots remain under `dir`

    // The WAL on disk is human-readable JSON (§7.2).
    let offsets_dir = dir.join("wal").join("offsets");
    let entries: Vec<_> = std::fs::read_dir(&offsets_dir).unwrap().collect();
    assert!(!entries.is_empty());
    let text = std::fs::read_to_string(entries[0].as_ref().unwrap().path()).unwrap();
    assert!(text.contains("\"epoch\""), "WAL should be JSON: {text}");

    bus.append("in", 0, rows(5, 10)).unwrap();
    let mut q2 = start_query(sink.clone());
    assert_eq!(q2.current_epoch(), 1);
    q2.process_available().unwrap();
    // sum over k0: 0+3+6+9+12 = 30; k1: 1+4+7+10+13 = 35; k2: 2+5+8+11+14 = 40
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 30i64], row!["k1", 35i64], row!["k2", 40i64]]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_trigger_thread_processes_automatically() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .query_name("bg")
        .output_mode(OutputMode::Complete)
        .trigger(Trigger::ProcessingTime(Duration::from_millis(5)))
        .sink(sink.clone())
        .start()
        .unwrap();
    bus.append("in", 0, rows(30, 0)).unwrap();
    assert!(q.await_idle(Duration::from_secs(30)).unwrap());
    assert_eq!(sink.snapshot().len(), 3);
    assert!(q.exception().is_none());
    q.stop().unwrap();
}

#[test]
fn query_manager_tracks_and_stops_queries() {
    let manager = StreamingQueryManager::new();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let src = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap();
    for (i, mode) in [OutputMode::Complete, OutputMode::Update].iter().enumerate() {
        let df = src.group_by(vec![col("k")]).count();
        let q = df
            .write_stream()
            .query_name(format!("q{i}"))
            .output_mode(*mode)
            .sink(MemorySink::new(format!("s{i}")))
            .start_sync()
            .unwrap();
        manager.add(q).unwrap();
    }
    assert_eq!(manager.active(), vec!["q0", "q1"]);
    // Duplicate names rejected.
    let dup = src
        .group_by(vec![col("k")])
        .count()
        .write_stream()
        .query_name("q0")
        .output_mode(OutputMode::Complete)
        .sink(MemorySink::new("dup"))
        .start_sync()
        .unwrap();
    assert!(manager.add(dup).is_err());
    bus.append("in", 0, rows(6, 0)).unwrap();
    manager
        .with_query("q0", |q| q.process_available())
        .unwrap()
        .unwrap();
    manager.stop_query("q1").unwrap();
    assert_eq!(manager.active(), vec!["q0"]);
    manager.stop_all().unwrap();
    assert!(manager.active().is_empty());
}

#[test]
fn progress_metrics_reflect_load() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .output_mode(OutputMode::Update)
        .engine_config(ss_core::microbatch::MicroBatchConfig {
            max_records_per_trigger: Some(10),
            adaptive_batching: false, // fixed cap, so backlog is observable
            ..Default::default()
        })
        .sink(sink)
        .start_sync()
        .unwrap();
    bus.append("in", 0, rows(25, 0)).unwrap();
    q.run_epoch().unwrap();
    let p = q.last_progress().unwrap();
    assert_eq!(p.epoch, 1);
    assert_eq!(p.num_input_rows, 10);
    assert!(p.backlog_rows >= 15, "backlog visible: {}", p.backlog_rows);
    assert!(p.state_rows >= 3);
    q.process_available().unwrap();
    let all = q.recent_progress();
    assert!(all.len() >= 2);
    assert_eq!(
        all.iter().map(|p| p.num_input_rows).sum::<u64>(),
        25
    );
    q.stop().unwrap();
}

#[test]
fn rollback_via_public_handle() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .start_sync()
        .unwrap();
    bus.append("in", 0, rows(3, 0)).unwrap();
    q.process_available().unwrap();
    bus.append("in", 0, rows(3, 3)).unwrap();
    q.process_available().unwrap();
    let before = sink.snapshot();
    q.rollback_to(1).unwrap();
    assert_eq!(q.current_epoch(), 1);
    q.process_available().unwrap();
    // Recomputation converges to the same totals.
    assert_eq!(sink.snapshot(), before);
    q.stop().unwrap();
}

#[test]
fn continuous_mode_via_write_stream() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .filter(col("v").gt_eq(lit(0i64)))
        .select(vec![col("k"), col("v")]);
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = seen.clone();
    let q = df
        .write_stream()
        .trigger(Trigger::Continuous(Duration::from_millis(20)))
        .record_sink(Arc::new(move |_p, _row| {
            seen2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }))
        .start_continuous()
        .unwrap();
    for r in rows(50, 0) {
        bus.append("in", 0, vec![r]).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::SeqCst) < 50 {
        assert!(std::time::Instant::now() < deadline, "continuous query stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let latencies = q.stop().unwrap();
    assert_eq!(latencies.len(), 50);

    // Aggregations are rejected in continuous mode (§6.3: map-like
    // jobs only, as in Spark 2.3).
    let agg = ctx.table("in").unwrap().group_by(vec![col("k")]).count();
    let result = agg
        .write_stream()
        .trigger(Trigger::Continuous(Duration::from_millis(20)))
        .record_sink(Arc::new(|_, _| Ok(())))
        .start_continuous();
    match result {
        Err(err) => assert!(err.to_string().contains("map-like"), "{err}"),
        Ok(_) => panic!("aggregation must be rejected in continuous mode"),
    }
}

/// A continuous query started through the writer runs under the
/// writer's engine config: a fault registered there fires in a worker.
/// HA is refused, since continuous mode holds no lease.
#[test]
fn continuous_mode_takes_the_writers_engine_config() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .select(vec![col("k"), col("v")]);
    let config = MicroBatchConfig::default();
    config.faults.configure(
        structured_streaming::ss_core::continuous::failpoints::WORKER_READ,
        FaultTrigger::Once { skip: 0 },
        FaultMode::Error,
    );
    let writer = |config: MicroBatchConfig| {
        df.write_stream()
            .trigger(Trigger::Continuous(Duration::from_millis(20)))
            .record_sink(Arc::new(|_p, _row| Ok(())))
            .engine_config(config)
    };
    let q = writer(config).start_continuous().unwrap();
    bus.append("in", 0, rows(5, 0)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while q.error().is_none() {
        assert!(std::time::Instant::now() < deadline, "the fault never fired");
        std::thread::sleep(Duration::from_millis(2));
    }
    let err = q.stop().unwrap_err().to_string();
    assert!(err.contains("injected failure at continuous.worker.read"), "{err}");

    let lease = Arc::new(LeaseManager::new(
        Arc::new(MemoryBackend::new()),
        "leader",
        Duration::from_secs(30),
        Duration::from_secs(5),
    ));
    let ha = MicroBatchConfig {
        ha: Some(HaConfig::new(lease)),
        ..Default::default()
    };
    match writer(ha).start_continuous() {
        Err(err) => assert_eq!(err.category(), "unsupported", "{err}"),
        Ok(_) => panic!("continuous mode must refuse HA"),
    }
}

#[test]
fn run_once_trigger_background() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let sink = MemorySink::new("out");
    bus.append("in", 0, rows(9, 0)).unwrap();
    let q = df
        .write_stream()
        .output_mode(OutputMode::Complete)
        .trigger(Trigger::Once)
        .sink(sink.clone())
        .start()
        .unwrap();
    // Once-triggered queries drain and stop on their own.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while sink.snapshot().len() < 3 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    q.stop().unwrap();
    assert_eq!(sink.snapshot().len(), 3);
}
