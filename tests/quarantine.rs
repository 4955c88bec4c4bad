//! Poison-record quarantine and the epoch/task watchdog, end to end.
//!
//! A stream carrying a few malformed records (a UDF panics on them —
//! the classic poison-pill) runs under `ErrorPolicy::Quarantine` while
//! seeded faults crash the process mid-epoch. The sink must converge
//! byte-for-byte to a clean run over the pre-filtered input, and the
//! shared dead-letter queue must hold each poison record exactly once,
//! however many times epochs were replayed. Separate tests pin the
//! watchdog contract: a never-returning task fails with
//! `SsError::Timeout` within twice its hard deadline, and the
//! supervisor recovers the query afterwards.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_common::fault::{FaultMode, FaultRegistry, FaultTrigger};
use ss_common::{Column, ErrorPolicy, RetryPolicy, XorShift64};
use ss_core::microbatch::{failpoints, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_expr::expr::{Expr, ScalarUdf};
use structured_streaming::prelude::*;

const TOTAL_ROWS: u64 = 60;
const WAVE: u64 = 10;

/// Rows whose `v` satisfies this are poison: the validation UDF panics
/// on them, the way a real UDF chokes on a malformed payload.
fn is_poison(v: i64) -> bool {
    v % 17 == 13
}

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

/// A predicate that accepts every row but panics on poison values.
fn validate_expr() -> Expr {
    let udf = ScalarUdf {
        name: "validate".into(),
        return_type: DataType::Boolean,
        func: Arc::new(|cols: &[Column]| {
            let vs = match &cols[0] {
                Column::Int64(c) => c.values(),
                other => panic!("validate: unexpected column {other:?}"),
            };
            for &v in vs {
                if is_poison(v) {
                    panic!("malformed record: v={v}");
                }
            }
            Column::from_values(DataType::Boolean, &vec![Value::Boolean(true); vs.len()])
        }),
    };
    Expr::Udf {
        udf,
        args: vec![col("v")],
    }
}

/// Feed rows `[start, start+n)`; when `skip_poison` the poison rows are
/// withheld (the pre-filtered reference input).
fn feed(bus: &MessageBus, n: u64, start: u64, skip_poison: bool) {
    for i in start..start + n {
        if skip_poison && is_poison(i as i64) {
            continue;
        }
        let key = format!("k{}", i % 5);
        bus.append(
            "in",
            (i % 2) as u32,
            vec![row![key, i as i64, Value::Timestamp(i as i64 * 1_000_000)]],
        )
        .unwrap();
    }
}

fn build_engine(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    backend: Arc<MemoryBackend>,
    config: MicroBatchConfig,
) -> Result<MicroBatchExecution, SsError> {
    build_engine_filtering(bus, sink, backend, config, validate_expr())
}

/// The engine over `filter(predicate)` → count and sum per key.
fn build_engine_filtering(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    backend: Arc<MemoryBackend>,
    config: MicroBatchConfig,
    predicate: Expr,
) -> Result<MicroBatchExecution, SsError> {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus, "in", schema())?.with_faults(config.faults.clone()),
    ))?;
    let plan = ctx
        .table("in")
        .unwrap()
        .filter(predicate)
        .group_by(vec![col("key")])
        .agg(vec![count_star(), sum(col("v"))])
        .plan();
    let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
    for (name, s) in ctx.sources_snapshot() {
        sources.insert(name, s);
    }
    MicroBatchExecution::new(
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink,
        OutputMode::Complete,
        backend,
        config,
    )
}

fn base_config(faults: FaultRegistry) -> MicroBatchConfig {
    MicroBatchConfig {
        max_records_per_trigger: Some(7),
        adaptive_batching: false,
        checkpoint_interval: 2,
        faults,
        retry: RetryPolicy::immediate(3),
        ..Default::default()
    }
}

/// The clean run: poison rows never fed, no faults, no quarantine.
fn reference() -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("ref");
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        base_config(FaultRegistry::new()),
    )
    .unwrap();
    let mut fed = 0;
    while fed < TOTAL_ROWS {
        feed(&bus, WAVE, fed, true);
        fed += WAVE;
        eng.process_available().unwrap();
    }
    let mut rows = sink.snapshot();
    rows.sort();
    rows
}

/// Crash points for the quarantine chaos loop — all outside record
/// evaluation, so every failure here is a process crash, never a
/// poison record.
const CRASH_POOL: &[(&str, FaultMode)] = &[
    (failpoints::AFTER_OFFSET_WRITE, FaultMode::Error),
    (failpoints::AFTER_SINK_WRITE, FaultMode::Error),
    (failpoints::AFTER_SINK_WRITE, FaultMode::Panic),
    (failpoints::AFTER_COMMIT_WRITE, FaultMode::Error),
    (ss_wal::failpoints::COMMITS_APPEND, FaultMode::Error),
    (ss_state::store::failpoints::CHECKPOINT_WRITE, FaultMode::TransientError),
    (ss_bus::dlq::failpoints::DLQ_WRITE, FaultMode::TransientError),
];

/// The tentpole assertion: a poisoned stream under
/// `ErrorPolicy::Quarantine`, crashed and restarted mid-epoch, still
/// produces output byte-identical to the clean pre-filtered run — and
/// the shared DLQ ends up with each poison record exactly once.
#[test]
fn quarantine_is_deterministic_across_crash_restart() {
    std::panic::set_hook(Box::new(|_| {}));
    let expected = reference();
    assert!(!expected.is_empty());
    let poison: Vec<i64> = (0..TOTAL_ROWS as i64).filter(|&v| is_poison(v)).collect();
    assert!(poison.len() >= 3, "test input must carry several poison rows");

    for seed in [2u64, 5, 9] {
        let mut rng = XorShift64::new(seed);
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        // Shared across incarnations, like the sink and the checkpoint
        // backend: models a durable DLQ topic.
        let dlq = ss_bus::DeadLetterQueue::new();
        let mut fed: u64 = 0;
        let mut incarnation = 0u32;
        loop {
            incarnation += 1;
            let faults = FaultRegistry::new();
            if incarnation <= 40 {
                let (point, mode) = CRASH_POOL[rng.gen_range(0, CRASH_POOL.len() as u64) as usize];
                let skip = rng.gen_range(0, 5);
                faults.configure(point, FaultTrigger::Once { skip }, mode);
            }
            let config = MicroBatchConfig {
                error_policy: ErrorPolicy::Quarantine { max_per_epoch: 4 },
                dlq: Some(dlq.clone()),
                ..base_config(faults)
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), SsError> {
                let mut eng = build_engine(bus.clone(), sink.clone(), backend.clone(), config)?;
                while fed < TOTAL_ROWS {
                    feed(&bus, WAVE, fed, false);
                    fed += WAVE;
                    eng.process_available()?;
                }
                eng.process_available()?;
                assert!(eng.isolation_active(), "poison never engaged isolation");
                Ok(())
            }));
            if let Ok(Ok(())) = outcome {
                break;
            }
            assert!(
                incarnation < 100,
                "quarantine chaos run (seed {seed}) did not converge"
            );
        }
        let mut rows = sink.snapshot();
        rows.sort();
        assert_eq!(
            rows, expected,
            "seed {seed}: quarantined run diverged from the pre-filtered clean run"
        );
        // Exactly-once DLQ: one letter per poison row, no duplicates,
        // however many times epochs were crashed and replayed.
        let letters = dlq.snapshot();
        assert_eq!(
            letters.len(),
            poison.len(),
            "seed {seed}: DLQ letter count; letters={letters:?}"
        );
        let positions: BTreeSet<(u32, u64)> =
            letters.iter().map(|l| (l.partition, l.offset)).collect();
        assert_eq!(positions.len(), poison.len(), "seed {seed}: duplicate DLQ positions");
        for l in &letters {
            assert_eq!(l.source, "in");
            assert!(l.error.contains("malformed record"), "got: {}", l.error);
            assert_ne!(l.fingerprint, 0);
        }
        let mut quarantined_vs: Vec<i64> = letters
            .iter()
            .map(|l| {
                let json = &l.row_json;
                let tail = &json[json.find("\"v\":").expect("row_json carries v") + 4..];
                tail[..tail.find([',', '}']).unwrap()].trim().parse().unwrap()
            })
            .collect();
        quarantined_vs.sort();
        assert_eq!(quarantined_vs, poison, "seed {seed}: wrong rows quarantined");
    }
    let _ = std::panic::take_hook();
}

/// The epoch that first meets the poison fails, flips isolation on and
/// is re-run by the take-over — and that re-run is the trigger's epoch:
/// timed, profiled and published like any other, so neither the
/// progress feed nor `/query/<name>/profile` has a hole at exactly the
/// epoch an operator will want to look at.
#[test]
fn the_isolation_retried_epoch_reports_itself() {
    use ss_core::microbatch::EpochRun;

    std::panic::set_hook(Box::new(|_| {}));
    const STEP_US: i64 = 1_000;
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let config = MicroBatchConfig {
        error_policy: ErrorPolicy::Quarantine { max_per_epoch: 4 },
        // Every reading advances the clock, so an epoch that ran has a
        // duration of several steps; there is no previous epoch whose
        // duration could be reported in its place.
        clock: ss_common::StepClock::new(0, STEP_US).handle(),
        ..base_config(FaultRegistry::new())
    };
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    feed(&bus, 7, 10, false); // rows 10..17: one epoch, poison v=13 inside
    let run = eng.run_epoch();
    let _ = std::panic::take_hook();
    let progress = match run.unwrap() {
        EpochRun::Ran(p) => p,
        EpochRun::Idle => panic!("the retried epoch must report as run"),
    };
    assert!(eng.isolation_active());
    assert_eq!(progress.epoch, 1);
    assert_eq!(progress.num_input_rows, 7);
    assert_eq!(progress.quarantined_records, 1);
    assert!(
        progress.batch_duration_us >= 2 * STEP_US,
        "duration {} µs is not the re-run's own",
        progress.batch_duration_us
    );
    assert!(progress.input_rows_per_second < 7.0 * 1e6 / STEP_US as f64);
    let profile = progress.profile.as_ref().expect("the re-run is profiled");
    assert_eq!(profile.epoch, 1);
    for phase in ["source-read", "execute", "sink-commit", "wal"] {
        assert!(
            profile.phases.iter().any(|p| p.name == phase),
            "no `{phase}` phase in {:?}",
            profile.phases
        );
    }
    let profiled: Vec<u64> =
        eng.progress().all().filter_map(|p| p.profile.as_ref()).map(|p| p.epoch).collect();
    assert_eq!(profiled, vec![1], "the profiler history has a hole");
    assert_eq!(eng.progress().last().map(|p| p.epoch), Some(1));
    let events = eng.events().events();
    let published = events
        .iter()
        .find(|e| e.kind == "progress")
        .expect("the retried epoch publishes a progress event");
    let duration = published.fields.iter().find(|(k, _)| k == "duration_us");
    assert_eq!(
        duration.and_then(|(_, v)| v.as_i64()),
        Some(progress.batch_duration_us)
    );
}

/// A failure fingerprint is the same 16-hex-digit string in the event
/// log as in the dead-letter queue, even when all of its digits are
/// decimal (about one fingerprint in 1,850): it must not come out as a
/// JSON number, which with its leading zeros is not even valid JSON.
#[test]
fn an_all_decimal_fingerprint_stays_a_string_in_the_event_log() {
    use ss_bus::{DeadLetterQueue, DeadLetterRecord};

    const FP: u64 = 0x1234_5678;
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let config = MicroBatchConfig {
        error_policy: ErrorPolicy::Quarantine { max_per_epoch: 4 },
        ..base_config(FaultRegistry::new())
    };
    let mut eng = build_engine(
        bus,
        MemorySink::new("out"),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    eng.note_deterministic(FP, "malformed record: v=13");
    let dlq = DeadLetterQueue::new();
    dlq.commit_epoch(
        1,
        vec![DeadLetterRecord {
            epoch: 1,
            source: "in".into(),
            partition: 1,
            offset: 6,
            fingerprint: FP,
            error: "malformed record: v=13".into(),
            row_json: r#"{"key":"k3","v":13,"time":13000000}"#.into(),
        }],
    );
    let letter: serde_json::Value = serde_json::from_str(dlq.to_jsonl().trim_end()).unwrap();
    let served = letter.get("fingerprint").and_then(|v| v.as_str());
    assert_eq!(served, Some("0000000012345678"));
    let jsonl = eng.events().to_jsonl();
    let event = jsonl
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("event line parses"))
        .find(|e| e.get("fingerprint").is_some())
        .unwrap_or_else(|| panic!("no fingerprinted event in:\n{jsonl}"));
    assert_eq!(
        event.get("fingerprint").and_then(|v| v.as_str()),
        served,
        "{jsonl}"
    );
}

/// `ErrorPolicy::Drop` discards poison silently: clean output, empty
/// DLQ, but the quarantine counters still tell the operator.
#[test]
fn drop_policy_discards_poison_without_dead_letters() {
    std::panic::set_hook(Box::new(|_| {}));
    let expected = reference();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let config = MicroBatchConfig {
        error_policy: ErrorPolicy::Drop,
        ..base_config(FaultRegistry::new())
    };
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    let mut fed = 0;
    while fed < TOTAL_ROWS {
        feed(&bus, WAVE, fed, false);
        fed += WAVE;
        eng.process_available().unwrap();
    }
    let _ = std::panic::take_hook();
    let mut rows = sink.snapshot();
    rows.sort();
    assert_eq!(rows, expected);
    assert!(eng.dlq().is_empty(), "Drop must not write dead letters");
    let dropped: u64 = eng
        .progress()
        .all()
        .map(|p| p.quarantined_records)
        .sum();
    assert_eq!(dropped as usize, (0..TOTAL_ROWS as i64).filter(|&v| is_poison(v)).count());
    let metrics = eng.metrics().render();
    assert!(
        metrics.contains("ss_quarantined_records_total"),
        "metric missing:\n{metrics}"
    );
}

/// An epoch carrying more poison than `max_per_epoch` is a pipeline
/// bug, not bad luck: the epoch fails outright with a non-restartable
/// explanation instead of flooding the DLQ.
#[test]
fn quarantine_limit_fails_the_epoch() {
    std::panic::set_hook(Box::new(|_| {}));
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let config = MicroBatchConfig {
        error_policy: ErrorPolicy::Quarantine { max_per_epoch: 0 },
        ..base_config(FaultRegistry::new())
    };
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    feed(&bus, 20, 0, false); // rows 0..20 include poison v=13
    let err = eng.process_available().unwrap_err();
    let _ = std::panic::take_hook();
    assert!(
        err.to_string().contains("quarantine limit exceeded"),
        "got: {err}"
    );
}

/// A task that never returns must not wedge the query: the pool's hard
/// deadline abandons the stuck worker and the epoch fails with a
/// transient `SsError::Timeout` within twice the deadline. The hang
/// releases on the error path, so the very next trigger succeeds.
#[test]
fn hung_task_times_out_within_twice_the_hard_deadline() {
    const DEADLINE: Duration = Duration::from_millis(400);
    let faults = FaultRegistry::new();
    faults.configure(
        ss_sched::failpoints::TASK_HANG,
        FaultTrigger::Once { skip: 0 },
        FaultMode::Hang,
    );
    let config = MicroBatchConfig {
        parallelism: 4,
        shuffle_partitions: 4,
        task_hard_deadline: Some(DEADLINE),
        ..base_config(faults)
    };
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    feed(&bus, WAVE, 0, true);
    let started = Instant::now();
    let err = eng.process_available().unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(err.category(), "timeout", "got: {err}");
    assert!(err.is_transient(), "a hung task must fail restartably: {err}");
    assert!(
        elapsed < DEADLINE * 2,
        "timeout took {elapsed:?}, deadline is {DEADLINE:?}"
    );
    assert!(
        eng.metrics()
            .render()
            .contains("ss_task_deadline_exceeded_total"),
        "hard-deadline counter missing"
    );
    // The hang was a one-shot: restart (what the supervisor does)
    // re-runs WAL recovery and the in-flight epoch cleanly.
    eng.restart().unwrap();
    eng.process_available().unwrap();
    let reference = {
        let bus2 = Arc::new(MessageBus::new());
        bus2.create_topic("in", 2).unwrap();
        let sink2 = MemorySink::new("ref");
        let mut clean = build_engine(
            bus2.clone(),
            sink2.clone(),
            Arc::new(MemoryBackend::new()),
            base_config(FaultRegistry::new()),
        )
        .unwrap();
        feed(&bus2, WAVE, 0, true);
        clean.process_available().unwrap();
        let mut rows = sink2.snapshot();
        rows.sort();
        rows
    };
    let mut rows = sink.snapshot();
    rows.sort();
    assert_eq!(rows, reference);
}

/// The same hang under a supervisor: the Timeout is restartable, so
/// the supervisor restarts once and the query converges on its own.
#[test]
fn supervisor_recovers_a_query_after_a_hung_task() {
    let faults = FaultRegistry::new();
    faults.configure(
        ss_sched::failpoints::TASK_HANG,
        FaultTrigger::Once { skip: 0 },
        FaultMode::Hang,
    );
    let config = MicroBatchConfig {
        parallelism: 4,
        shuffle_partitions: 4,
        task_hard_deadline: Some(Duration::from_millis(300)),
        ..base_config(faults)
    };
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    feed(&bus, WAVE, 0, true);
    let query = StreamingQuery::start_supervised(
        eng,
        Trigger::ProcessingTime(Duration::from_millis(1)),
        RestartPolicy {
            max_restarts: 3,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            healthy_epochs_to_reset: None,
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if query.restarts() >= 1 && !sink.snapshot().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(query.restarts() >= 1, "exception={:?}", query.exception());
    assert!(!sink.snapshot().is_empty());
    assert!(query.exception().is_none(), "got: {:?}", query.exception());
    query.stop().unwrap();
}

/// The epoch-level watchdog: a hang inside serial evaluation releases
/// when the epoch deadline expires, the epoch fails with Timeout, and
/// a `watchdog` event is logged. The next trigger runs clean.
#[test]
fn epoch_watchdog_fails_a_wedged_epoch() {
    const DEADLINE: Duration = Duration::from_millis(300);
    let faults = FaultRegistry::new();
    faults.configure(
        ss_exec::ops::failpoints::RECORD_EVAL,
        FaultTrigger::Once { skip: 0 },
        FaultMode::Hang,
    );
    let config = MicroBatchConfig {
        parallelism: 1,
        epoch_deadline: Some(DEADLINE),
        ..base_config(faults)
    };
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("out");
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        config,
    )
    .unwrap();
    feed(&bus, WAVE, 0, true);
    let started = Instant::now();
    let err = eng.process_available().unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(err.category(), "timeout", "got: {err}");
    assert!(
        elapsed < DEADLINE * 2,
        "watchdog took {elapsed:?}, deadline is {DEADLINE:?}"
    );
    assert!(
        eng.events().to_jsonl().contains("watchdog"),
        "no watchdog event:\n{}",
        eng.events().to_jsonl()
    );
    eng.restart().unwrap();
    eng.process_available().unwrap();
    assert!(!sink.snapshot().is_empty());
}

// ---- failures in a late vector of a big epoch ----
//
// The stateless chain runs fused into the aggregate a vector (16 384
// rows) at a time, so when vector k of an epoch fails, vectors 0..k
// are already folded into the aggregator. The epoch must still fail
// or quarantine as a whole, and its re-run must not count them twice.

const BIG_ROWS: u64 = 40_001;
const BIG_POISON: u64 = 35_000;

/// `to_int(key) >= 0`: a type error on the one row whose key is `x`.
fn parse_key_expr() -> Expr {
    ss_expr::func("to_int", vec![col("key")]).gt_eq(lit(0i64))
}

/// Rows `rows` into partition 0 (scan order is feed order): keys
/// `0..5`, and — when `poisoned` — `x` at row [`BIG_POISON`].
fn feed_numeric(bus: &MessageBus, rows: std::ops::Range<u64>, poisoned: bool) {
    let rows = rows.map(|i| {
        let key = match poisoned && i == BIG_POISON {
            true => "x".to_string(),
            false => (i % 5).to_string(),
        };
        row![key, i as i64, Value::Timestamp(i as i64 * 1_000)]
    });
    bus.append("in", 0, rows).unwrap();
}

fn big_config(parallelism: usize) -> MicroBatchConfig {
    MicroBatchConfig {
        max_records_per_trigger: None,
        checkpoint_interval: 1,
        parallelism,
        shuffle_partitions: parallelism,
        ..base_config(FaultRegistry::new())
    }
}

/// `(key, count, sum(v))` over the big epoch without row [`BIG_POISON`].
fn big_oracle() -> Vec<Row> {
    (0..5u64)
        .map(|k| {
            let vs = (0..BIG_ROWS).filter(|&i| i % 5 == k && i != BIG_POISON);
            row![k.to_string(), vs.clone().count() as i64, vs.sum::<u64>() as i64]
        })
        .collect()
}

#[test]
fn poison_in_a_late_vector_is_quarantined_exactly_once() {
    for parallelism in [1, 4] {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let sink = MemorySink::new("out");
        let dlq = ss_bus::DeadLetterQueue::new();
        let config = MicroBatchConfig {
            error_policy: ErrorPolicy::Quarantine { max_per_epoch: 4 },
            dlq: Some(dlq.clone()),
            ..big_config(parallelism)
        };
        let backend = Arc::new(MemoryBackend::new());
        let mut eng =
            build_engine_filtering(bus.clone(), sink.clone(), backend, config, parse_key_expr())
                .unwrap();
        feed_numeric(&bus, 0..BIG_ROWS, true);
        assert_eq!(eng.process_available().unwrap(), 1, "one epoch holds every row");
        assert!(eng.isolation_active(), "parallelism {parallelism}");
        let progress = eng.progress().last().cloned().expect("the epoch ran");
        assert_eq!(progress.num_input_rows, BIG_ROWS);
        assert_eq!(progress.quarantined_records, 1);
        // The fault-free oracle minus the one record: nothing the
        // failed attempt folded in before the poison is counted twice.
        assert_eq!(sink.snapshot(), big_oracle(), "parallelism {parallelism}");
        let letters = dlq.snapshot();
        assert_eq!(letters.len(), 1, "parallelism {parallelism}: {letters:?}");
        assert_eq!((letters[0].partition, letters[0].offset), (0, BIG_POISON));
        assert!(letters[0].error.contains("to_int()"), "got: {}", letters[0].error);
    }
}

/// `exec.record.eval` now fires once per vector of a filtering
/// operator: armed for its third hit it fails the big epoch with two
/// vectors already ingested, and the restarted epoch's sink bytes are
/// the unfailed run's.
#[test]
fn failure_in_the_third_vector_fails_the_epoch_and_the_retry_is_exact() {
    let run = |fail: bool| -> Vec<Row> {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let sink = MemorySink::new("out");
        let config = big_config(1);
        let faults = config.faults.clone();
        let backend = Arc::new(MemoryBackend::new());
        let mut eng =
            build_engine_filtering(bus.clone(), sink.clone(), backend, config, parse_key_expr())
                .unwrap();
        // A committed epoch first, so the retry has state to reload.
        feed_numeric(&bus, 0..WAVE, false);
        eng.process_available().unwrap();
        if fail {
            faults.configure(
                ss_exec::ops::failpoints::RECORD_EVAL,
                FaultTrigger::Once { skip: 2 },
                FaultMode::Error,
            );
        }
        feed_numeric(&bus, WAVE..WAVE + BIG_ROWS, false);
        match eng.process_available() {
            Ok(_) => assert!(!fail, "the armed fail point never fired"),
            Err(err) => {
                assert!(fail && err.to_string().contains("exec.record.eval"), "got: {err}");
                eng.restart().unwrap();
                eng.process_available().unwrap();
            }
        }
        assert_eq!(eng.current_epoch(), 2);
        sink.snapshot()
    };
    let unfailed = run(false);
    assert_eq!(unfailed.len(), 5);
    assert_eq!(run(true), unfailed);
}
