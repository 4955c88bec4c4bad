//! Randomized crash/restart chaos test (§6.1).
//!
//! A windowed aggregation runs under repeated process "crashes": each
//! incarnation arms one fail point chosen by a seeded PRNG — anywhere
//! in the epoch protocol, the WAL, the state store or the source — and
//! drives the query until the fault kills it (error or panic). The
//! next incarnation recovers from the surviving WAL, checkpoints and
//! sink. Once all input is processed, the sink must equal a run that
//! never crashed, for every seed. `SS_CHAOS_SEEDS` overrides the seed
//! set: either a count (`32` = seeds 0..32) or a comma-separated list.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ss_common::fault::{FaultMode, FaultRegistry, FaultTrigger};
use ss_common::{RetryPolicy, XorShift64};
use ss_core::microbatch::{failpoints, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_state::CheckpointBackend;
use structured_streaming::prelude::*;

const TOTAL_ROWS: u64 = 60;
const WAVE: u64 = 10;

/// Every fail point the chaos run may arm, with the failure mode to
/// inject there. Transient modes exercise the retry path (absorbed
/// without a crash); Error and Panic modes kill the incarnation.
const POOL: &[(&str, FaultMode)] = &[
    (failpoints::AFTER_OFFSET_WRITE, FaultMode::Error),
    (failpoints::AFTER_SINK_WRITE, FaultMode::Error),
    (failpoints::AFTER_COMMIT_WRITE, FaultMode::Error),
    (failpoints::AFTER_OFFSET_WRITE, FaultMode::Panic),
    (failpoints::AFTER_SINK_WRITE, FaultMode::Panic),
    (failpoints::AFTER_COMMIT_WRITE, FaultMode::Panic),
    (failpoints::SOURCE_READ, FaultMode::TransientError),
    (failpoints::SINK_COMMIT, FaultMode::TransientError),
    (failpoints::MANIFEST_WRITE, FaultMode::Error),
    (failpoints::MANIFEST_WRITE, FaultMode::TransientError),
    (ss_wal::failpoints::OFFSETS_APPEND, FaultMode::Error),
    (ss_wal::failpoints::OFFSETS_APPEND, FaultMode::TransientError),
    (ss_wal::failpoints::COMMITS_APPEND, FaultMode::Error),
    (ss_wal::failpoints::COMMITS_APPEND, FaultMode::TransientError),
    (ss_state::store::failpoints::CHECKPOINT_WRITE, FaultMode::Error),
    (ss_state::store::failpoints::CHECKPOINT_WRITE, FaultMode::TransientError),
    (ss_bus::source::failpoints::BUS_READ, FaultMode::Error),
];

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn feed(bus: &MessageBus, n: u64, start: u64) {
    for i in start..start + n {
        let key = format!("k{}", i % 5);
        bus.append(
            "in",
            (i % 2) as u32,
            vec![row![key, i as i64, Value::Timestamp(i as i64 * 1_000_000)]],
        )
        .unwrap();
    }
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

fn build_engine(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    backend: Arc<MemoryBackend>,
    faults: FaultRegistry,
) -> Result<MicroBatchExecution, SsError> {
    build_engine_with(bus, sink, backend, base_config(faults))
}

fn build_engine_with(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    backend: Arc<MemoryBackend>,
    config: MicroBatchConfig,
) -> Result<MicroBatchExecution, SsError> {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus, "in", schema())?.with_faults(config.faults.clone()),
    ))?;
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
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink,
        OutputMode::Update,
        backend,
        config,
    )
}

/// The crash-free result over the same input.
fn reference() -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("ref");
    let mut eng = build_engine(
        bus.clone(),
        sink.clone(),
        Arc::new(MemoryBackend::new()),
        FaultRegistry::new(),
    )
    .unwrap();
    let mut fed = 0;
    while fed < TOTAL_ROWS {
        feed(&bus, WAVE, fed);
        fed += WAVE;
        eng.process_available().unwrap();
    }
    let mut rows = sink.snapshot();
    rows.sort();
    rows
}

/// One fully deterministic chaos run: crash, recover, repeat until the
/// whole input is processed, then return the sorted sink contents and
/// how many incarnations (1 = no crash ever surfaced) it took.
fn chaos_run(seed: u64) -> (Vec<Row>, u32) {
    let mut rng = XorShift64::new(seed);
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let mut fed: u64 = 0;
    let mut incarnation = 0u32;
    loop {
        incarnation += 1;
        let faults = FaultRegistry::new();
        // After enough chaos, run clean so every seed terminates.
        if incarnation <= 40 {
            let (point, mode) = POOL[rng.gen_range(0, POOL.len() as u64) as usize];
            let skip = rng.gen_range(0, 5);
            faults.configure(point, FaultTrigger::Once { skip }, mode);
        }
        // A "process": construction (which runs recovery), feeding and
        // epoch execution can all die here — by error or by panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), SsError> {
            let mut eng = build_engine(bus.clone(), sink.clone(), backend.clone(), faults.clone())?;
            while fed < TOTAL_ROWS {
                feed(&bus, WAVE, fed);
                fed += WAVE;
                eng.process_available()?;
            }
            eng.process_available()?;
            Ok(())
        }));
        if let Ok(Ok(())) = outcome {
            break; // a whole incarnation survived; all input processed
        }
        assert!(
            incarnation < 100,
            "chaos run (seed {seed}) did not converge"
        );
    }
    let mut rows = sink.snapshot();
    rows.sort();
    (rows, incarnation)
}

fn seeds_from_env() -> Vec<u64> {
    match std::env::var("SS_CHAOS_SEEDS") {
        Ok(v) => {
            let v = v.trim().to_string();
            if let Ok(n) = v.parse::<u64>() {
                (0..n).collect()
            } else {
                v.split(',').filter_map(|s| s.trim().parse().ok()).collect()
            }
        }
        Err(_) => (0..20).collect(),
    }
}

#[test]
fn randomized_crash_restart_converges_to_the_no_fault_run() {
    // Injected panics are part of the plan here; keep the log readable.
    std::panic::set_hook(Box::new(|_| {}));
    let expected = reference();
    assert!(!expected.is_empty());
    let seeds = seeds_from_env();
    let mut crashes = 0;
    for &seed in &seeds {
        let (got, incarnations) = chaos_run(seed);
        assert_eq!(got, expected, "seed {seed} diverged from the clean run");
        crashes += incarnations - 1;
    }
    let _ = std::panic::take_hook();
    // The pool must actually be lethal: across the whole seed set many
    // incarnations die mid-protocol (a quiet run means the injection
    // wiring regressed).
    assert!(
        crashes >= seeds.len() as u32,
        "only {crashes} crashes across {} seeds",
        seeds.len()
    );
}

#[test]
fn corrupting_a_committed_wal_record_is_rejected_with_a_distinct_error() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    {
        let mut eng = build_engine(
            bus.clone(),
            sink.clone(),
            backend.clone(),
            FaultRegistry::new(),
        )
        .unwrap();
        feed(&bus, 20, 0);
        eng.process_available().unwrap();
        assert!(eng.current_epoch() >= 2);
    }
    // Smash a record inside committed history — not a torn tail, so
    // recovery must refuse to run rather than silently recompute.
    backend
        .write_atomic("wal/offsets/epoch-00000000000000000001.json", b"garbage")
        .unwrap();
    let err = match build_engine(bus, sink, backend, FaultRegistry::new()) {
        Ok(_) => panic!("corrupted committed record was accepted"),
        Err(e) => e,
    };
    assert_eq!(err.category(), "corruption", "got: {err}");
}

/// `wal.commits.read` fires when a take-over replays a committed epoch
/// (the replay reads the epoch's commit record for its quarantined
/// offsets). A failed read fails the restart before anything durable
/// changes, and the next clean restart converges to the fault-free run.
#[test]
fn a_failed_commit_read_fails_the_restart_and_a_clean_one_converges() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let faults = FaultRegistry::new();
    let mut eng = build_engine(bus.clone(), sink.clone(), backend.clone(), faults.clone()).unwrap();
    // Five epochs of seven rows: the last one is committed but not
    // checkpointed (every second epoch is), so a take-over replays it.
    feed(&bus, 3 * WAVE, 0);
    assert_eq!(eng.process_available().unwrap(), 5);
    let (epoch, state_rows) = (eng.current_epoch(), eng.state_rows());
    let contents = || -> Vec<(String, Option<Vec<u8>>)> {
        let keys = backend.list("").unwrap();
        keys.into_iter().map(|k| (k.clone(), backend.read(&k).unwrap())).collect()
    };
    let (durable, rows) = (contents(), sink.snapshot());

    let point = ss_wal::failpoints::COMMITS_READ;
    faults.configure(point, FaultTrigger::EveryNth { n: 1 }, FaultMode::Error);
    let err = eng.restart().unwrap_err();
    assert!(err.to_string().contains(point), "got: {err}");
    assert_eq!(contents(), durable, "a failed restart changed the checkpoint");
    assert_eq!(sink.snapshot(), rows);

    faults.clear();
    eng.restart().unwrap();
    assert_eq!((eng.current_epoch(), eng.state_rows()), (epoch, state_rows));
    assert_eq!(contents(), durable);
    let mut fed = 3 * WAVE;
    while fed < TOTAL_ROWS {
        feed(&bus, WAVE, fed);
        fed += WAVE;
        eng.process_available().unwrap();
    }
    let mut out = sink.snapshot();
    out.sort();
    assert_eq!(out, reference());
}

/// Chaos over the *lifecycle* APIs: a query is repeatedly drained with
/// `stop_graceful` and re-deployed with `restart_from_checkpoint` under
/// a semantically equivalent (but differently fingerprinted) plan,
/// while seeded faults land on the manifest write, the commit path and
/// the recovery replay. A failed drain or upgrade models a crash during
/// shutdown: the next cycle rebuilds straight from the checkpoint. The
/// sink must still converge byte-for-byte to a clean run.
#[test]
fn graceful_stop_and_upgrade_survive_injected_faults() {
    std::panic::set_hook(Box::new(|_| {}));

    // Three plan variants whose filters all pass every row (v = i ≥ 0):
    // upgrades between them are Compatible (the aggregate's signature
    // is untouched) yet change the plan fingerprint.
    let variants: &[fn(DataFrame) -> DataFrame] = &[
        |df| df.filter(col("v").gt_eq(lit(0i64))),
        |df| df.filter(col("v").gt(lit(-1i64))),
        |df| df,
    ];
    let plan_for = |bus: &Arc<MessageBus>, variant: usize| -> DataFrame {
        let ctx = StreamingContext::new();
        let df = ctx
            .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
            .unwrap();
        variants[variant](df)
            .group_by(vec![col("key")])
            .agg(vec![count_star(), sum(col("v"))])
    };
    let lifecycle_pool: &[(&str, FaultMode)] = &[
        (failpoints::MANIFEST_WRITE, FaultMode::Error),
        (failpoints::MANIFEST_WRITE, FaultMode::TransientError),
        (failpoints::AFTER_COMMIT_WRITE, FaultMode::Error),
        (failpoints::SOURCE_READ, FaultMode::TransientError),
        (ss_state::store::failpoints::CHECKPOINT_WRITE, FaultMode::TransientError),
    ];

    // Clean reference over the full input.
    let expected = {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        feed(&bus, TOTAL_ROWS, 0);
        let sink = MemorySink::new("ref");
        let mut q = plan_for(&bus, 0)
            .write_stream()
            .output_mode(OutputMode::Complete)
            .sink(sink.clone())
            .checkpoint(Arc::new(MemoryBackend::new()))
            .start_sync()
            .unwrap();
        q.process_available().unwrap();
        let mut rows = sink.snapshot();
        rows.sort();
        rows
    };

    for seed in [3u64, 11, 29] {
        let mut rng = XorShift64::new(seed);
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let faults = FaultRegistry::new();
        let start_variant = |variant: usize| {
            plan_for(&bus, variant)
                .write_stream()
                .output_mode(OutputMode::Complete)
                .sink(sink.clone())
                .checkpoint(backend.clone())
                .engine_config(MicroBatchConfig {
                    faults: faults.clone(),
                    retry: RetryPolicy::immediate(3),
                    ..Default::default()
                })
                .start_sync()
        };

        let mut variant = 0usize;
        let mut query: Option<StreamingQuery> = Some(start_variant(variant).unwrap());
        let mut fed = 0u64;
        for cycle in 0..8u32 {
            faults.clear();
            // (Re)incarnate after a failed drain/upgrade of the
            // previous cycle.
            let mut q = match query.take() {
                Some(q) => q,
                None => match catch_unwind(AssertUnwindSafe(|| start_variant(variant))) {
                    Ok(Ok(q)) => q,
                    _ => continue, // recovery itself crashed; next cycle retries
                },
            };
            if fed < TOTAL_ROWS {
                feed(&bus, WAVE, fed);
                fed += WAVE;
            }
            if catch_unwind(AssertUnwindSafe(|| q.process_available())).is_err() {
                continue; // panic mid-epoch: drop the incarnation
            }
            // Arm one fault, then drain-and-upgrade: even cycles stop
            // gracefully, odd ones hot-upgrade to the next variant.
            let (point, mode) = lifecycle_pool[rng.gen_range(0, lifecycle_pool.len() as u64) as usize];
            faults.configure(point, FaultTrigger::Once { skip: 0 }, mode);
            if cycle % 2 == 0 {
                let _ = catch_unwind(AssertUnwindSafe(|| q.stop_graceful()));
                // query stays None: rebuilt next cycle from durable state
            } else {
                variant = (variant + 1) % variants.len();
                query = match catch_unwind(AssertUnwindSafe(|| {
                    q.restart_from_checkpoint(&plan_for(&bus, variant))
                })) {
                    Ok(Ok(q2)) => Some(q2),
                    _ => None,
                };
            }
        }
        // Settle: no faults, finish feeding, drain everything.
        faults.clear();
        let mut q = match query.take() {
            Some(q) => q,
            None => start_variant(variant).unwrap(),
        };
        while fed < TOTAL_ROWS {
            feed(&bus, WAVE, fed);
            fed += WAVE;
        }
        q.process_available().unwrap();
        let mut rows = sink.snapshot();
        rows.sort();
        assert_eq!(rows, expected, "seed {seed} diverged after lifecycle chaos");
        q.stop_graceful().unwrap();
    }
    let _ = std::panic::take_hook();
}

/// Worker-task chaos: the same windowed aggregation runs
/// data-parallel (4 workers, 4 shuffle partitions) while seeded faults
/// land *inside* scheduler tasks — at task start
/// (`sched.task.run`) and at the shuffle write (`sched.shuffle.write`)
/// — alongside the usual epoch-protocol crash points. Transient faults
/// must be absorbed by the task retry path without killing the epoch;
/// fatal errors and panics kill the incarnation mid-scatter (its
/// sharded in-memory state is lost with the worker results) and the
/// next incarnation must rebuild from the checkpoint. The sink must
/// converge byte-for-byte to the clean **serial** run.
#[test]
fn parallel_execution_survives_worker_faults_and_matches_serial() {
    std::panic::set_hook(Box::new(|_| {}));

    let parallel_config = |faults: FaultRegistry| MicroBatchConfig {
        parallelism: 4,
        shuffle_partitions: 4,
        ..base_config(faults)
    };
    let serial_config = |faults: FaultRegistry| MicroBatchConfig {
        parallelism: 1,
        ..base_config(faults)
    };
    let worker_pool: &[(&str, FaultMode)] = &[
        (ss_sched::failpoints::TASK_RUN, FaultMode::TransientError),
        (ss_sched::failpoints::TASK_RUN, FaultMode::Error),
        (ss_sched::failpoints::TASK_RUN, FaultMode::Panic),
        (ss_sched::failpoints::SHUFFLE_WRITE, FaultMode::TransientError),
        (ss_sched::failpoints::SHUFFLE_WRITE, FaultMode::Error),
        (failpoints::AFTER_OFFSET_WRITE, FaultMode::Panic),
        (failpoints::AFTER_COMMIT_WRITE, FaultMode::Error),
        (ss_state::store::failpoints::CHECKPOINT_WRITE, FaultMode::TransientError),
    ];

    // Clean serial reference: the parallel chaos runs must reproduce
    // these exact rows.
    let expected = {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let sink = MemorySink::new("ref");
        let mut eng = build_engine_with(
            bus.clone(),
            sink.clone(),
            Arc::new(MemoryBackend::new()),
            serial_config(FaultRegistry::new()),
        )
        .unwrap();
        let mut fed = 0;
        while fed < TOTAL_ROWS {
            feed(&bus, WAVE, fed);
            fed += WAVE;
            eng.process_available().unwrap();
        }
        let mut rows = sink.snapshot();
        rows.sort();
        rows
    };
    assert!(!expected.is_empty());

    let mut crashes = 0u32;
    for seed in 0..12u64 {
        let mut rng = XorShift64::new(seed);
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let mut fed: u64 = 0;
        let mut incarnation = 0u32;
        loop {
            incarnation += 1;
            let faults = FaultRegistry::new();
            if incarnation <= 40 {
                let (point, mode) =
                    worker_pool[rng.gen_range(0, worker_pool.len() as u64) as usize];
                let skip = rng.gen_range(0, 6);
                faults.configure(point, FaultTrigger::Once { skip }, mode);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), SsError> {
                let mut eng = build_engine_with(
                    bus.clone(),
                    sink.clone(),
                    backend.clone(),
                    parallel_config(faults.clone()),
                )?;
                while fed < TOTAL_ROWS {
                    feed(&bus, WAVE, fed);
                    fed += WAVE;
                    eng.process_available()?;
                }
                eng.process_available()?;
                Ok(())
            }));
            if let Ok(Ok(())) = outcome {
                break;
            }
            crashes += 1;
            assert!(
                incarnation < 100,
                "parallel chaos run (seed {seed}) did not converge"
            );
        }
        let mut rows = sink.snapshot();
        rows.sort();
        assert_eq!(
            rows, expected,
            "seed {seed} diverged from the clean serial run"
        );
    }
    let _ = std::panic::take_hook();
    // The worker fail points must actually fire and kill incarnations,
    // or the injection wiring has regressed.
    assert!(crashes >= 6, "only {crashes} crashes across 12 seeds");
}

/// Bursty load under active admission control, with crashes landing
/// mid-epoch while rate limits are in force. A deterministic stepping
/// clock makes every epoch look slow (hundreds of fake milliseconds),
/// so the PID controller genuinely throttles admission to a few rows
/// per epoch against 20-row bursts. Crash, recover, repeat: restarted
/// incarnations must re-admit exactly the in-flight epoch's logged
/// offsets, so the sink still converges byte-for-byte to the no-fault,
/// no-limit reference run.
#[test]
fn bursty_load_under_rate_limiting_converges_after_crashes() {
    use ss_common::ClockRef;
    use ss_core::RateControllerConfig;

    const BURST: u64 = 20;

    std::panic::set_hook(Box::new(|_| {}));
    let expected = reference();
    for seed in [1u64, 7, 21, 33] {
        // One monotone stepping clock per run, shared across
        // incarnations so restarts never see time move backwards.
        let clock: ClockRef = ss_common::StepClock::new(0, 50_000).handle();
        let throttled = |faults: FaultRegistry| MicroBatchConfig {
            rate_controller: Some(RateControllerConfig {
                min_rate: 1.0,
                batch_interval_us: 100_000,
            }),
            clock: clock.clone(),
            ..base_config(faults)
        };
        let mut rng = XorShift64::new(seed);
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let mut fed: u64 = 0;
        let mut incarnation = 0u32;
        let limited = loop {
            incarnation += 1;
            let faults = FaultRegistry::new();
            if incarnation <= 30 {
                let (point, mode) = POOL[rng.gen_range(0, POOL.len() as u64) as usize];
                faults.configure(point, FaultTrigger::Once { skip: rng.gen_range(0, 5) }, mode);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<bool, SsError> {
                let mut eng = build_engine_with(
                    bus.clone(),
                    sink.clone(),
                    backend.clone(),
                    throttled(faults.clone()),
                )?;
                while fed < TOTAL_ROWS {
                    feed(&bus, BURST, fed);
                    fed += BURST;
                    eng.process_available()?;
                }
                eng.process_available()?;
                // Did admission control actually hold rows back?
                let engaged = eng
                    .progress()
                    .all()
                    .any(|p| p.rate_limit.is_some() && p.backlog_rows > 0);
                Ok(engaged)
            }));
            if let Ok(Ok(l)) = outcome {
                break l;
            }
            assert!(
                incarnation < 100,
                "bursty chaos run (seed {seed}) did not converge"
            );
        };
        let mut rows = sink.snapshot();
        rows.sort();
        assert_eq!(
            rows, expected,
            "seed {seed} diverged from the clean unthrottled run"
        );
        assert!(
            limited,
            "rate limiter never engaged under bursty load (seed {seed})"
        );
    }
    let _ = std::panic::take_hook();
}
