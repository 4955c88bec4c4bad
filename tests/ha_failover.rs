//! High-availability failover: replicated checkpoints, lease-fenced
//! leadership, and warm-standby takeover.
//!
//! Three suites:
//!
//! * **Zombie-writer fencing** — a leader is "paused" between the sink
//!   write and the WAL commit (an injected error leaves the epoch
//!   half-done), a warm standby takes the lease, and the resumed
//!   zombie must see [`SsError::Fenced`] on *every* durable write —
//!   WAL, checkpoint backend and sink (a rollback's truncation) —
//!   while the final sink output stays byte-identical exactly-once.
//! * **Seeded failover drill** — under several chaos seeds, the leader
//!   is repeatedly killed at a random point of the epoch protocol; the
//!   warm standby must promote within a bounded number of ticks and
//!   the final sink must equal a run that never failed.
//! * **Replica durability** — with synchronous mirroring, the replica
//!   alone is enough to restart the query at the exact committed
//!   epoch; the catch-up scrubber converges a diverged replica.
//!
//! Both fencing and takeover run on the serial path by default and on
//! the data-parallel path under `SS_PARALLELISM=4` (the CI failover
//! smoke job runs both).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ss_common::{ClockRef, SimClock, XorShift64};
use ss_core::ha::{HaConfig, StandbyStatus};
use ss_core::microbatch::{failpoints, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_state::{CheckpointBackend, ReplicatedBackend};
use ss_wal::{FencedBackend, LeaseManager};
use structured_streaming::prelude::*;

const TOTAL_ROWS: u64 = 60;
const WAVE: u64 = 10;

/// Lethal fail points for the drill. Error modes only (no panics):
/// the dead incarnation must survive as an object so it can be
/// resumed as a zombie and checked for fencing.
const POOL: &[&str] = &[
    failpoints::AFTER_OFFSET_WRITE,
    failpoints::AFTER_SINK_WRITE,
    failpoints::AFTER_COMMIT_WRITE,
    ss_wal::failpoints::OFFSETS_APPEND,
    ss_wal::failpoints::COMMITS_APPEND,
    ss_state::store::failpoints::CHECKPOINT_WRITE,
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

/// A shared fake monotonic clock (µs): lease lapse is decided by
/// advancing this, never by sleeping.
fn fake_clock() -> (SimClock, ClockRef) {
    let sim = SimClock::new(0);
    let handle = sim.handle();
    (sim, handle)
}

/// One HA participant: the engine plus the handles the tests poke —
/// its lease, its fault registry, and its fenced backend for direct
/// zombie-write probes.
struct Participant {
    engine: MicroBatchExecution,
    lease: Arc<LeaseManager>,
    faults: FaultRegistry,
    fenced_backend: Arc<FencedBackend>,
}

/// Build a leader or warm standby over the same shared storage:
/// `FencedBackend(ReplicatedBackend(primary, replica), lease)` as the
/// engine backend, the lease itself on the raw primary, and the shared
/// sink, which the engine fences against the same lease.
#[allow(clippy::too_many_arguments)]
fn build_participant(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    primary: Arc<dyn CheckpointBackend>,
    replica: Arc<dyn CheckpointBackend>,
    holder: &str,
    clock: ClockRef,
    standby: bool,
) -> std::result::Result<Participant, SsError> {
    let lease = Arc::new(LeaseManager::with_clock(
        primary.clone(),
        holder,
        Duration::from_millis(100),
        Duration::from_millis(50),
        clock,
    ));
    let repl = Arc::new(ReplicatedBackend::new(primary, replica));
    let fenced_backend = Arc::new(FencedBackend::new(repl.clone(), lease.clone()));
    let faults = FaultRegistry::new();
    let config = MicroBatchConfig {
        max_records_per_trigger: Some(7),
        adaptive_batching: false,
        checkpoint_interval: 2,
        faults: faults.clone(),
        retry: RetryPolicy::immediate(3),
        ha: Some(HaConfig::new(lease.clone()).with_replication(repl)),
        ..Default::default()
    };

    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus, "in", schema())?.with_faults(faults.clone()),
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
    let build = if standby {
        MicroBatchExecution::new_standby
    } else {
        MicroBatchExecution::new
    };
    let engine = build(
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink,
        OutputMode::Update,
        fenced_backend.clone(),
        config,
    )?;
    Ok(Participant {
        engine,
        lease,
        faults,
        fenced_backend,
    })
}

/// The crash-free result over the same input (no HA, no faults).
fn reference() -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("ref");
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
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
    let mut eng = MicroBatchExecution::new(
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink.clone(),
        OutputMode::Update,
        Arc::new(MemoryBackend::new()),
        MicroBatchConfig {
            max_records_per_trigger: Some(7),
            adaptive_batching: false,
            checkpoint_interval: 2,
            ..Default::default()
        },
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

#[test]
fn zombie_leader_is_fenced_on_every_durable_write_and_output_stays_exactly_once() {
    let expected = reference();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let (t, clock) = fake_clock();

    let mut leader = build_participant(
        bus.clone(),
        sink.clone(),
        primary.clone(),
        replica.clone(),
        "leader-0",
        clock.clone(),
        false,
    )
    .unwrap();
    let standby = build_participant(
        bus.clone(),
        sink.clone(),
        primary.clone(),
        replica.clone(),
        "standby-0",
        clock,
        true,
    )
    .unwrap();
    let mut standby = standby.engine;

    // Healthy epochs; the warm standby follows read-only.
    feed(&bus, 2 * WAVE, 0);
    leader.engine.process_available().unwrap();
    match standby.standby_tick().unwrap() {
        StandbyStatus::Following { caught_up_to } => {
            assert_eq!(caught_up_to, leader.engine.current_epoch());
        }
        other => panic!("expected Following, got {other:?}"),
    }
    let sink_rows_before_pause = sink.snapshot().len();
    assert!(sink_rows_before_pause > 0);

    // "Pause" the leader between the sink write and the WAL commit:
    // the sink accepted the epoch's output, the commit never lands.
    leader.faults.configure(
        failpoints::AFTER_SINK_WRITE,
        FaultTrigger::Once { skip: 0 },
        FaultMode::Error,
    );
    feed(&bus, WAVE, 2 * WAVE);
    let err = leader.engine.process_available().unwrap_err();
    assert!(
        !matches!(err, SsError::Fenced(_)),
        "the injected pause must not be a fencing error: {err}"
    );

    // The lease lapses on the standby's monotonic clock; takeover is
    // bounded: one tick to observe the lapse, one promote call that
    // replays only the in-flight tail.
    t.advance(Duration::from_micros(160_000));
    match standby.standby_tick().unwrap() {
        StandbyStatus::LeaderLapsed { .. } => {}
        other => panic!("expected LeaderLapsed, got {other:?}"),
    }
    standby.promote().unwrap();
    let mut promoted = standby;
    assert_eq!(promoted.ha_role(), Some(ss_wal::HaRole::Leader));

    // The new leader finishes the input.
    let mut fed = 3 * WAVE;
    while fed < TOTAL_ROWS {
        feed(&bus, WAVE, fed);
        fed += WAVE;
    }
    promoted.process_available().unwrap();
    let mut rows = sink.snapshot();
    rows.sort();
    assert_eq!(rows, expected, "failover changed the sink output");

    // The zombie resumes. Every durable write path must reject:
    // 1. the epoch protocol itself (WAL offsets write / lease renewal);
    let zerr = leader.engine.process_available().unwrap_err();
    assert!(matches!(zerr, SsError::Fenced(_)), "got: {zerr}");
    // 2. the checkpoint backend;
    let berr = leader
        .fenced_backend
        .write_atomic("zombie-probe.json", b"{}")
        .unwrap_err();
    assert!(matches!(berr, SsError::Fenced(_)), "got: {berr}");
    // 3. the sink, through the engine's one sink mutation outside an
    //    epoch: a rollback's truncation.
    let serr = leader.engine.rollback_to(1).unwrap_err();
    assert!(matches!(serr, SsError::Fenced(_)), "got: {serr}");
    assert_eq!(leader.engine.ha_role(), Some(ss_wal::HaRole::Fenced));

    // Every rejection was counted, and the sink never moved.
    assert!(
        leader.lease.fencing_rejections() >= 3,
        "only {} rejections recorded",
        leader.lease.fencing_rejections()
    );
    let rendered = leader.engine.metrics().render();
    assert!(
        rendered.contains("ss_fencing_rejections_total"),
        "{rendered}"
    );
    let mut after = sink.snapshot();
    after.sort();
    assert_eq!(after, expected, "a zombie write reached the sink");
}

/// Every durable key of a backend with its bytes, in key order.
fn contents(backend: &MemoryBackend) -> Vec<(String, Option<Vec<u8>>)> {
    let mut keys = backend.list("").unwrap();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let v = backend.read(&k).unwrap();
            (k, v)
        })
        .collect()
}

/// Rollback truncates the sink and the dead-letter queue, which live
/// outside the checkpoint backend, so the engine fences it itself.
/// Over a plain (unfenced) backend, a leader whose lease was usurped
/// must refuse `rollback_to` before it truncates the WAL, the state,
/// the sink or the DLQ.
#[test]
fn usurped_leader_refuses_rollback_before_truncating_anything() {
    let (t, clock) = fake_clock();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let leases: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let ttl = Duration::from_millis(100);
    let renew = Duration::from_millis(50);
    let lease = Arc::new(LeaseManager::with_clock(
        leases.clone(),
        "leader",
        ttl,
        renew,
        clock.clone(),
    ));
    let dlq = ss_bus::DeadLetterQueue::new();
    let sink = MemorySink::new("out");
    let ctx = StreamingContext::new();
    let mut query = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "in", schema()).unwrap(),
        ))
        .unwrap()
        .select(vec![col("key"), col("v")])
        .write_stream()
        .output_mode(OutputMode::Append)
        .sink(sink.clone())
        .checkpoint(backend.clone())
        .engine_config(MicroBatchConfig {
            max_records_per_trigger: Some(WAVE),
            adaptive_batching: false,
            clock: clock.clone(),
            dlq: Some(dlq.clone()),
            ha: Some(HaConfig::new(lease.clone())),
            ..Default::default()
        })
        .start_sync()
        .unwrap();
    feed(&bus, 3 * WAVE, 0);
    assert!(query.process_available().unwrap() >= 2);
    // A letter of the last epoch, which a rollback to epoch 1 drops.
    let last = query.current_epoch();
    dlq.commit_epoch(
        last,
        vec![ss_bus::DeadLetterRecord {
            epoch: last,
            source: "in".into(),
            partition: 0,
            offset: 0,
            fingerprint: 1,
            error: "poison".into(),
            row_json: "{}".into(),
        }],
    );

    // Another holder watches the lease lapse, then takes it.
    let usurper = LeaseManager::with_clock(leases, "usurper", ttl, renew, clock);
    assert!(!usurper.is_lapsed().unwrap());
    t.advance(Duration::from_micros(160_000));
    usurper.try_acquire().unwrap();

    let (rows, letters, durable) = (sink.snapshot(), dlq.snapshot(), contents(&backend));
    let err = query.rollback_to(1).unwrap_err();
    assert!(matches!(err, SsError::Fenced(_)), "got: {err}");
    assert_eq!(sink.snapshot(), rows, "the sink was truncated");
    assert_eq!(
        dlq.snapshot(),
        letters,
        "the dead-letter queue was truncated"
    );
    assert_eq!(
        contents(&backend),
        durable,
        "the WAL or the state was truncated"
    );
    assert!(lease.fencing_rejections() >= 1);
}

/// One seeded drill: kill the leader at random protocol points, let
/// the warm standby take over each time, and return the sorted sink
/// plus how many failovers happened.
fn drill(seed: u64, expected: &[Row]) -> u32 {
    let mut rng = XorShift64::new(seed);
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let (t, clock) = fake_clock();

    let mut holder = 0u32;
    let p0 = build_participant(
        bus.clone(),
        sink.clone(),
        primary.clone(),
        replica.clone(),
        &format!("leader-{holder}"),
        clock.clone(),
        false,
    )
    .unwrap();
    let mut leader_engine = p0.engine;
    let mut leader_lease = p0.lease;
    let mut leader_faults = p0.faults;
    holder += 1;
    let s0 = build_participant(
        bus.clone(),
        sink.clone(),
        primary.clone(),
        replica.clone(),
        &format!("standby-{holder}"),
        clock.clone(),
        true,
    )
    .unwrap();
    let mut standby_faults = s0.faults;
    let mut standby = s0.engine;
    let _ = standby.standby_tick(); // observe the lease before any failure

    // Arm the first fault.
    let arm = |faults: &FaultRegistry, rng: &mut XorShift64| {
        let point = POOL[rng.gen_range(0, POOL.len() as u64) as usize];
        let skip = rng.gen_range(0, 4);
        faults.configure(point, FaultTrigger::Once { skip }, FaultMode::Error);
    };
    arm(&leader_faults, &mut rng);

    let mut zombies: Vec<(MicroBatchExecution, Arc<LeaseManager>)> = Vec::new();
    let mut failovers = 0u32;
    let mut fed = 0u64;
    loop {
        if fed < TOTAL_ROWS {
            feed(&bus, WAVE, fed);
            fed += WAVE;
        }
        match leader_engine.process_available() {
            Ok(_) => {
                if fed >= TOTAL_ROWS {
                    break;
                }
            }
            Err(e) => {
                assert!(
                    !matches!(e, SsError::Fenced(_)),
                    "seed {seed}: live leader was fenced: {e}"
                );
                failovers += 1;
                assert!(failovers < 16, "seed {seed}: drill did not converge");
                // The dead leader goes silent past ttl + grace.
                t.advance(Duration::from_micros(160_000));
                // Bounded takeover: the lapse must be visible within
                // two ticks (one to refresh, one to decide).
                let mut lapsed = false;
                for _ in 0..2 {
                    if matches!(
                        standby.standby_tick().unwrap(),
                        StandbyStatus::LeaderLapsed { .. }
                    ) {
                        lapsed = true;
                        break;
                    }
                }
                assert!(lapsed, "seed {seed}: lease lapse not observed in 2 ticks");
                standby.promote().unwrap();
                let promoted_lease = standby.ha().unwrap().lease.clone();
                // The promoted standby leads; the dead leader waits in
                // `standby` until a fresh warm one replaces it.
                std::mem::swap(&mut leader_engine, &mut standby);
                let zombie_lease = std::mem::replace(&mut leader_lease, promoted_lease);
                leader_faults = standby_faults.clone();
                holder += 1;
                let next = build_participant(
                    bus.clone(),
                    sink.clone(),
                    primary.clone(),
                    replica.clone(),
                    &format!("standby-{holder}"),
                    clock.clone(),
                    true,
                )
                .unwrap();
                standby_faults = next.faults;
                let zombie = std::mem::replace(&mut standby, next.engine);
                zombies.push((zombie, zombie_lease));
                let _ = standby.standby_tick();
                // Keep the chaos coming for the first few rounds.
                if failovers <= 3 {
                    arm(&leader_faults, &mut rng);
                }
            }
        }
        let _ = standby.standby_tick(); // warm standby keeps following
    }
    let _ = leader_lease;

    let mut rows = sink.snapshot();
    rows.sort();
    assert_eq!(rows, expected, "seed {seed} diverged from the clean run");

    // Feed a sentinel wave only the zombies will try to process, then
    // resume every zombie: each must be fenced before any durable
    // write, and the sink must not move.
    feed(&bus, WAVE, TOTAL_ROWS);
    for (z, lease) in &mut zombies {
        let err = match z.process_available() {
            Err(e) => e,
            Ok(_) => panic!("seed {seed}: zombie ran an epoch unfenced"),
        };
        assert!(matches!(err, SsError::Fenced(_)), "seed {seed}: {err}");
        assert!(lease.fencing_rejections() >= 1);
    }
    let mut after = sink.snapshot();
    after.sort();
    assert_eq!(after, expected, "seed {seed}: a zombie write reached the sink");
    failovers
}

#[test]
fn failover_drill_converges_across_seeds() {
    let expected = reference();
    assert!(!expected.is_empty());
    let mut failovers = 0;
    for seed in [7, 21, 42, 1337] {
        failovers += drill(seed, &expected);
    }
    // The pool must actually be lethal across the seed set.
    assert!(failovers >= 3, "only {failovers} failovers across 4 seeds");
}

#[test]
fn replica_alone_restarts_the_query_at_the_committed_epoch() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let (_, clock) = fake_clock();

    let mut leader = build_participant(
        bus.clone(),
        sink.clone(),
        primary,
        replica.clone(),
        "leader-0",
        clock,
        false,
    )
    .unwrap();
    feed(&bus, 3 * WAVE, 0);
    leader.engine.process_available().unwrap();
    let committed_epoch = leader.engine.current_epoch();
    assert!(committed_epoch >= 2);

    // The primary volume is gone. A fresh engine over the replica
    // alone recovers to the exact committed epoch and keeps going.
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
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
    let mut eng2 = MicroBatchExecution::new(
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink.clone(),
        OutputMode::Update,
        replica,
        MicroBatchConfig {
            max_records_per_trigger: Some(7),
            adaptive_batching: false,
            checkpoint_interval: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(eng2.current_epoch(), committed_epoch);
    feed(&bus, WAVE, 3 * WAVE);
    eng2.process_available().unwrap();
    assert!(eng2.current_epoch() > committed_epoch);
}

#[test]
fn scrubber_repairs_a_diverged_replica() {
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let repl = ReplicatedBackend::new(primary.clone(), replica.clone());
    repl.write_atomic("wal/offsets/epoch-1.json", b"{\"a\":1}").unwrap();
    repl.write_atomic("state/chk-1.json", b"{\"b\":2}").unwrap();

    // Divergence: the replica loses a key, gains a stray one, and has
    // a third silently corrupted.
    replica.delete("wal/offsets/epoch-1.json").unwrap();
    replica.write_atomic("stray.json", b"junk").unwrap();
    replica.write_atomic("state/chk-1.json", b"{\"b\":999}").unwrap();

    let report = repl.scrub().unwrap();
    assert!(
        report.copied_to_replica >= 2,
        "missing/diverged keys not repaired: {report:?}"
    );
    assert!(
        report.deleted_from_replica >= 1,
        "stray key not deleted: {report:?}"
    );
    assert_eq!(
        replica.read("wal/offsets/epoch-1.json").unwrap().unwrap(),
        b"{\"a\":1}".to_vec()
    );
    assert_eq!(
        replica.read("state/chk-1.json").unwrap().unwrap(),
        b"{\"b\":2}".to_vec()
    );
    assert!(replica.read("stray.json").unwrap().is_none());
}
