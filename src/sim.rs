//! Deterministic whole-system simulation: seeded chaos exploration on
//! virtual time.
//!
//! One `u64` seed fully determines a chaos schedule over a complete
//! HA deployment — a lease-fenced leader, a warm standby, replicated
//! checkpoint backends and a sink the engine fences — running under a
//! [`SimClock`]. The seed drives three streams:
//!
//! * **fault arming** — which failpoint, which mode (fatal error,
//!   transient error, hang) and how many passes to skip before firing;
//! * **virtual-clock waiter ordering** — same-instant timers release
//!   in a seed-drawn order, so backoffs, lease lapses and watchdog
//!   firings interleave reproducibly;
//! * **retry jitter** — the engine's decorrelated-jitter backoff is
//!   seeded from the scenario seed.
//!
//! Every observable step lands in a virtual-time-stamped trace. The
//! same seed replays the same trace byte for byte (serial execution;
//! data-parallel runs keep the same *outcomes* but may shift poll
//! timestamps), so a failing seed printed by the sweep in
//! `tests/sim.rs` is a complete reproduction recipe:
//! `SS_SIM_SEED=<seed> cargo test --test sim`.
//!
//! Wall-clock cost is decoupled from simulated time: lease lapses
//! (160ms), watchdog windows (seconds) and backoff schedules all
//! elapse by advancing the virtual clock, so a seed exploring minutes
//! of failure schedule runs in milliseconds.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use crate::prelude::*;
use ss_common::{SimClock, XorShift64};
use ss_core::ha::{HaConfig, StandbyStatus};
use ss_core::microbatch::{failpoints, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_state::CheckpointBackend;

const TOTAL_ROWS: u64 = 60;
const WAVE: u64 = 10;

/// Fatal failpoints: an epoch dying here kills the leader and forces
/// a standby takeover.
const LETHAL: &[&str] = &[
    failpoints::AFTER_OFFSET_WRITE,
    failpoints::AFTER_SINK_WRITE,
    failpoints::AFTER_COMMIT_WRITE,
    ss_wal::failpoints::OFFSETS_APPEND,
    ss_wal::failpoints::COMMITS_APPEND,
    ss_state::store::failpoints::CHECKPOINT_WRITE,
];

/// Recoverable failpoints: transient errors retry under seeded
/// backoff; hangs stall until the epoch watchdog releases them.
const RECOVERABLE: &[&str] = &[failpoints::SOURCE_READ, failpoints::SINK_COMMIT];

/// What one seeded chaos run did, plus the full virtual-stamped trace.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Virtual-time-stamped event log; byte-identical across runs of
    /// the same seed (serial execution).
    pub trace: String,
    /// Final virtual clock reading: how much simulated time the
    /// schedule covered.
    pub virtual_us: u64,
    /// Committed epochs on the final leader.
    pub epochs: u64,
    /// Leader deaths survived by standby takeover.
    pub failovers: u32,
    /// Dead incarnations whose durable writes were all fenced.
    pub fenced_zombies: u32,
}

struct Trace {
    clock: SimClock,
    out: String,
}

impl Trace {
    fn rec(&mut self, msg: &str) {
        let _ = writeln!(self.out, "[{:>10}us] {msg}", self.clock.now_us());
    }
}

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

fn plan_and_sources(
    bus: Arc<MessageBus>,
    faults: Option<FaultRegistry>,
) -> (Arc<ss_plan::LogicalPlan>, HashMap<String, Arc<dyn Source>>) {
    let ctx = StreamingContext::new();
    let source = BusSource::new(bus, "in", schema()).unwrap();
    let source = match faults {
        Some(f) => source.with_faults(f),
        None => source,
    };
    ctx.read_source(Arc::new(source)).unwrap();
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
    (plan, sources)
}

/// The crash-free result over the same input: no HA, no faults, no
/// virtual clock — the exactly-once oracle every chaos run must match.
fn reference() -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let sink = MemorySink::new("ref");
    let (plan, sources) = plan_and_sources(bus.clone(), None);
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

struct Participant {
    engine: MicroBatchExecution,
    lease: Arc<LeaseManager>,
    faults: FaultRegistry,
}

#[allow(clippy::too_many_arguments)]
fn build_participant(
    bus: Arc<MessageBus>,
    sink: Arc<MemorySink>,
    primary: Arc<dyn CheckpointBackend>,
    replica: Arc<dyn CheckpointBackend>,
    holder: &str,
    sim: &SimClock,
    seed: u64,
    parallelism: Option<usize>,
    standby: bool,
) -> Participant {
    let lease = Arc::new(LeaseManager::with_clock(
        primary.clone(),
        holder,
        Duration::from_millis(100),
        Duration::from_millis(50),
        sim.handle(),
    ));
    let faults = FaultRegistry::new();
    let config = MicroBatchConfig {
        max_records_per_trigger: Some(7),
        adaptive_batching: false,
        checkpoint_interval: 2,
        faults: faults.clone(),
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(80),
            budget: Duration::from_secs(30),
            seed,
        },
        // A wedged (hung) epoch releases after 2 virtual seconds.
        epoch_deadline: Some(Duration::from_secs(2)),
        clock: sim.handle(),
        parallelism: parallelism
            .unwrap_or_else(|| MicroBatchConfig::default().parallelism),
        ha: Some(HaConfig {
            lease: lease.clone(),
            replica: Some(replica),
        }),
        ..Default::default()
    };
    let (plan, sources) = plan_and_sources(bus, Some(faults.clone()));
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
        primary,
        config,
    )
    .unwrap();
    Participant {
        engine,
        lease,
        faults,
    }
}

/// Run the combined crash/hang/fence/promotion scenario for one seed,
/// honouring `SS_PARALLELISM` for the engines' execution mode.
pub fn run_chaos(seed: u64) -> SimReport {
    run(seed, None)
}

/// Same scenario pinned to serial epoch execution: with a single
/// driver thread every virtual timestamp is a pure function of the
/// seed, so two runs produce byte-identical traces.
pub fn run_chaos_serial(seed: u64) -> SimReport {
    run(seed, Some(1))
}

fn run(seed: u64, parallelism: Option<usize>) -> SimReport {
    let expected = reference();
    assert!(!expected.is_empty(), "empty oracle run");

    let sim = SimClock::new(seed);
    let mut rng = XorShift64::new(seed ^ 0x5EED_CAFE);
    let mut trace = Trace {
        clock: sim.clone(),
        out: String::new(),
    };
    trace.rec(&format!("chaos run: seed {seed}"));

    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");

    let mut holder = 0u32;
    let p0 = build_participant(
        bus.clone(),
        sink.clone(),
        primary.clone(),
        replica.clone(),
        &format!("leader-{holder}"),
        &sim,
        seed,
        parallelism,
        false,
    );
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
        &sim,
        seed,
        parallelism,
        true,
    );
    let mut standby_faults = s0.faults;
    let mut standby = s0.engine;
    let _ = standby.standby_tick(); // observe the lease before any failure

    // Arm a seeded fault: lethal errors force failovers, transient
    // errors exercise seeded backoff, hangs exercise the watchdog.
    let arm = |faults: &FaultRegistry, rng: &mut XorShift64, trace: &mut Trace| {
        let (point, mode, label) = match rng.gen_range(0, 4) {
            0 => {
                let p = RECOVERABLE[rng.gen_range(0, RECOVERABLE.len() as u64) as usize];
                (p, FaultMode::TransientError, "transient")
            }
            1 => {
                let p = RECOVERABLE[rng.gen_range(0, RECOVERABLE.len() as u64) as usize];
                (p, FaultMode::Hang, "hang")
            }
            _ => {
                let p = LETHAL[rng.gen_range(0, LETHAL.len() as u64) as usize];
                (p, FaultMode::Error, "lethal")
            }
        };
        let skip = rng.gen_range(0, 4);
        faults.configure(point, FaultTrigger::Once { skip }, mode);
        trace.rec(&format!("armed {label} fault at {point}, skip {skip}"));
    };
    arm(&leader_faults, &mut rng, &mut trace);

    let mut zombies: Vec<(MicroBatchExecution, Arc<LeaseManager>, FaultRegistry)> = Vec::new();
    let mut failovers = 0u32;
    let mut fed = 0u64;
    loop {
        // One trigger interval of quiet virtual time between rounds:
        // hours of schedule cost nothing on the wall clock.
        sim.advance(Duration::from_secs(1));
        if fed < TOTAL_ROWS {
            feed(&bus, WAVE, fed);
            fed += WAVE;
            trace.rec(&format!("fed {WAVE} rows ({fed}/{TOTAL_ROWS})"));
        }
        match leader_engine.process_available() {
            Ok(_) => {
                trace.rec(&format!(
                    "leader committed through epoch {}, sink rows {}",
                    leader_engine.current_epoch(),
                    sink.snapshot().len()
                ));
                if fed >= TOTAL_ROWS {
                    break;
                }
            }
            Err(e) => {
                assert!(
                    !matches!(e, SsError::Fenced(_)),
                    "seed {seed}: live leader was fenced: {e}"
                );
                trace.rec(&format!("leader died: {e}"));
                failovers += 1;
                assert!(failovers < 16, "seed {seed}: drill did not converge");
                // The standby observes the dead leader's final lease
                // write, then the leader goes silent past ttl + grace.
                let _ = standby.standby_tick();
                sim.advance(Duration::from_micros(160_000));
                trace.rec("advanced 160000us past lease ttl+grace");
                let mut lapsed = false;
                for _ in 0..2 {
                    if let StandbyStatus::LeaderLapsed { .. } = standby.standby_tick().unwrap() {
                        lapsed = true;
                        break;
                    }
                }
                assert!(lapsed, "seed {seed}: lease lapse not observed in 2 ticks");
                trace.rec("standby observed the lease lapse");
                standby.promote().unwrap();
                let promoted_lease = standby.ha().unwrap().lease.clone();
                trace.rec(&format!(
                    "standby-{holder} promoted at epoch {}",
                    standby.current_epoch()
                ));
                // The promoted standby leads; the dead leader waits in
                // `standby` until the next standby replaces it.
                std::mem::swap(&mut leader_engine, &mut standby);
                let zombie_lease = std::mem::replace(&mut leader_lease, promoted_lease);
                let zombie_faults = std::mem::replace(&mut leader_faults, standby_faults.clone());
                holder += 1;
                let next = build_participant(
                    bus.clone(),
                    sink.clone(),
                    primary.clone(),
                    replica.clone(),
                    &format!("standby-{holder}"),
                    &sim,
                    seed,
                    parallelism,
                    true,
                );
                standby_faults = next.faults;
                let zombie = std::mem::replace(&mut standby, next.engine);
                zombies.push((zombie, zombie_lease, zombie_faults));
                let _ = standby.standby_tick();
            }
        }
        // Keep the chaos coming until the drill has proven a few
        // takeovers, then let the run drain.
        if failovers < 3 {
            arm(&leader_faults, &mut rng, &mut trace);
        }
        let _ = standby.standby_tick(); // warm standby keeps following
    }
    let _ = leader_lease;

    let mut rows = sink.snapshot();
    rows.sort();
    assert_eq!(
        rows, expected,
        "seed {seed}: chaos run diverged from the clean run"
    );
    trace.rec(&format!("exactly-once holds: {} sink rows", rows.len()));

    // Feed a sentinel wave only the zombies will try to process, then
    // resume each dead incarnation: every durable write must fence.
    feed(&bus, WAVE, TOTAL_ROWS);
    let mut fenced_zombies = 0u32;
    for (z, lease, faults) in &mut zombies {
        // Residual armed-but-unfired faults are the dead leader's
        // baggage; the probe is about fencing, not more chaos.
        faults.clear();
        let err = match z.process_available() {
            Err(e) => e,
            Ok(_) => panic!("seed {seed}: zombie ran an epoch unfenced"),
        };
        match &err {
            SsError::Fenced(_) => {
                assert!(lease.fencing_rejections() >= 1);
            }
            // A zombie whose lease was already marked fenced skips the
            // renewal check and runs into the WAL's prefix-consistency
            // guard instead: divergent offsets content is rejected
            // before any durable write. Equally safe; record which
            // defense fired.
            SsError::Execution(m) if m.contains("already has different content") => {}
            other => panic!("seed {seed}: zombie died unsafely: {other}"),
        }
        fenced_zombies += 1;
        trace.rec(&format!("zombie {} stopped: {err}", lease.holder()));
    }
    let mut after = sink.snapshot();
    after.sort();
    assert_eq!(
        after, expected,
        "seed {seed}: a zombie write reached the sink"
    );

    let virtual_us = sim.now_us();
    trace.rec(&format!(
        "done: {failovers} failovers, {fenced_zombies} zombies fenced, {virtual_us}us simulated"
    ));
    SimReport {
        seed,
        virtual_us,
        epochs: leader_engine.current_epoch(),
        failovers,
        fenced_zombies,
        trace: trace.out,
    }
}
