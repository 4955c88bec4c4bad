//! Soak under sustained 2× overload, on real or virtual time.
//!
//! A windowed aggregation runs behind a throttled sink while a
//! producer feeds twice whatever the query managed to admit last
//! epoch — by construction the query can never catch up. For the
//! configured duration the test samples epoch latency and state
//! memory, then fails if either diverges: latency must not trend
//! upward (admission keeps epochs constant-size) and in-memory state
//! must stay under the soft budget (spill keeps it there). The input
//! topic itself is bounded with a `DropOldest` policy, so process
//! memory as a whole is bounded too — the backlog that matters lives
//! in the (shedding) bus, not the engine.
//!
//! The scenario is clock-parameterized and runs twice:
//!
//! * `soak_overload_stays_bounded_virtual_time` — always on. The
//!   engine and the throttled sink share a seeded [`SimClock`]
//!   (`SS_SIM_SEED` picks the seed), so the sink's per-commit stall
//!   and every latency sample happen in virtual microseconds and the
//!   whole soak completes in a wall instant.
//! * `soak_overload_stays_bounded` — the original wall-clock variant,
//!   still gated on `SS_SOAK_SECS` (unset or zero skips it; CI runs
//!   it with a small value).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use structured_streaming::prelude::*;
use structured_streaming::ss_bus::{OverflowPolicy, TopicConfig};
use structured_streaming::ss_common::{ClockRef, MetricValue, Result as SsResult, SimClock};
use structured_streaming::ss_core::microbatch::{
    EpochRun, MemoryBudget, MicroBatchConfig, MicroBatchExecution,
};
use structured_streaming::ss_core::RateControllerConfig;
use structured_streaming::ss_exec::MemoryCatalog;
use structured_streaming::ss_state::StateStore;

struct SlowSink {
    inner: Arc<MemorySink>,
    delay_us: AtomicU64,
    clock: ClockRef,
}

impl Sink for SlowSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> SsResult<()> {
        let d = self.delay_us.load(Ordering::SeqCst);
        if d > 0 {
            self.clock.sleep(Duration::from_micros(d));
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

fn feed(bus: &MessageBus, n: u64, start: u64) {
    for i in start..start + n {
        bus.append(
            "in",
            0,
            vec![row![
                format!("k{}", i % 7),
                i as i64,
                Value::Timestamp(i as i64 * 250_000)
            ]],
        )
        .unwrap();
    }
}

const SOFT_LIMIT: usize = 2 * 1024;

/// The soak query — 10 s windows × key under a watermark `delay`
/// behind, Update mode — on an in-memory checkpoint.
fn start(
    bus: &Arc<MessageBus>,
    sink: Arc<dyn Sink>,
    delay: &str,
    config: MicroBatchConfig,
    backend: Arc<MemoryBackend>,
) -> MicroBatchExecution {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap();
    let plan = ctx
        .table("in")
        .unwrap()
        .with_watermark("time", delay)
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
        "soak",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink,
        OutputMode::Update,
        backend,
        config,
    )
    .unwrap()
}

fn median(mut xs: Vec<i64>) -> i64 {
    xs.sort_unstable();
    if xs.is_empty() {
        0
    } else {
        xs[xs.len() / 2]
    }
}

/// How long to keep the producer outrunning the consumer.
enum SoakRun {
    /// Until the wall deadline passes (the real-time soak).
    Wall(Duration),
    /// For a fixed number of non-idle epochs (the virtual-time soak —
    /// virtual clocks have no independent notion of "long enough").
    Epochs(usize),
}

/// The soak scenario proper: every timed ingredient — the engine's
/// epoch stamps and the sink's injected stall — reads `clock`, so the
/// same invariants hold whether `clock` is the system clock or a
/// seeded virtual one.
fn run_soak(clock: ClockRef, run: SoakRun) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic_with(
        "in",
        TopicConfig {
            partitions: 1,
            capacity: Some(5_000),
            overflow: OverflowPolicy::DropOldest,
        },
    )
    .unwrap();
    let mem = MemorySink::new("out");
    let sink = Arc::new(SlowSink {
        inner: mem.clone(),
        delay_us: AtomicU64::new(2_000),
        clock: clock.clone(),
    });

    let config = MicroBatchConfig {
        max_records_per_trigger: Some(64),
        adaptive_batching: false,
        checkpoint_interval: 1,
        rate_controller: Some(RateControllerConfig {
            min_rate: 16.0,
            batch_interval_us: 2_000,
        }),
        state_budget: MemoryBudget {
            soft_limit_bytes: Some(SOFT_LIMIT),
            hard_limit_bytes: None,
        },
        clock: clock.clone(),
        ..Default::default()
    };
    let mut eng = start(&bus, sink, "30 seconds", config, Arc::new(MemoryBackend::new()));

    let deadline = match &run {
        SoakRun::Wall(d) => Some(Instant::now() + *d),
        SoakRun::Epochs(_) => None,
    };
    let target_epochs = match &run {
        SoakRun::Wall(_) => usize::MAX,
        SoakRun::Epochs(n) => *n,
    };
    let mut fed: u64 = 0;
    let mut last_admitted: u64 = 32;
    let mut durations: Vec<i64> = Vec::new();
    let mut state_bytes: Vec<u64> = Vec::new();
    while durations.len() < target_epochs
        && deadline.is_none_or(|d| Instant::now() < d)
    {
        // 2× whatever the query actually absorbed last epoch: the
        // producer outruns the consumer by construction.
        feed(&bus, (2 * last_admitted).max(32), fed);
        fed += (2 * last_admitted).max(32);
        match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => {
                last_admitted = p.admitted_rows.max(1);
                durations.push(p.batch_duration_us);
                state_bytes.push(p.state_bytes);
            }
            EpochRun::Idle => {}
        }
    }
    let epochs = durations.len();
    assert!(epochs >= 8, "soak too short to be meaningful ({epochs} epochs)");

    // Latency must not diverge: the second half of the run is no worse
    // than a small constant factor over the first half.
    let half = epochs / 2;
    let first = median(durations[..half].to_vec());
    let second = median(durations[half..].to_vec());
    assert!(
        second <= first * 5 + 10_000,
        "epoch latency diverged: median {first}us -> {second}us over {epochs} epochs"
    );

    // Memory must not diverge: every sampled epoch ends under the soft
    // state budget (spill keeps trimming), and the bounded input topic
    // can never exceed its capacity.
    let worst = state_bytes.iter().copied().max().unwrap_or(0);
    assert!(
        worst <= SOFT_LIMIT as u64,
        "state memory exceeded the soft budget: {worst}B > {SOFT_LIMIT}B"
    );
    assert!(bus.retained_records("in").unwrap() <= 5_000);

    // The overload machinery demonstrably engaged.
    match eng.metrics().value("ss_state_spills_total", &[]) {
        Some(MetricValue::Counter(n)) => assert!(n >= 1, "soak never spilled"),
        other => panic!("missing spill counter: {other:?}"),
    }
    assert!(
        eng.progress()
            .all()
            .any(|p| p.rate_limit.is_some() && p.backlog_rows > 0),
        "soak never rate-limited"
    );
    eprintln!(
        "soak ok: {epochs} epochs, median latency {first}us/{second}us, peak state {worst}B, shed {}",
        bus.shed_records("in").unwrap()
    );
}

/// Always-on soak: the whole overload run happens in virtual time, so
/// regular CI exercises the latency/memory invariants on every push
/// without spending wall-clock seconds. `SS_SIM_SEED` reseeds the
/// virtual clock for a different (still deterministic) schedule.
#[test]
fn soak_overload_stays_bounded_virtual_time() {
    let seed: u64 = std::env::var("SS_SIM_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x50AC);
    let sim = SimClock::new(seed);
    let started = Instant::now();
    run_soak(sim.handle(), SoakRun::Epochs(64));
    let wall_us = started.elapsed().as_micros().max(1) as u64;
    let virtual_us = sim.now_us();
    eprintln!(
        "virtual soak: seed {seed}, {virtual_us}us virtual in {wall_us}us wall ({}x)",
        virtual_us / wall_us
    );
}

/// State plateaus under a steady watermark (ROADMAP item 10, the
/// benchmark's "state shrank" invariant made exact): one epoch per
/// 10 s window over the same seven keys, and after every epoch —
/// hence after every eviction — `state_rows` *and* `state_bytes` are
/// back at the steady-state baseline, for 200 windows. The checkpoints
/// plateau with them (one delta shape, one full shape: the entries and
/// removed keys of each namespace), so neither the removed-key list nor
/// the unsaved list is growing either.
#[test]
fn state_returns_to_baseline_after_every_window_virtual_time() {
    const WINDOWS: u64 = 200;
    const WARM_UP: usize = 4;
    const PER_WINDOW: u64 = 28;
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let config = MicroBatchConfig {
        clock: SimClock::new(0x50AC).handle(),
        ..Default::default()
    };
    let backend = Arc::new(MemoryBackend::new());
    let mut eng =
        start(&bus, MemorySink::new("out"), "10 seconds", config, backend.clone());
    // A checkpoint's shape: its kind, its entries and its removed keys
    // (over all namespaces, however many shards hold the groups).
    let shape = |epoch: u64| {
        let dump = StateStore::new(backend.clone()).dump_json(epoch).unwrap();
        let dump: serde_json::Value = serde_json::from_str(&dump).unwrap();
        let ops = dump.get("ops").and_then(|ops| ops.as_array()).unwrap();
        let len = |list| {
            let len = |op: &serde_json::Value| op.get(list).and_then(|l| l.as_array()).unwrap().len();
            ops.iter().map(len).sum::<usize>()
        };
        (dump.get("kind").unwrap().to_string(), len("entries"), len("removed"))
    };
    let mut samples = Vec::new();
    let mut shapes = std::collections::BTreeSet::new();
    for w in 0..WINDOWS {
        // 28 rows 250 ms apart: exactly window `w`.
        feed(&bus, PER_WINDOW, w * 40);
        let EpochRun::Ran(p) = eng.run_epoch().unwrap() else { panic!("window {w} ran no epoch") };
        samples.push((p.state_rows, p.state_bytes));
        if samples.len() > WARM_UP {
            shapes.insert(shape(p.epoch));
        }
    }
    let baseline = samples[WARM_UP];
    assert!(baseline.0 >= 7 && baseline.1 > 0, "{baseline:?}");
    for (w, sample) in samples.iter().enumerate().skip(WARM_UP) {
        assert_eq!(*sample, baseline, "state did not return to its baseline after window {w}");
    }
    assert!(shapes.len() <= 2, "checkpoints keep changing shape: {shapes:?}");
    let live_windows = baseline.0 / 7;
    match eng.metrics().value("ss_state_evictions_total", &[]) {
        Some(MetricValue::Counter(n)) => assert_eq!(n, 7 * (WINDOWS - live_windows)),
        other => panic!("missing evictions counter: {other:?}"),
    }
}

/// The original wall-clock soak, opt-in: unset or zero `SS_SOAK_SECS`
/// skips it (the default for the fast tier-1 suite); CI runs it with a
/// small value.
#[test]
fn soak_overload_stays_bounded() {
    let secs: u64 = match std::env::var("SS_SOAK_SECS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("soak skipped; set SS_SOAK_SECS=<seconds> to run");
            return;
        }
    };
    run_soak(
        structured_streaming::ss_common::system_clock(),
        SoakRun::Wall(Duration::from_secs(secs)),
    );
}
