//! Take-over parity: however a checkpoint changes hands, the result is
//! the fault-free run.
//!
//! The engine has one take-over routine and three ways into it — a
//! fresh process (`MicroBatchExecution::new`), an in-place `restart()`,
//! and a standby's `promote()` (from a standby that never ticked, or
//! one that caught up read-only first). The matrix below crashes a
//! windowed Update aggregation at each point of the epoch protocol,
//! takes the checkpoint over each of the four ways, and requires the
//! sink, the dead-letter queue, `current_epoch`, `positions`,
//! `state_rows` and the next three epochs' output to be identical
//! across all four and equal to a run that never failed.
//!
//! A second suite pins what makes the read-only way safe: a standby
//! tailing a live leader's checkpoint never writes to it.
//!
//! Runs on the serial path by default and on the data-parallel path
//! under `SS_PARALLELISM=4` (the CI failover job runs both).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use ss_bus::{DeadLetterQueue, DeadLetterRecord};
use ss_common::{ClockRef, Column, ErrorPolicy, PartitionOffsets, SimClock};
use ss_core::ha::HaConfig;
use ss_core::microbatch::{failpoints, EpochRun, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_expr::expr::{Expr, ScalarUdf};
use ss_state::{CheckpointBackend, MemoryBudget};
use ss_wal::LeaseManager;
use structured_streaming::prelude::*;

const WAVE: u64 = 10;
/// Waves fed (and drained) before the incarnation that crashes starts.
const WARMUP_WAVES: u64 = 3;
/// Waves fed in one go once it has: enough backlog that the crash
/// epoch and the three after it are all cut by the batch cap, so their
/// boundaries do not depend on when the crash happened.
const BACKLOG_WAVES: u64 = 4;

/// The validation UDF panics on negative values; the poison variant
/// feeds one, as the first row of the backlog — i.e. in the first epoch
/// after warm-up.
const POISON: i64 = -1;
const POISON_AT: u64 = WARMUP_WAVES * WAVE;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn feed(bus: &MessageBus, waves: std::ops::Range<u64>, poison: bool) {
    for i in waves.start * WAVE..waves.end * WAVE {
        let key = format!("k{}", i % 5);
        let v = if poison && i == POISON_AT { POISON } else { i as i64 };
        bus.append(
            "in",
            (i % 2) as u32,
            vec![row![key, v, Value::Timestamp(i as i64 * 1_000_000)]],
        )
        .unwrap();
    }
}

/// A predicate that accepts every row but panics on a negative value.
fn validate_expr() -> Expr {
    let udf = ScalarUdf {
        name: "validate".into(),
        return_type: DataType::Boolean,
        func: Arc::new(|cols: &[Column]| {
            let vs = match &cols[0] {
                Column::Int64(c) => c.values(),
                other => panic!("validate: unexpected column {other:?}"),
            };
            if let Some(v) = vs.iter().find(|&&v| v < 0) {
                panic!("malformed record: v={v}");
            }
            Column::from_values(DataType::Boolean, &vec![Value::Boolean(true); vs.len()])
        }),
    };
    Expr::Udf {
        udf,
        args: vec![col("v")],
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    /// Checkpoint every epoch, clean input.
    Plain,
    /// A poison record in the crashing epoch, under
    /// `ErrorPolicy::Quarantine`.
    Poison,
    /// Checkpoint every third epoch: the take-over replays up to two
    /// committed epochs on top of the restored state.
    SparseCheckpoints,
}

/// Everything that outlives an incarnation: the input log, the
/// checkpoint, the sink, the dead-letter topic and the lease clock.
struct World {
    bus: Arc<MessageBus>,
    backend: Arc<dyn CheckpointBackend>,
    sink: Arc<MemorySink>,
    dlq: Arc<DeadLetterQueue>,
    sim: SimClock,
    clock: ClockRef,
}

impl World {
    fn new() -> World {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let sim = SimClock::new(0);
        World {
            bus,
            backend: Arc::new(MemoryBackend::new()),
            sink: MemorySink::new("out"),
            dlq: DeadLetterQueue::new(),
            clock: sim.handle(),
            sim,
        }
    }

    fn lease(&self, holder: &str) -> Arc<LeaseManager> {
        Arc::new(LeaseManager::with_clock(
            self.backend.clone(),
            holder,
            Duration::from_millis(100),
            Duration::from_millis(50),
            self.clock.clone(),
        ))
    }

    fn config(&self, variant: Variant, holder: &str, faults: FaultRegistry) -> MicroBatchConfig {
        MicroBatchConfig {
            max_records_per_trigger: Some(7),
            adaptive_batching: false,
            checkpoint_interval: if variant == Variant::SparseCheckpoints { 3 } else { 1 },
            faults,
            retry: RetryPolicy::immediate(3),
            error_policy: if variant == Variant::Poison {
                ErrorPolicy::Quarantine { max_per_epoch: 4 }
            } else {
                ErrorPolicy::Fail
            },
            dlq: Some(self.dlq.clone()),
            ha: Some(HaConfig::new(self.lease(holder))),
            ..Default::default()
        }
    }

    /// A leader (or, with `standby`, a warm standby) over this world's
    /// storage, reading the checkpoint through `backend`.
    fn engine(
        &self,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
        standby: bool,
    ) -> Result<MicroBatchExecution, SsError> {
        let ctx = StreamingContext::new();
        ctx.read_source(Arc::new(
            BusSource::new(self.bus.clone(), "in", schema())?.with_faults(config.faults.clone()),
        ))?;
        let plan = ctx
            .table("in")
            .unwrap()
            .with_watermark("time", "20 seconds")?
            .filter(validate_expr())
            .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
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
        build(
            "q",
            &plan,
            sources,
            Arc::new(MemoryCatalog::new()),
            self.sink.clone(),
            OutputMode::Update,
            backend,
            config,
        )
    }

    /// Feed and drain the warm-up waves on a first incarnation, then
    /// drop it cleanly: what follows is a later run over a checkpoint
    /// that already has history (and already has its manifest).
    fn warm_up(&self, variant: Variant) {
        let config = self.config(variant, "node-a", FaultRegistry::new());
        let mut eng = self.engine(self.backend.clone(), config, false).unwrap();
        for wave in 0..WARMUP_WAVES {
            feed(&self.bus, wave..wave + 1, false);
            eng.process_available().unwrap();
        }
    }

    fn feed_backlog(&self, variant: Variant) {
        let waves = WARMUP_WAVES..WARMUP_WAVES + BACKLOG_WAVES;
        feed(&self.bus, waves, variant == Variant::Poison);
    }

    fn observe(&self, eng: &MicroBatchExecution) -> Observed {
        let mut sink = self.sink.snapshot();
        sink.sort();
        Observed {
            sink,
            dlq: self.dlq.snapshot(),
            epoch: eng.current_epoch(),
            positions: eng.positions().iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            state_rows: eng.state_rows(),
        }
    }
}

/// What the matrix compares after an epoch.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    sink: Vec<Row>,
    dlq: Vec<DeadLetterRecord>,
    epoch: u64,
    positions: BTreeMap<String, PartitionOffsets>,
    state_rows: u64,
}

/// The run that never fails: the same warm-up, a second incarnation,
/// the same backlog, observed after every epoch.
fn fault_free(variant: Variant) -> BTreeMap<u64, Observed> {
    let world = World::new();
    world.warm_up(variant);
    let config = world.config(variant, "node-a", FaultRegistry::new());
    let mut eng = world.engine(world.backend.clone(), config, false).unwrap();
    world.feed_backlog(variant);
    let mut after = BTreeMap::new();
    while let EpochRun::Ran(p) = eng.run_epoch().unwrap() {
        after.insert(p.epoch, world.observe(&eng));
    }
    after
}

#[derive(Debug, Clone, Copy)]
enum Way {
    /// `restart()` on the engine that crashed.
    RestartInPlace,
    /// A fresh `MicroBatchExecution::new` over the checkpoint.
    FreshProcess,
    /// `promote()` of a standby that never ticked.
    PromoteCold,
    /// `promote()` of a standby that caught up to the last commit.
    PromoteWarm,
}

/// Crash the second incarnation at `point`, take the checkpoint over
/// `way`, and return what stands right after the take-over plus after
/// each of the next three epochs.
fn crash_and_take_over(variant: Variant, point: &str, way: Way) -> Vec<Observed> {
    let world = World::new();
    world.warm_up(variant);
    let faults = FaultRegistry::new();
    faults.configure(point, FaultTrigger::Once { skip: 0 }, FaultMode::Error);
    let mut crashed = world
        .engine(world.backend.clone(), world.config(variant, "node-a", faults.clone()), false)
        .unwrap();
    world.feed_backlog(variant);
    let err = loop {
        match crashed.run_epoch() {
            Ok(EpochRun::Ran(_)) => {}
            Ok(EpochRun::Idle) => panic!("{point} never fired ({variant:?})"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains(point), "crashed elsewhere: {err}");
    assert_eq!(faults.hits(point), 1);

    let mut taken = match way {
        Way::RestartInPlace => {
            crashed.restart().unwrap();
            crashed
        }
        Way::FreshProcess => {
            drop(crashed);
            let config = world.config(variant, "node-a", FaultRegistry::new());
            world.engine(world.backend.clone(), config, false).unwrap()
        }
        Way::PromoteCold | Way::PromoteWarm => {
            drop(crashed);
            let config = world.config(variant, "node-b", FaultRegistry::new());
            let mut standby = world.engine(world.backend.clone(), config, true).unwrap();
            if matches!(way, Way::PromoteWarm) {
                standby.standby_catch_up().unwrap();
                assert!(standby.current_epoch() > 0, "the warm standby did not follow");
            } else {
                assert_eq!(standby.current_epoch(), 0);
            }
            // Start watching the dead leader's lease, then let it lapse.
            let lease = standby.ha().unwrap().lease.clone();
            assert!(!lease.is_lapsed().unwrap());
            world.sim.advance(Duration::from_millis(160));
            standby.promote().unwrap();
            standby
        }
    };
    let mut observed = vec![world.observe(&taken)];
    for _ in 0..3 {
        match taken.run_epoch().unwrap() {
            EpochRun::Ran(_) => observed.push(world.observe(&taken)),
            EpochRun::Idle => panic!("backlog ran out before three more epochs"),
        }
    }
    observed
}

const CRASH_POINTS: &[&str] = &[
    failpoints::AFTER_OFFSET_WRITE,
    failpoints::AFTER_SINK_WRITE,
    failpoints::AFTER_COMMIT_WRITE,
    ss_state::store::failpoints::CHECKPOINT_WRITE,
    failpoints::MANIFEST_WRITE,
];

const WAYS: &[Way] = &[
    Way::RestartInPlace,
    Way::FreshProcess,
    Way::PromoteCold,
    Way::PromoteWarm,
];

/// Contained poison panics are the scenario, not a failure: keep them
/// off stderr, and every other panic (a failed assertion) on it.
fn quiet_poison_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains("malformed record") {
                default(info);
            }
        }));
    });
}

fn parity(variant: Variant) {
    quiet_poison_panics();
    let reference = fault_free(variant);
    for &point in CRASH_POINTS {
        let runs: Vec<Vec<Observed>> = WAYS
            .iter()
            .map(|&way| crash_and_take_over(variant, point, way))
            .collect();
        for (way, run) in WAYS.iter().zip(&runs) {
            assert_eq!(
                run, &runs[0],
                "{variant:?}, crash at {point}: {way:?} diverged from {:?}",
                WAYS[0]
            );
        }
        let first = runs[0][0].epoch;
        for (i, got) in runs[0].iter().enumerate() {
            let want = reference
                .get(&(first + i as u64))
                .unwrap_or_else(|| panic!("fault-free run has no epoch {}", first + i as u64));
            assert_eq!(
                got, want,
                "{variant:?}, crash at {point}: epoch {} differs from the fault-free run",
                first + i as u64
            );
        }
    }
}

#[test]
fn take_over_parity_checkpoint_every_epoch() {
    parity(Variant::Plain);
}

#[test]
fn take_over_parity_poison_in_the_in_flight_epoch() {
    quiet_poison_panics();
    let reference = fault_free(Variant::Poison);
    // The scenario is what it claims: exactly the one poison record is
    // dead-lettered, by the first epoch after warm-up.
    let last = reference.values().last().unwrap();
    assert_eq!(last.dlq.len(), 1, "{:?}", last.dlq);
    assert!(last.dlq[0].row_json.contains(&format!("\"v\":{POISON}")));
    assert_eq!(last.dlq[0].epoch, *reference.keys().next().unwrap());
    parity(Variant::Poison);
}

#[test]
fn take_over_parity_checkpoint_every_third_epoch() {
    parity(Variant::SparseCheckpoints);
}

/// A checkpoint backend that may be read but never written: any
/// `write_atomic` or `delete` fails the test on the spot.
struct ReadOnly(Arc<dyn CheckpointBackend>);

impl CheckpointBackend for ReadOnly {
    fn write_atomic(&self, key: &str, _data: &[u8]) -> ss_common::Result<()> {
        panic!("a read-only standby wrote `{key}`");
    }
    fn read(&self, key: &str) -> ss_common::Result<Option<Vec<u8>>> {
        self.0.read(key)
    }
    fn list(&self, prefix: &str) -> ss_common::Result<Vec<String>> {
        self.0.list(prefix)
    }
    fn delete(&self, key: &str) -> ss_common::Result<()> {
        panic!("a read-only standby deleted `{key}`");
    }
}

/// A leader whose soft state budget spills its (cold) aggregate to the
/// shared backend after every checkpoint, and a standby catching up
/// through `standby_backend`. The standby must leave the checkpoint
/// byte for byte as it found it, so the leader's next epoch reloads
/// its spilled operator and passes its health check.
fn standby_leaves_a_live_leaders_checkpoint_alone(
    standby_backend: impl FnOnce(&World) -> Arc<dyn CheckpointBackend>,
) {
    let world = World::new();
    let leader_config = MicroBatchConfig {
        state_budget: MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        },
        ..world.config(Variant::Plain, "node-a", FaultRegistry::new())
    };
    let mut leader = world.engine(world.backend.clone(), leader_config, false).unwrap();
    feed(&world.bus, 0..2, false);
    leader.process_available().unwrap();
    let spilled = world.backend.list("state/spill/").unwrap();
    assert!(!spilled.is_empty(), "the leader's budget never spilled");
    let before = world.backend.list("").unwrap();

    let standby_config = world.config(Variant::Plain, "node-b", FaultRegistry::new());
    let standby_lease = standby_config.ha.as_ref().unwrap().lease.clone();
    let backend = standby_backend(&world);
    let mut standby = world.engine(backend, standby_config, true).unwrap();
    let applied = standby.standby_catch_up().unwrap();
    assert_eq!(standby.current_epoch(), leader.current_epoch());
    assert!(standby.state_rows() > 0, "the standby loaded no state");
    // A second tick with nothing new is a no-op, not a second restore.
    assert_eq!(standby.standby_catch_up().unwrap(), 0);
    assert_eq!(applied, 0, "every epoch was checkpointed; nothing to replay");
    assert_eq!(standby_lease.fencing_rejections(), 0);
    assert_eq!(world.backend.list("").unwrap(), before);

    // The leader carries on: reload of the spilled operator included.
    feed(&world.bus, 2..3, false);
    leader.process_available().unwrap();
    // And the standby follows by replaying, still without a write.
    assert!(standby.standby_catch_up().unwrap() > 0);
    assert_eq!(standby.current_epoch(), leader.current_epoch());
    assert_eq!(standby_lease.fencing_rejections(), 0);
}

#[test]
fn standby_never_writes_to_the_shared_checkpoint() {
    standby_leaves_a_live_leaders_checkpoint_alone(|world| {
        Arc::new(ReadOnly(world.backend.clone()))
    });
}

#[test]
fn standby_never_writes_through_a_fenced_backend() {
    // Over the plain shared backend the engine's own fence is the only
    // guard: a write would not reach storage, it would die with
    // `SsError::Fenced` (counted by the standby's lease), which the
    // standby loop treats as fatal.
    standby_leaves_a_live_leaders_checkpoint_alone(|world| world.backend.clone());
}
