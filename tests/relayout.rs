//! Re-laying a checkpoint out for a new partition count.
//!
//! A take-over at a partition count other than the checkpoint's routes
//! every restored entry to its shard's namespace in the restore's one
//! pass, and the next checkpoint is a full snapshot in the new layout.
//! Two things follow, pinned here: the namespaces the entries came from
//! are gone, so a later restart at the same count moves nothing and
//! writes an ordinary delta; and a crash before that first checkpoint
//! lands simply re-lays the old checkpoint out again.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ss_common::fault::{FaultMode, FaultTrigger};
use ss_common::FaultRegistry;
use ss_core::microbatch::{EpochRun, MicroBatchConfig, MicroBatchExecution};
use ss_exec::MemoryCatalog;
use ss_state::store::failpoints::CHECKPOINT_WRITE;
use ss_state::{CheckpointBackend, StateEntry, StateStore};
use structured_streaming::prelude::*;

/// Users in the first wave: every one becomes a group.
const USERS: i64 = 1_000;

fn schema() -> SchemaRef {
    Schema::of(vec![Field::new("user", DataType::Int64), Field::new("v", DataType::Int64)])
}

/// Wave 0 touches every user once; later waves touch a few.
fn feed(bus: &MessageBus, wave: i64) {
    let users: Vec<i64> = match wave {
        0 => (0..USERS).collect(),
        _ => (0..5).map(|i| (wave * 37 + i * 101) % USERS).collect(),
    };
    let rows: Vec<Row> = users.iter().map(|&u| row![u, wave]).collect();
    bus.append("in", 0, rows).unwrap();
}

struct World {
    bus: Arc<MessageBus>,
    backend: Arc<dyn CheckpointBackend>,
    sink: Arc<MemorySink>,
}

impl World {
    fn new() -> World {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        World { bus, backend: Arc::new(MemoryBackend::new()), sink: MemorySink::new("out") }
    }

    /// A process running `count(*), sum(v)` per user at `partitions`.
    fn engine(&self, partitions: usize, faults: &FaultRegistry) -> MicroBatchExecution {
        let ctx = StreamingContext::new();
        let source = BusSource::new(self.bus.clone(), "in", schema()).unwrap();
        ctx.read_source(Arc::new(source)).unwrap();
        let plan = ctx
            .table("in")
            .unwrap()
            .group_by(vec![col("user")])
            .agg(vec![count_star(), sum(col("v"))])
            .plan();
        let sources: HashMap<String, Arc<dyn Source>> =
            ctx.sources_snapshot().into_iter().collect();
        let config = MicroBatchConfig {
            parallelism: partitions,
            shuffle_partitions: partitions,
            faults: faults.clone(),
            ..Default::default()
        };
        MicroBatchExecution::new(
            "q",
            &plan,
            sources,
            Arc::new(MemoryCatalog::new()),
            self.sink.clone(),
            OutputMode::Update,
            self.backend.clone(),
            config,
        )
        .unwrap()
    }

    /// Feed `wave` and run it.
    fn wave(&self, eng: &mut MicroBatchExecution, wave: i64) {
        feed(&self.bus, wave);
        eng.process_available().unwrap();
    }

    /// The state checkpoint blobs, oldest first: `(epoch, full, bytes)`.
    fn blobs(&self) -> Vec<(u64, bool, usize)> {
        let keys = self.backend.list("state/chk-").unwrap();
        let blob = |key: &String| {
            let (epoch, kind) = key["state/chk-".len()..].split_once('-').unwrap();
            let bytes = self.backend.read(key).unwrap().unwrap().len();
            (epoch.parse().unwrap(), kind.starts_with("full"), bytes)
        };
        keys.iter().map(blob).collect()
    }

    /// What a fresh store restores from the newest checkpoint, by
    /// namespace.
    fn restored(&self) -> BTreeMap<String, BTreeMap<Row, StateEntry>> {
        let mut store = StateStore::new(self.backend.clone());
        store.restore_best(None).unwrap().expect("a checkpoint");
        let entries = |id: &String| {
            let op = store.operator_ref(id).unwrap();
            op.iter().map(|(k, e)| (k.clone(), e.clone())).collect()
        };
        store.operator_ids().iter().map(|id| (id.clone(), entries(id))).collect()
    }
}

fn shards() -> Vec<String> {
    (0..4).map(|r| format!("agg-0/p{r}")).collect()
}

/// Checkpoint at `first` partitions, restart at four and checkpoint,
/// restart in place at four and run one more small wave. Returns the
/// world and that last wave's checkpoint.
fn restart_twice_at_four(first: usize) -> (World, (u64, bool, usize)) {
    let world = World::new();
    let none = FaultRegistry::new();
    let mut eng = world.engine(first, &none);
    world.wave(&mut eng, 0);
    drop(eng);
    let mut eng = world.engine(4, &none);
    world.wave(&mut eng, 1);
    eng.restart().unwrap();
    world.wave(&mut eng, 2);
    let last = *world.blobs().last().unwrap();
    (world, last)
}

#[test]
fn a_relaid_checkpoint_keeps_no_emptied_namespace_and_the_next_restart_moves_nothing() {
    let (world, relaid) = restart_twice_at_four(1);
    assert_eq!(world.restored().keys().cloned().collect::<Vec<_>>(), shards());
    // The control never changed layout: the same wave's delta.
    let (control, unmoved) = restart_twice_at_four(4);
    assert!(!unmoved.1, "the control's last checkpoint is a delta");
    assert_eq!(relaid, unmoved, "after the in-place restart at the same count");
    let full = world.blobs().iter().filter(|b| b.1).map(|b| b.2).max().unwrap();
    assert!(relaid.2 * 20 < full, "a {}-byte delta next to a {full}-byte snapshot", relaid.2);
    assert_eq!(world.restored(), control.restored());
    assert_eq!(world.sink.snapshot(), control.sink.snapshot());
}

/// Crash the first incarnation at four partitions — over a one-partition
/// checkpoint — at its first state checkpoint, after the epoch
/// committed; take over again in place (`restart`) or as a new process.
fn crash_before_the_first_relaid_checkpoint(in_place: bool) -> World {
    let world = World::new();
    let mut eng = world.engine(1, &FaultRegistry::new());
    world.wave(&mut eng, 0);
    drop(eng);
    let faults = FaultRegistry::new();
    faults.configure(CHECKPOINT_WRITE, FaultTrigger::Once { skip: 0 }, FaultMode::Error);
    let mut eng = world.engine(4, &faults);
    feed(&world.bus, 1);
    let err = loop {
        match eng.run_epoch() {
            Ok(EpochRun::Ran(_)) => {}
            Ok(EpochRun::Idle) => panic!("the checkpoint fault never fired"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains(CHECKPOINT_WRITE), "crashed elsewhere: {err}");
    let before = world.blobs();
    assert!(before.iter().all(|b| b.0 == 1), "only the one-partition checkpoint: {before:?}");
    let mut eng = if in_place {
        eng.restart().unwrap();
        eng
    } else {
        drop(eng);
        world.engine(4, &FaultRegistry::new())
    };
    eng.process_available().unwrap();
    world.wave(&mut eng, 2);
    let landed: Vec<_> = world.blobs().into_iter().filter(|b| b.0 > 1).collect();
    assert!(landed.first().is_some_and(|b| b.1), "checkpoints after the re-layout: {landed:?}");
    world
}

#[test]
fn a_crash_before_the_first_relaid_checkpoint_relays_the_old_one_again() {
    let uninterrupted = World::new();
    let none = FaultRegistry::new();
    let mut eng = uninterrupted.engine(1, &none);
    uninterrupted.wave(&mut eng, 0);
    drop(eng);
    let mut eng = uninterrupted.engine(4, &none);
    uninterrupted.wave(&mut eng, 1);
    uninterrupted.wave(&mut eng, 2);
    let state = uninterrupted.restored();
    assert_eq!(state.keys().cloned().collect::<Vec<_>>(), shards());
    for in_place in [true, false] {
        let world = crash_before_the_first_relaid_checkpoint(in_place);
        assert_eq!(world.sink.snapshot(), uninterrupted.sink.snapshot(), "in place: {in_place}");
        assert_eq!(world.restored(), state, "in place: {in_place}");
    }
}
