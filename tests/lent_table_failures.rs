//! Failures while the aggregate's group table is being updated where
//! it lives — in the state store — or checkpointed from there.
//!
//! A windowed Update aggregation over epochs of two vectors each is hit
//! by (a) `exec.record.eval` firing on an epoch's second vector, after
//! the first was folded into the table, (b) a UDF panicking there,
//! (c) the state checkpoint's write failing twice before it succeeds
//! (the table is encoded three times), (d) the process dying between
//! the checkpoint's `write_atomic` and its `clear_tracking`. In every
//! case, at one partition and at four, the sink's contents and the
//! finally restored state equal the fault-free run's.
//!
//! And one determinism-matrix case the suite lacked: checkpointing
//! every third epoch, so "changed this epoch" and "unsaved since the
//! last checkpoint" differ and a delta spans groups created *and*
//! evicted since the last one — Update and Append, killed between
//! checkpoints, across partition layouts.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ss_common::fault::{FaultMode, FaultTrigger};
use ss_common::{Column, FaultRegistry};
use ss_core::microbatch::{EpochRun, MicroBatchConfig, MicroBatchExecution};
use ss_exec::ops::failpoints::RECORD_EVAL;
use ss_exec::MemoryCatalog;
use ss_expr::expr::{Expr, ScalarUdf};
use ss_state::{CheckpointBackend, StateEntry, StateStore};
use structured_streaming::prelude::*;

/// Rows per epoch: more than one 16 384-row vector.
const EPOCH_ROWS: u64 = 20_000;
const EPOCHS: u64 = 6;
/// The UDF panics the first time it sees this `v` (epoch 2, vector 2).
const POISON_V: i64 = 39_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    RecordEval,
    UdfPanic,
    CheckpointWriteFailsTwice,
    DiesAfterCheckpointWrite,
}

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

/// Event time advances 1 ms per row: an epoch spans two 10 s windows
/// and the 5 s watermark evicts as it goes.
fn feed(bus: &MessageBus) {
    for partition in 0..2u64 {
        let rows = (0..EPOCH_ROWS * EPOCHS).filter(|i| i % 2 == partition).map(|i| {
            row![format!("k{}", i % 37), i as i64, Value::Timestamp(i as i64 * 1_000)]
        });
        bus.append("in", partition as u32, rows).unwrap();
    }
}

/// `v >= 0`, panicking on the poison value while `armed`.
fn validate(armed: Arc<AtomicBool>) -> Expr {
    let udf = ScalarUdf {
        name: "validate".into(),
        return_type: DataType::Boolean,
        func: Arc::new(move |cols: &[Column]| {
            let vs = cols[0].as_i64()?;
            if vs.values().contains(&POISON_V) && armed.swap(false, Ordering::SeqCst) {
                panic!("malformed record: v={POISON_V}");
            }
            Column::from_values(DataType::Boolean, &vec![Value::Boolean(true); vs.len()])
        }),
    };
    Expr::Udf { udf, args: vec![col("v")] }
}

/// A backend that fails the state checkpoint of epoch 2: `transient`
/// times retryably before the write, or once fatally *after* the blob
/// landed.
#[derive(Default)]
struct FaultyBackend {
    inner: MemoryBackend,
    transient: AtomicUsize,
    die_after_write: AtomicBool,
}

impl CheckpointBackend for FaultyBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<(), SsError> {
        let hit = key.starts_with("state/chk-") && key.contains("0002-");
        if hit && self.transient.load(Ordering::SeqCst) > 0 {
            self.transient.fetch_sub(1, Ordering::SeqCst);
            return Err(SsError::Transient("injected: checkpoint write refused".into()));
        }
        self.inner.write_atomic(key, data)?;
        if hit && self.die_after_write.swap(false, Ordering::SeqCst) {
            return Err(SsError::Execution("injected: died after the checkpoint write".into()));
        }
        Ok(())
    }
    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, SsError> {
        self.inner.read(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, SsError> {
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> Result<(), SsError> {
        self.inner.delete(key)
    }
}

type State = BTreeMap<String, BTreeMap<Row, StateEntry>>;

fn engine(
    bus: &Arc<MessageBus>,
    sink: &Arc<MemorySink>,
    backend: &Arc<FaultyBackend>,
    layout: (usize, usize),
    armed: &Arc<AtomicBool>,
    faults: &FaultRegistry,
    (mode, checkpoint_interval): (OutputMode, u64),
) -> MicroBatchExecution {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap();
    let plan = ctx
        .table("in")
        .unwrap()
        .with_watermark("time", "5 seconds")
        .unwrap()
        .filter(validate(armed.clone()))
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
        .agg(vec![count_star(), sum(col("v"))])
        .plan();
    let sources: HashMap<String, Arc<dyn Source>> = ctx.sources_snapshot().into_iter().collect();
    let config = MicroBatchConfig {
        max_records_per_trigger: Some(EPOCH_ROWS),
        adaptive_batching: false,
        parallelism: layout.0,
        shuffle_partitions: layout.1,
        checkpoint_interval,
        faults: faults.clone(),
        ..Default::default()
    };
    MicroBatchExecution::new(
        "q",
        &plan,
        sources,
        Arc::new(MemoryCatalog::new()),
        sink.clone(),
        mode,
        backend.clone(),
        config,
    )
    .unwrap()
}

/// Run the stream to its end under `fault`; return the sink's rows and
/// the state a fresh store restores from what the run left behind.
fn run(parallelism: usize, fault: Fault) -> (Vec<Row>, State) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    feed(&bus);
    let sink = MemorySink::new("out");
    let backend = Arc::new(FaultyBackend::default());
    let armed = Arc::new(AtomicBool::new(fault == Fault::UdfPanic));
    let faults = FaultRegistry::new();
    let every_epoch = (OutputMode::Update, 1);
    let layout = (parallelism, 0);
    let mut eng = engine(&bus, &sink, &backend, layout, &armed, &faults, every_epoch);
    match fault {
        // Epoch 1's vectors are hits 0 and 1 (one per map task at four
        // partitions): the third hit is inside a later epoch's ingest.
        Fault::RecordEval => faults.configure(
            RECORD_EVAL,
            FaultTrigger::Once { skip: if parallelism == 1 { 3 } else { 9 } },
            FaultMode::Error,
        ),
        Fault::CheckpointWriteFailsTwice => backend.transient.store(2, Ordering::SeqCst),
        Fault::DiesAfterCheckpointWrite => backend.die_after_write.store(true, Ordering::SeqCst),
        Fault::None | Fault::UdfPanic => {}
    }
    let mut failures = 0;
    loop {
        match eng.run_epoch() {
            Ok(EpochRun::Ran(_)) => {}
            Ok(EpochRun::Idle) => break,
            Err(_) if fault == Fault::DiesAfterCheckpointWrite => {
                // The process is gone; a new one recovers from what is
                // durable (the checkpoint blob included).
                failures += 1;
                eng = engine(&bus, &sink, &backend, layout, &armed, &faults, every_epoch);
            }
            Err(_) => {
                failures += 1;
                eng.restart().unwrap();
            }
        }
    }
    let expect_failures = match fault {
        Fault::None | Fault::CheckpointWriteFailsTwice => 0,
        _ => 1,
    };
    assert_eq!(failures, expect_failures, "{fault:?} at parallelism {parallelism}");
    assert_eq!(backend.transient.load(Ordering::SeqCst), 0, "both refusals were served");
    assert_eq!(eng.current_epoch(), EPOCHS);
    drop(eng);

    (sink.snapshot(), restored_state(backend))
}

/// The state a fresh store restores from `backend`'s newest
/// checkpoint, which must be the last epoch's.
fn restored_state(backend: Arc<FaultyBackend>) -> State {
    let mut store = StateStore::new(backend);
    assert_eq!(store.restore_best(None).unwrap(), Some(EPOCHS));
    let mut state = State::new();
    for id in store.operator_ids() {
        let entries: BTreeMap<Row, StateEntry> =
            store.operator(&id).iter().map(|(k, e)| (k.clone(), e.clone())).collect();
        // Namespaces are laid out per partition count; compare contents.
        state.entry(id.split("/p").next().unwrap().to_string()).or_default().extend(entries);
    }
    state
}

/// Run the stream checkpointing every `interval` epochs, killing the
/// process after epoch 4 — between two checkpoints when `interval` is 3.
fn run_killed(mode: OutputMode, interval: u64, layout: (usize, usize)) -> (Vec<Row>, State) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    feed(&bus);
    let sink = MemorySink::new("out");
    let backend = Arc::new(FaultyBackend::default());
    let (armed, faults) = (Arc::new(AtomicBool::new(false)), FaultRegistry::new());
    let start = || engine(&bus, &sink, &backend, layout, &armed, &faults, (mode, interval));
    let mut eng = start();
    while eng.current_epoch() < 4 {
        assert!(matches!(eng.run_epoch().unwrap(), EpochRun::Ran(_)));
    }
    drop(eng);
    let mut eng = start();
    eng.process_available().unwrap();
    assert_eq!(eng.current_epoch(), EPOCHS);
    drop(eng);
    (sink.snapshot(), restored_state(backend))
}

#[test]
fn checkpointing_every_third_epoch_is_byte_identical_across_the_matrix() {
    for mode in [OutputMode::Update, OutputMode::Append] {
        let (rows, state) = run_killed(mode, 1, (1, 1));
        assert!(!rows.is_empty() && !state["agg-0"].is_empty(), "{mode:?}");
        for layout in [(1, 1), (2, 4), (4, 2)] {
            let (got_rows, got_state) = run_killed(mode, 3, layout);
            assert_eq!(got_rows, rows, "{mode:?} at {layout:?}: sink");
            assert_eq!(got_state, state, "{mode:?} at {layout:?}: state");
        }
    }
}

#[test]
fn faults_with_the_table_in_the_store_leave_output_and_state_exact() {
    let (rows, state) = run(1, Fault::None);
    assert!(!rows.is_empty());
    // The watermark evicted the early windows; the late ones are live.
    let live = state["agg-0"].len();
    assert!(live > 0 && live < rows.len(), "{live} live groups of {} emitted", rows.len());
    for parallelism in [1, 4] {
        for fault in [
            Fault::None,
            Fault::RecordEval,
            Fault::UdfPanic,
            Fault::CheckpointWriteFailsTwice,
            Fault::DiesAfterCheckpointWrite,
        ] {
            let (got_rows, got_state) = run(parallelism, fault);
            assert_eq!(got_rows, rows, "{fault:?} at parallelism {parallelism}: sink");
            assert_eq!(got_state, state, "{fault:?} at parallelism {parallelism}: state");
        }
    }
}
