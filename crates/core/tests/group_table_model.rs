//! Model test of the aggregate's store-resident group table: random
//! sequences of epochs (Update / Append / Complete), watermark
//! advances, delta and full checkpoints, checkpoint writes that fail
//! before or after the blob lands, skipped checkpoints, late rows that
//! re-create evicted keys, spill + reload, restores into a fresh store
//! and a restart re-laid out to four partitions and back to one —
//! against a plain `BTreeMap`. After every step the emitted rows, the
//! table's entries as a full checkpoint writes them (read back through
//! the section reader), `total_keys`,
//! `memory_bytes` and every checkpoint the step made restorable equal
//! the model's. The key column next to the
//! window is an input: a string, or a BIGINT with NULLs and negative
//! values (the table's integer key form). The aggregates cover every
//! kind of state the table holds: counts over rows and over a column
//! with NULLs, a BIGINT sum that sees NULLs, a TIMESTAMP max and a
//! string min.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ss_common::time::secs;
use ss_common::{
    DataType, FaultRegistry, Field, RecordBatch, Result, Row, Schema, SchemaRef, SsError, Value,
};
use ss_core::incremental::{incrementalize, EpochContext, IncNode, OpStatsCollector};
use ss_core::parallel::{relayout, Exchange, ExchangeStats};
use ss_core::watermark::WatermarkTracker;
use ss_exec::MemoryCatalog;
use ss_expr::{col, count, count_star, max, min, sum, window};
use ss_plan::{LogicalPlanBuilder, OutputMode};
use ss_state::section::read_section;
use ss_state::{
    CheckpointBackend, MemoryBackend, MemoryBudget, StateEntry, StateStore, TypedTable,
};

const WINDOW_US: i64 = 10_000_000;
const OP: &str = "agg-0";

fn schema(key: DataType) -> SchemaRef {
    Schema::of(vec![
        Field::new("key", key),
        Field::new("time", DataType::Timestamp),
        Field::new("v", DataType::Int64),
        Field::new("tag", DataType::Utf8),
    ])
}

/// A backend whose next state-checkpoint write fails: before anything
/// is stored (`BEFORE`), or after the blob landed — the process "died"
/// between `write_atomic` and `clear_tracking` (`AFTER`).
#[derive(Default)]
struct FlakyBackend {
    inner: MemoryBackend,
    fail: AtomicU8,
}

const BEFORE: u8 = 1;
const AFTER: u8 = 2;

impl CheckpointBackend for FlakyBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
        let fail = if key.starts_with("state/chk-") { self.fail.swap(0, Ordering::SeqCst) } else { 0 };
        if fail == BEFORE {
            return Err(SsError::Execution("injected: write refused".into()));
        }
        self.inner.write_atomic(key, data)?;
        if fail == AFTER {
            return Err(SsError::Execution("injected: ack lost".into()));
        }
        Ok(())
    }
    fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }
}

/// One input row: key index, event time (s), value, tag length.
type Event = (u8, u8, i8, u8);

/// The `v` column's value for an event's value: −3 stands for NULL.
fn v_value(v: i8) -> Value {
    if v == -3 {
        Value::Null
    } else {
        Value::Int64(v as i64)
    }
}

/// The key column's value for key index `k`.
fn key_value(key: DataType, k: u8) -> Value {
    match (key, k) {
        (DataType::Utf8, k) => Value::str(format!("k{k}")),
        (_, 0) => Value::Null,
        (_, k) => Value::Int64(k as i64 - 3),
    }
}

fn key_type() -> impl Strategy<Value = DataType> {
    prop_oneof![Just(DataType::Utf8), Just(DataType::Int64)]
}

#[derive(Debug, Clone)]
enum Op {
    Epoch(Vec<Event>),
    Advance(u8),
    Checkpoint,
    FailedCheckpoint(u8),
    CheckpointAndSpill,
    /// Read the live table through a full encode.
    Contents,
    RestoreFresh,
    Repartition,
}

fn op() -> impl Strategy<Value = Op> {
    let event = (0u8..5, 0u8..60, -3i8..4, 0u8..12);
    prop_oneof![
        prop::collection::vec(event.clone(), 0..12).prop_map(Op::Epoch),
        prop::collection::vec(event, 0..12).prop_map(Op::Epoch),
        (0u8..15).prop_map(Op::Advance),
        Just(Op::Checkpoint),
        Just(Op::Checkpoint),
        (BEFORE..=AFTER).prop_map(Op::FailedCheckpoint),
        Just(Op::CheckpointAndSpill),
        Just(Op::Contents),
        Just(Op::RestoreFresh),
        Just(Op::Repartition),
    ]
}

/// The reference: group key → one state row per aggregate
/// (`count(*)`, `sum(v)`, `min(tag)`, `max(time)`, `count(v)`).
type Model = BTreeMap<Row, Vec<Row>>;

fn model_ingest(model: &mut Model, key_ty: DataType, events: &[Event]) -> Vec<Row> {
    let mut changed = Vec::new();
    for &(k, t, v, tag_len) in events {
        let start = secs(t as i64) - secs(t as i64).rem_euclid(WINDOW_US);
        let key = Row::new(vec![Value::Timestamp(start), key_value(key_ty, k)]);
        let tag = Value::str("t".repeat(tag_len as usize));
        let time = Value::Timestamp(secs(t as i64));
        let (zero, null) = (Row::new(vec![Value::Int64(0)]), Row::new(vec![Value::Null]));
        let fresh = || vec![zero.clone(), null.clone(), null.clone(), null.clone(), zero.clone()];
        let state = model.entry(key.clone()).or_insert_with(fresh);
        let as_i64 = |v: &Value| v.as_i64().unwrap().unwrap_or(0);
        state[0] = Row::new(vec![Value::Int64(as_i64(state[0].get(0)) + 1)]);
        if let Value::Int64(v) = v_value(v) {
            state[1] = Row::new(vec![Value::Int64(as_i64(state[1].get(0)).wrapping_add(v))]);
            state[4] = Row::new(vec![Value::Int64(as_i64(state[4].get(0)) + 1)]);
        }
        if state[2].get(0).is_null() || tag < *state[2].get(0) {
            state[2] = Row::new(vec![tag]);
        }
        if state[3].get(0).is_null() || time > *state[3].get(0) {
            state[3] = Row::new(vec![time]);
        }
        changed.push(key);
    }
    changed.sort();
    changed.dedup();
    changed
}

fn output_row(key: &Row, state: &[Row]) -> Row {
    let start = key.get(0).as_i64().unwrap().unwrap();
    let mut out = vec![Value::Timestamp(start), Value::Timestamp(start + WINDOW_US), key.get(1).clone()];
    out.extend(state.iter().map(|s| s.get(0).clone()));
    Row::new(out)
}

/// The model's epoch step: what the mode emits, then what it evicts.
fn model_step(model: &mut Model, changed: &[Row], mode: OutputMode, watermark_us: i64) -> Vec<Row> {
    let closed = |key: &Row| key.get(0).as_i64().unwrap().unwrap() + WINDOW_US <= watermark_us;
    let out = match mode {
        OutputMode::Complete => model.iter().map(|(k, s)| output_row(k, s)).collect(),
        OutputMode::Update => changed.iter().map(|k| output_row(k, &model[k])).collect(),
        OutputMode::Append => {
            model.iter().filter(|(k, _)| closed(k)).map(|(k, s)| output_row(k, s)).collect()
        }
    };
    if mode != OutputMode::Complete {
        model.retain(|k, _| !closed(k));
    }
    out
}

fn model_bytes(model: &Model) -> usize {
    let entry = |(k, s): (&Row, &Vec<Row>)| {
        k.approx_bytes()
            + std::mem::size_of::<StateEntry>()
            + s.iter().map(Row::approx_bytes).sum::<usize>()
    };
    model.iter().map(entry).sum()
}

struct Harness {
    key: DataType,
    node: IncNode,
    backend: Arc<FlakyBackend>,
    store: StateStore,
    mode: OutputMode,
    watermark_us: i64,
    tracker: WatermarkTracker,
}

impl Harness {
    fn new(mode: OutputMode, key: DataType) -> Harness {
        let plan = LogicalPlanBuilder::scan("events", schema(key), true)
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap(), col("key")],
                vec![
                    count_star(),
                    sum(col("v")),
                    min(col("tag")),
                    max(col("time")),
                    count(col("v")),
                ],
            )
            .build();
        let backend = Arc::new(FlakyBackend::default());
        Harness {
            key,
            node: incrementalize(&plan, &mut 0).unwrap(),
            store: StateStore::new(backend.clone()).with_snapshot_interval(3),
            backend,
            mode,
            watermark_us: i64::MIN,
            tracker: WatermarkTracker::new(&[]),
        }
    }

    fn epoch(&mut self, events: &[Event]) -> Vec<Row> {
        let rows: Vec<Row> = events
            .iter()
            .map(|&(k, t, v, tag_len)| {
                Row::new(vec![
                    key_value(self.key, k),
                    Value::Timestamp(secs(t as i64)),
                    v_value(v),
                    Value::str("t".repeat(tag_len as usize)),
                ])
            })
            .collect();
        let mut inputs = HashMap::new();
        let batch = RecordBatch::from_rows(schema(self.key), &rows).unwrap();
        inputs.insert("events".to_string(), batch);
        let (statics, faults, exchange) =
            (MemoryCatalog::default(), FaultRegistry::new(), Exchange::identity());
        let mut ops = OpStatsCollector::new();
        let mut ctx = EpochContext {
            epoch: 1,
            inputs: &mut inputs,
            statics: &statics,
            store: &mut self.store,
            watermark_us: self.watermark_us,
            processing_time_us: 0,
            output_mode: self.mode,
            tracker: &mut self.tracker,
            ops: &mut ops,
            faults: &faults,
            exchange: &exchange,
            run: ExchangeStats::default(),
        };
        let out = self.node.execute_epoch(&mut ctx).unwrap().to_rows();
        self.store.check_health().unwrap();
        out
    }

    /// The live table's entries, as a full checkpoint writes them.
    fn contents(&mut self) -> Model {
        let IncNode::Aggregate { agg, .. } = &self.node else { panic!("root is the aggregate") };
        let mut body = Vec::new();
        agg.table(self.store.operator(OP)).encode(true, &mut body);
        let (entries, removed) = read_section(&body).unwrap();
        assert!(removed.is_empty(), "a full encode removes nothing");
        assert!(entries.iter().all(|(_, e)| e.timeout_at.is_none()), "no timeout");
        entries.into_iter().map(|(key, e)| (key, e.values)).collect()
    }

    /// What restoring `epoch` into a fresh store yields, all shards of
    /// the namespace together — `None` while a namespace is spilled: a
    /// restore purges the backend's spill blobs, which here are still
    /// the live store's. (Every epoch is checked again when the run
    /// ends.)
    fn restored(&self, epoch: u64) -> Option<Model> {
        if !self.store.spilled_ops().is_empty() {
            return None;
        }
        let mut fresh = StateStore::new(self.backend.clone());
        fresh.restore(epoch).unwrap();
        let mut model = Model::new();
        for id in fresh.operator_ids() {
            assert!(id.starts_with(OP), "{id}");
            let entries = fresh.operator(&id).iter();
            model.extend(entries.map(|(k, e)| (k.clone(), e.values.clone())));
        }
        Some(model)
    }

    /// A restart over the newest checkpoint at `partitions` partitions:
    /// a fresh store, the plan's tables declared, the checkpoint restored
    /// through the engine's route.
    fn restart(&mut self, epoch: u64, partitions: usize) -> StateStore {
        let mut store = StateStore::new(self.backend.clone()).with_snapshot_interval(3);
        let mut families = Vec::new();
        self.node.declare_state(&mut store, partitions, &mut families);
        let route = relayout(families, &[], partitions);
        assert_eq!(store.restore_best_routed(Some(epoch), route).unwrap(), Some(epoch));
        store
    }
}

/// Run `ops` against engine and model; a failure reports the sequence
/// so it can be pinned as a fixture below.
fn run(mode: OutputMode, key: DataType, ops: Vec<Op>) -> std::result::Result<(), String> {
    check(mode, key, &ops).map_err(|e| format!("{e}\nkey: {key:?}, ops: {ops:?}"))
}

fn check(mode: OutputMode, key: DataType, ops: &[Op]) -> std::result::Result<(), String> {
    let mut h = Harness::new(mode, key);
    let mut model = Model::new();
    // Epoch → the model when that epoch's blob landed.
    let mut durable: BTreeMap<u64, Model> = BTreeMap::new();
    let mut next_epoch = 1u64;
    for (step, op) in ops.iter().cloned().enumerate() {
        let what = format!("step {step} {op:?}");
        match op {
            Op::Epoch(events) => {
                let changed = model_ingest(&mut model, key, &events);
                let expect = model_step(&mut model, &changed, mode, h.watermark_us);
                prop_assert_eq!(h.epoch(&events), expect, "{}", what);
            }
            Op::Advance(by) => h.watermark_us = h.watermark_us.max(0) + secs(by as i64),
            Op::Checkpoint | Op::CheckpointAndSpill => {
                h.store.checkpoint(next_epoch).unwrap();
                durable.insert(next_epoch, model.clone());
                prop_assert!(h.restored(next_epoch).is_none_or(|m| m == model), "{}", what);
                next_epoch += 1;
                if matches!(op, Op::CheckpointAndSpill) {
                    let resident = h.store.spilled_ops().is_empty() && !model.is_empty();
                    h.store.set_budget(MemoryBudget { soft_limit_bytes: Some(1), hard_limit_bytes: None });
                    let report = h.store.enforce_budget().unwrap();
                    h.store.set_budget(MemoryBudget::default());
                    prop_assert_eq!(report.ops_spilled, usize::from(resident), "{}", what);
                    prop_assert_eq!(h.store.total_keys(), 0, "{}", what);
                    continue; // reloaded by whatever touches it next
                }
            }
            Op::FailedCheckpoint(how) => {
                h.backend.fail.store(how, Ordering::SeqCst);
                prop_assert!(h.store.checkpoint(next_epoch).is_err(), "{}", what);
                if how == AFTER {
                    durable.insert(next_epoch, model.clone());
                    prop_assert!(h.restored(next_epoch).is_none_or(|m| m == model), "{}", what);
                }
                next_epoch += 1;
            }
            Op::Contents => prop_assert_eq!(h.contents(), model.clone(), "{}", what),
            Op::RestoreFresh => {
                let Some((&epoch, snapshot)) = durable.iter().next_back() else { continue };
                model = snapshot.clone();
                h.store = h.restart(epoch, 1);
            }
            Op::Repartition => {
                let Some((&epoch, snapshot)) = durable.iter().next_back() else { continue };
                model = snapshot.clone();
                let mut four = h.restart(epoch, 4);
                prop_assert_eq!(four.total_keys(), model.len(), "{}", what);
                prop_assert_eq!(four.memory_bytes(), model_bytes(&model), "{}", what);
                let ids = four.operator_ids();
                prop_assert!(ids.iter().all(|id| id.starts_with("agg-0/p")), "{}: {:?}", what, ids);
                four.checkpoint(next_epoch).unwrap();
                durable.insert(next_epoch, model.clone());
                h.store = h.restart(next_epoch, 1);
                prop_assert_eq!(h.store.operator_ids(), vec![OP.to_string()], "{}", what);
                next_epoch += 1;
            }
        }
        // A spilled namespace counts nothing until it is touched.
        if h.store.spilled_ops().is_empty() {
            prop_assert_eq!(h.store.total_keys(), model.len(), "{}", what);
            prop_assert_eq!(h.store.memory_bytes(), model_bytes(&model), "{}", what);
        }
    }
    // The whole chain, not just each blob as it landed.
    h.store.clear_memory();
    for (epoch, snapshot) in &durable {
        prop_assert_eq!(h.restored(*epoch), Some(snapshot.clone()), "final restore of {}", epoch);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn update_mode_matches_the_model(key in key_type(), ops in prop::collection::vec(op(), 1..60)) {
        run(OutputMode::Update, key, ops)?;
    }

    #[test]
    fn append_mode_matches_the_model(key in key_type(), ops in prop::collection::vec(op(), 1..60)) {
        run(OutputMode::Append, key, ops)?;
    }

    #[test]
    fn complete_mode_matches_the_model(key in key_type(), ops in prop::collection::vec(op(), 1..40)) {
        run(OutputMode::Complete, key, ops)?;
    }
}

/// One group exists in exactly one in-memory map: after an epoch the
/// store's key count is the number of live groups, and the aggregator
/// the plan holds has none of its own.
#[test]
fn a_group_lives_once_and_in_the_store() {
    let mut h = Harness::new(OutputMode::Update, DataType::Utf8);
    let out = h.epoch(&[(0, 1, 1, 1), (1, 1, 1, 1), (0, 12, 1, 1)]);
    assert_eq!(out.len(), 3);
    assert_eq!(h.store.total_keys(), 3);
    let IncNode::Aggregate { agg, .. } = &h.node else { panic!("plan root is the aggregate") };
    assert_eq!(agg.num_groups(), 0);
    // Through a full encode the same three entries, still once.
    assert_eq!(h.contents().len(), 3);
    assert_eq!(h.store.total_keys(), 3);
}

/// A checkpoint whose blob landed but whose ack was lost holds the
/// groups created since the last acknowledged one; evicting such a
/// group must still leave a removed key, or the next delta, laid over
/// that blob, brings it back. (Case 273 of 3,000, reduced by hand.)
#[test]
fn a_group_in_a_landed_but_unacknowledged_checkpoint_is_removed_when_evicted() {
    // The second checkpoint is a delta (the first, a full snapshot, is
    // acknowledged), and so is the third, laid over the second's blob.
    let ops = [
        Op::Checkpoint,
        Op::Epoch(vec![(1, 5, 1, 1)]),
        Op::FailedCheckpoint(AFTER),
        Op::Advance(20),
        Op::Epoch(vec![(1, 35, 1, 1)]),
        Op::Checkpoint,
    ];
    for mode in [OutputMode::Update, OutputMode::Append] {
        for key in [DataType::Int64, DataType::Utf8] {
            run(mode, key, ops.to_vec()).unwrap();
        }
    }
}
