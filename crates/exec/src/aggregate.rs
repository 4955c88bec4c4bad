//! Hash aggregation: the operator a streaming `Aggregate` maps onto.
//!
//! A [`HashAggregator`] is the aggregation's configuration and kernel;
//! the groups live in a [`GroupTable`]. It is used two ways:
//!
//! * **Batch** (the executor, the exchange's map-side combiners): the
//!   aggregator owns a private table — feed it with
//!   [`HashAggregator::update_batch`], read [`HashAggregator::finish_all`]
//!   or ship [`HashAggregator::into_partials`].
//! * **Streaming** (`StatefulAggregate`, §5.2): the table *is* the
//!   operator's entry in the state store, which owns the only copy and
//!   lends it for the epoch ([`HashAggregator::table`]; a restored,
//!   untyped namespace is adopted on the first borrow). An epoch
//!   [`HashAggregator::ingest`]s its new data (or
//!   [`HashAggregator::merge_partials`] at N partitions), then
//!   [`GroupTable::drain_changed`] closes it: Update mode emits the
//!   groups it visits, Complete mode [`HashAggregator::finish`], Append
//!   mode [`HashAggregator::finalized`] once the event-time watermark
//!   passes a window's end (§4.3.1); [`GroupTable::evict_closed`] then
//!   drops what the watermark closed. The store checkpoints, counts and
//!   spills the table through `ss_state::TypedTable` (§6.1), encoded by
//!   reference from the accumulators in the untyped entry format (one
//!   state row per aggregate). Nothing is copied between kernel and
//!   store and nothing scans the table: it lists the groups changed
//!   this epoch and those not yet in a successful checkpoint, keeps the
//!   keys removed since, and buckets its groups by window.
//!
//! Event-time windows: one `window()` grouping key is supported; each
//! row expands into `size/slide` windows (one for tumbling windows), the
//! same assignment Spark's window expression produces. Rows whose
//! timestamp is NULL are dropped from windowed aggregation, as in Spark.

use std::collections::BTreeMap;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use ss_common::codec::{put_row, put_value, put_values, put_varint};
use ss_common::{
    Column, DataType, Field, RecordBatch, Result, Row, Schema, SchemaRef, SsError, Value,
};
use ss_expr::agg::Accumulator;
use ss_expr::eval::evaluate;
use ss_expr::{AggregateExpr, Expr};
use ss_plan::plan::strip_alias;
use ss_state::{OpState, StateEntry, TypedTable, Untyped};

/// The window grouping key, if any.
#[derive(Debug, Clone)]
struct WindowSpec {
    /// Index of the window expression within `group_exprs`.
    slot: usize,
    time: Expr,
    size_us: i64,
    slide_us: i64,
}

/// One group: its accumulators, and where it stands in its table's
/// change tracking. A stamp equal to the table's current generation
/// means "on that list"; one behind means not.
#[derive(Debug)]
struct Group {
    accs: Vec<Accumulator>,
    /// Epoch generation it went on the changed list in. A stamp compare
    /// per row is all the hot path pays for tracking.
    changed: u32,
    /// Save generation it went on the unsaved list in.
    unsaved: u32,
    /// Save generation it was created in: a group evicted in that same
    /// generation is in no checkpoint and leaves no removed key.
    born: u32,
    /// Bytes of its untyped entry as last added to the table's total.
    bytes: u32,
}

/// A list of keys of one arity, end to end in one buffer: listing a
/// group allocates nothing.
#[derive(Debug, Default)]
struct KeyList {
    values: Vec<Value>,
    arity: usize,
}

impl KeyList {
    fn push(&mut self, key: &[Value]) {
        match key {
            [] => self.values.push(Value::Null), // the one key of arity 0 still counts
            _ => self.values.extend_from_slice(key),
        }
    }

    fn len(&self) -> usize {
        self.values.len() / self.arity.max(1)
    }

    fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.values.chunks(self.arity.max(1)).map(|key| &key[..self.arity])
    }

    fn retain(&mut self, keep: impl Fn(&[Value]) -> bool) {
        let mut kept = KeyList { values: Vec::new(), arity: self.arity };
        self.iter().filter(|key| keep(key)).for_each(|key| kept.push(key));
        *self = kept;
    }
}

/// Everything of a [`GroupTable`] but the groups, so the kernel can
/// hold one window's bucket and this side by side.
#[derive(Debug, Default)]
struct Tracking {
    len: usize,
    bytes: usize,
    /// Bumped by `drain_changed`; `changed` lists the groups stamped
    /// with it, once each.
    epoch_gen: u32,
    changed: KeyList,
    /// Bumped by `clear_tracking` (a *successful* checkpoint);
    /// `unsaved` lists the live groups stamped with it, once each, and
    /// `removed` the checkpointed keys evicted since.
    save_gen: u32,
    unsaved: KeyList,
    removed: FxHashSet<Row>,
    /// For the state metrics: groups drained, groups evicted.
    puts: u64,
    evictions: u64,
}

/// The groups of one aggregation, with the change tracking that lets
/// the state store checkpoint them without a copy or a scan (see the
/// module docs). Keys hold one value per group expression, the window
/// slot holding the window *start*.
#[derive(Debug, Default)]
pub struct GroupTable {
    /// `(key slot, size µs)` of the window key.
    window: Option<(usize, i64)>,
    /// Groups bucketed by window start (one bucket, 0, without a
    /// window): the watermark closes whole buckets.
    buckets: BTreeMap<i64, FxHashMap<Row, Group>>,
    t: Tracking,
}

impl GroupTable {
    /// The bucket `key` belongs in.
    fn start_of(&self, key: &[Value]) -> i64 {
        match self.window.map(|(slot, _)| &key[slot]) {
            Some(Value::Timestamp(start)) => *start,
            _ => 0,
        }
    }

    fn groups(&self) -> impl Iterator<Item = (&Row, &Group)> {
        self.buckets.values().flatten()
    }

    /// Close the epoch's ingest: visit, in key order, every group that
    /// changed since the last call (Update mode emits them), count its
    /// bytes and move it to the unsaved list.
    pub fn drain_changed(&mut self, mut visit: impl FnMut(&[Value], &[Accumulator])) {
        let mut changed = std::mem::take(&mut self.t.changed);
        let mut keys: Vec<&[Value]> = changed.iter().collect();
        keys.sort_unstable();
        self.t.puts += keys.len() as u64;
        for key in keys {
            let start = self.start_of(key);
            let group = self.buckets.get_mut(&start).and_then(|b| b.get_mut(key));
            let group = group.expect("a changed key is a live group");
            visit(key, &group.accs);
            let bytes = entry_bytes(key, &group.accs);
            self.t.bytes = self.t.bytes + bytes as usize - group.bytes as usize;
            group.bytes = bytes;
            if group.unsaved != self.t.save_gen {
                group.unsaved = self.t.save_gen;
                self.t.unsaved.push(key);
            }
        }
        // The list keeps its buffer: the next epoch's pushes fault no
        // fresh pages in.
        changed.values.clear();
        self.t.changed = changed;
        self.t.epoch_gen = self.t.epoch_gen.wrapping_add(1);
        if self.t.epoch_gen == 0 {
            // Wrapped: a stamp from 2^32 epochs ago must not read as
            // current. No group is on the (just drained) list.
            self.buckets.values_mut().flatten().for_each(|(_, g)| g.changed = u32::MAX);
        }
    }

    /// Drop every group whose window closed at `watermark_us`
    /// (`start + size <= watermark_us`), whole buckets at a time.
    pub fn evict_closed(&mut self, watermark_us: i64) {
        let Some((slot, size)) = self.window else { return };
        let t = &mut self.t;
        let mut listed = false;
        while let Some(bucket) = self.buckets.first_entry() {
            if bucket.key().saturating_add(size) > watermark_us {
                break;
            }
            for (key, group) in bucket.remove() {
                t.len -= 1;
                t.bytes -= group.bytes as usize;
                t.evictions += 1;
                listed |= group.unsaved == t.save_gen || group.changed == t.epoch_gen;
                if group.born != t.save_gen {
                    t.removed.insert(key);
                }
            }
        }
        if listed {
            // Only when a checkpoint was skipped or failed since the
            // groups changed: the lists hold live groups only.
            let open = |key: &[Value]| match key[slot] {
                Value::Timestamp(start) => start.saturating_add(size) > watermark_us,
                _ => true,
            };
            t.unsaved.retain(open);
            t.changed.retain(open);
        }
    }
}

/// Bytes of a group's untyped entry — what `OpState` would count for
/// it — saturating at what [`Group::bytes`] holds.
fn entry_bytes(key: &[Value], accs: &[Accumulator]) -> u32 {
    let values = accs.iter().map(Accumulator::state_bytes).sum();
    let bytes = OpState::entry_bytes_of(Row::approx_bytes_of(key), values);
    u32::try_from(bytes).unwrap_or(u32::MAX)
}

fn put_group(out: &mut Vec<u8>, key: &[Value], group: &Group) {
    put_values(out, key);
    put_value(out, &Value::Null); // no timeout
    put_varint(out, group.accs.len() as u64);
    group.accs.iter().for_each(|a| a.put_state(out));
}

impl TypedTable for GroupTable {
    fn num_keys(&self) -> usize {
        self.t.len
    }

    fn approx_bytes(&self) -> usize {
        self.t.bytes
    }

    fn is_clean(&self) -> bool {
        self.t.changed.len() + self.t.unsaved.len() + self.t.removed.len() == 0
    }

    fn encode(&self, full: bool, out: &mut Vec<u8>) {
        if full {
            put_varint(out, self.t.len as u64);
            self.groups().for_each(|(k, g)| put_group(out, k.values(), g));
            put_varint(out, 0);
        } else {
            put_varint(out, self.t.unsaved.len() as u64);
            for key in self.t.unsaved.iter() {
                put_group(out, key, &self.buckets[&self.start_of(key)][key]);
            }
            put_varint(out, self.t.removed.len() as u64);
            self.t.removed.iter().for_each(|k| put_row(out, k));
        }
    }

    fn clear_tracking(&mut self) {
        self.t.unsaved.values.clear();
        self.t.removed.clear();
        self.t.save_gen = self.t.save_gen.wrapping_add(1);
        if self.t.save_gen == 0 {
            // Wrapped (as in `drain_changed`): every group is saved.
            let stale = |(_, g): (_, &mut Group)| (g.unsaved, g.born) = (u32::MAX, u32::MAX);
            self.buckets.values_mut().flatten().for_each(stale);
        }
    }

    fn take_counts(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.t.puts), std::mem::take(&mut self.t.evictions))
    }

    fn demote(self: Box<Self>) -> Untyped {
        let t = self.t;
        let entry = |(key, g): (Row, Group)| {
            let unsaved = g.unsaved == t.save_gen || g.changed == t.epoch_gen;
            (key, StateEntry::new(g.accs.iter().map(Accumulator::state).collect()), unsaved)
        };
        Untyped {
            entries: self.buckets.into_values().flatten().map(entry).collect(),
            removed: t.removed.into_iter().collect(),
        }
    }
}

/// Hash aggregation with mergeable, serializable group state.
pub struct HashAggregator {
    input_schema: SchemaRef,
    group_exprs: Vec<Expr>,
    window: Option<WindowSpec>,
    aggregates: Vec<AggregateExpr>,
    output_schema: SchemaRef,
    /// The private table of batch use; empty (and unused) when the
    /// table is the state store's.
    table: GroupTable,
}

impl HashAggregator {
    pub fn new(
        input_schema: SchemaRef,
        group_exprs: Vec<Expr>,
        aggregates: Vec<AggregateExpr>,
    ) -> Result<HashAggregator> {
        let mut window = None;
        for (i, g) in group_exprs.iter().enumerate() {
            if let Expr::Window {
                time,
                size_us,
                slide_us,
            } = strip_alias(g)
            {
                if window.is_some() {
                    return Err(SsError::Plan(
                        "at most one window() grouping key is supported".into(),
                    ));
                }
                window = Some(WindowSpec {
                    slot: i,
                    time: (**time).clone(),
                    size_us: *size_us,
                    slide_us: *slide_us,
                });
            }
        }
        let output_schema = Self::compute_output_schema(&input_schema, &group_exprs, &aggregates)?;
        let mut agg = HashAggregator {
            input_schema,
            group_exprs,
            window,
            aggregates,
            output_schema,
            table: GroupTable::default(),
        };
        agg.table = agg.new_table();
        Ok(agg)
    }

    /// An empty table for this aggregation's keys.
    fn new_table(&self) -> GroupTable {
        let list = || KeyList { values: Vec::new(), arity: self.group_exprs.len() };
        GroupTable {
            window: self.window.as_ref().map(|w| (w.slot, w.size_us)),
            buckets: BTreeMap::new(),
            t: Tracking { changed: list(), unsaved: list(), ..Tracking::default() },
        }
    }

    fn compute_output_schema(
        input_schema: &Schema,
        group_exprs: &[Expr],
        aggregates: &[AggregateExpr],
    ) -> Result<SchemaRef> {
        let mut fields = Vec::new();
        for g in group_exprs {
            if let Expr::Window { .. } = strip_alias(g) {
                fields.push(Field::not_null("window_start", DataType::Timestamp));
                fields.push(Field::not_null("window_end", DataType::Timestamp));
            } else {
                fields.push(Field {
                    name: g.output_name(),
                    data_type: g.data_type(input_schema)?,
                    nullable: g.nullable(input_schema),
                });
            }
        }
        for a in aggregates {
            fields.push(Field::new(a.output_name(), a.result_type(input_schema)?));
        }
        Ok(Arc::new(Schema::new(fields)?))
    }

    /// The aggregation output schema (window keys expanded to
    /// start/end).
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// The input schema this aggregator was planned against.
    pub fn input_schema(&self) -> &SchemaRef {
        &self.input_schema
    }

    /// Number of live groups (= state size, the metric §2.3 says
    /// operators monitor).
    pub fn num_groups(&self) -> usize {
        self.table.t.len
    }

    /// Number of leading output columns that form the group key
    /// (window keys count as two: start and end).
    pub fn num_key_columns(&self) -> usize {
        self.output_schema.len() - self.aggregates.len()
    }

    /// [`HashAggregator::ingest`] into the private table.
    pub fn update_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        let mut table = std::mem::take(&mut self.table);
        let result = self.ingest(&mut table, batch);
        self.table = table;
        result
    }

    /// Ingest one batch of input rows: evaluate the grouping and
    /// aggregate argument columns once (vectorized), then update the
    /// group of every `(row, group key)` in arrival order. Rows with a
    /// NULL event time are dropped and a sliding window fans one row
    /// out to `size/slide` keys.
    pub fn ingest(&self, table: &mut GroupTable, batch: &RecordBatch) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        // The window slot gets the raw timestamp; expansion happens per
        // row below.
        let mut key_cols: Vec<Column> = Vec::with_capacity(self.group_exprs.len());
        for (i, g) in self.group_exprs.iter().enumerate() {
            let col = match &self.window {
                Some(w) if w.slot == i => evaluate(&w.time, batch)?,
                _ => evaluate(g, batch)?,
            };
            key_cols.push(col);
        }
        let arg_cols: Vec<Option<Column>> = self
            .aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| evaluate(e, batch)).transpose())
            .collect::<Result<_>>()?;
        // Typed access to the window timestamp column (avoids a Value
        // allocation per row on the hot path).
        let window_info = match &self.window {
            Some(w) => Some((w.slot, w.size_us, w.slide_us, key_cols[w.slot].as_i64()?)),
            None => None,
        };
        let mut key_buf: Vec<Value> = Vec::with_capacity(self.group_exprs.len());
        // Sliding windows need the expansion list; tumbling windows (the
        // common case) take the inline single-window path.
        let mut starts_buf: Vec<i64> = Vec::new();
        // The bucket of the window last written to: consecutive rows
        // mostly share it, and then a row costs one hash probe.
        let GroupTable { buckets, t, .. } = table;
        let mut bucket: Option<(i64, &mut FxHashMap<Row, Group>)> = None;
        for row in 0..batch.num_rows() {
            starts_buf.clear();
            match &window_info {
                Some((_, size, slide, tc)) => match tc.get(row) {
                    // Rows with NULL event time are dropped.
                    None => continue,
                    Some(&ts) if slide == size => {
                        starts_buf.push(ss_common::time::window_start(ts, *size, 0));
                    }
                    Some(&ts) => {
                        starts_buf.extend(
                            ss_common::time::windows_for(ts, *size, *slide)
                                .into_iter()
                                .map(|(s, _)| s),
                        );
                    }
                },
                None => starts_buf.push(0),
            }
            for &start in &starts_buf {
                key_buf.clear();
                for (i, kc) in key_cols.iter().enumerate() {
                    match &window_info {
                        Some((slot, ..)) if *slot == i => key_buf.push(Value::Timestamp(start)),
                        _ => key_buf.push(kc.value(row)),
                    }
                }
                if bucket.as_ref().is_none_or(|(s, _)| *s != start) {
                    bucket = Some((start, buckets.entry(start).or_default()));
                }
                let groups = &mut *bucket.as_mut().expect("set above").1;
                let key = Row::new(std::mem::take(&mut key_buf));
                key_buf = upsert(groups, t, &self.aggregates, key, |accs| {
                    for (acc, arg) in accs.iter_mut().zip(&arg_cols) {
                        match arg {
                            Some(col) => acc.update_value(&col.value(row))?,
                            None => acc.update_value(&COUNT_STAR_ARG)?,
                        }
                    }
                    Ok(())
                })?;
            }
        }
        Ok(())
    }

    fn batch_of<'a>(&self, groups: impl Iterator<Item = (&'a Row, &'a Group)>) -> Result<RecordBatch> {
        let mut groups: Vec<(&Row, &Group)> = groups.collect();
        groups.sort_unstable_by_key(|(key, _)| *key);
        let rows: Vec<Row> =
            groups.iter().map(|(k, g)| self.output_row(k.values(), &g.accs)).collect();
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// The whole result table, sorted by key for determinism (Complete
    /// mode).
    pub fn finish(&self, table: &GroupTable) -> Result<RecordBatch> {
        self.batch_of(table.groups())
    }

    /// [`HashAggregator::finish`] of the private table (batch
    /// execution).
    pub fn finish_all(&self) -> Result<RecordBatch> {
        self.finish(&self.table)
    }

    /// Append-mode finalization: the rows, sorted by key, of every
    /// windowed group whose `window_end <= watermark_us` — the groups
    /// [`GroupTable::evict_closed`] then drops. Errors if the grouping
    /// has no window (such queries cannot use Append mode; the analyzer
    /// enforces this).
    pub fn finalized(&self, table: &GroupTable, watermark_us: i64) -> Result<RecordBatch> {
        let w = self.window.as_ref().ok_or_else(|| {
            SsError::Plan("append finalization requires a window() grouping key".into())
        })?;
        let closed = table.buckets.range(..=watermark_us.saturating_sub(w.size_us));
        self.batch_of(closed.flat_map(|(_, bucket)| bucket))
    }

    /// The output row of one group.
    pub fn output_row(&self, key: &[Value], accs: &[Accumulator]) -> Row {
        let mut out = Vec::with_capacity(self.output_schema.len());
        for (i, v) in key.iter().enumerate() {
            match &self.window {
                Some(w) if w.slot == i => {
                    let start = match v {
                        Value::Timestamp(s) => *s,
                        _ => unreachable!("window slot always holds a timestamp"),
                    };
                    out.push(Value::Timestamp(start));
                    out.push(Value::Timestamp(start + w.size_us));
                }
                _ => out.push(v.clone()),
            }
        }
        for a in accs {
            out.push(a.evaluate());
        }
        Row::new(out)
    }

    // ---- state-store integration (§6.1) ----

    /// The aggregate's table in its state namespace `op`, which owns
    /// it. Whatever untyped entries the namespace holds — a restored
    /// checkpoint, a repartitioned or spill-reloaded shard — are
    /// adopted first: moved into a fresh table, delta tracking
    /// included.
    pub fn table<'a>(&self, op: &'a mut OpState) -> Result<&'a mut GroupTable> {
        op.table(|untyped| {
            let mut table = self.new_table();
            for (key, entry, unsaved) in untyped.entries {
                self.restore_entry(&mut table, key, &entry.values, unsaved)?;
            }
            table.t.removed = untyped.removed.into_iter().collect();
            Ok(table)
        })
    }

    /// Adopt one checkpointed entry, as a group an earlier epoch left.
    fn restore_entry(
        &self,
        table: &mut GroupTable,
        key: Row,
        states: &[Row],
        unsaved: bool,
    ) -> Result<()> {
        if states.len() != self.aggregates.len() {
            return Err(SsError::Serde(format!(
                "state entry has {} aggregates, expected {}",
                states.len(),
                self.aggregates.len()
            )));
        }
        let mut accs: Vec<Accumulator> =
            self.aggregates.iter().map(|a| a.create_accumulator()).collect();
        for (acc, st) in accs.iter_mut().zip(states) {
            acc.merge(st)?;
        }
        let bytes = entry_bytes(key.values(), &accs);
        let t = &mut table.t;
        let behind = t.save_gen.wrapping_sub(1);
        if unsaved {
            t.unsaved.push(key.values());
        }
        let group = Group {
            accs,
            changed: t.epoch_gen.wrapping_sub(1),
            unsaved: if unsaved { t.save_gen } else { behind },
            born: behind,
            bytes,
        };
        t.len += 1;
        t.bytes += bytes as usize;
        let start = table.start_of(key.values());
        table.buckets.entry(start).or_default().insert(key, group);
        Ok(())
    }

    // ---- partitioned execution (map-side combine, reduce-side merge) ----
    //
    // A map task aggregates its chunk in a `fresh_clone` with the
    // ordinary `update_batch` and ships the groups (`into_partials`);
    // the partition owning a key folds them into its table
    // (`merge_partials`). The result is byte-identical to one `ingest`
    // of the whole input, whatever order partials arrive in, when
    // `is_combinable`.

    /// An empty aggregator with the same configuration: a map task's
    /// local combiner.
    pub fn fresh_clone(&self) -> HashAggregator {
        HashAggregator {
            input_schema: self.input_schema.clone(),
            group_exprs: self.group_exprs.clone(),
            window: self.window.clone(),
            aggregates: self.aggregates.clone(),
            output_schema: self.output_schema.clone(),
            table: self.new_table(),
        }
    }

    /// True when every aggregate's partials merge order-free, by
    /// function and resolved result type.
    pub fn is_combinable(&self) -> bool {
        let results = &self.output_schema.fields()[self.num_key_columns()..];
        self.aggregates
            .iter()
            .zip(results)
            .all(|(a, f)| a.func.is_combinable(f.data_type))
    }

    /// The private table as partials: one per key `update_batch`
    /// touched.
    pub fn into_partials(self) -> Vec<Partial> {
        let groups = self.table.buckets.into_values().flatten();
        groups.map(|(k, g)| (k, g.accs)).collect()
    }

    /// Fold partials in: new keys become groups and every key is
    /// marked changed — the groups and changed list `ingest` of the
    /// partials' source rows would leave.
    pub fn merge_partials(&self, table: &mut GroupTable, partials: Vec<Partial>) -> Result<()> {
        for (key, partial) in partials {
            if partial.len() != self.aggregates.len() {
                return Err(SsError::Internal(format!(
                    "partial has {} accumulators, expected {}",
                    partial.len(),
                    self.aggregates.len()
                )));
            }
            let groups = table.buckets.entry(table.start_of(key.values())).or_default();
            upsert(groups, &mut table.t, &self.aggregates, key, |accs| {
                for (acc, p) in accs.iter_mut().zip(partial) {
                    acc.combine(p)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// One group of a map task's local aggregation: key and accumulators.
pub type Partial = (Row, Vec<Accumulator>);

/// What `count(*)`, which has no argument column, is fed per row: any
/// non-NULL value counts.
const COUNT_STAR_ARG: Value = Value::Int64(1);

/// Feed one update into `key`'s group in its window's bucket, creating
/// the group on first sight, and put it on the changed list the first
/// time this epoch. Returns the buffer to build the next key in:
/// `key`'s own when it was only needed for the lookup, else a fresh one
/// — sized exactly, as it may become a group's key and a grown `Vec`
/// would double its footprint.
fn upsert(
    groups: &mut FxHashMap<Row, Group>,
    t: &mut Tracking,
    aggregates: &[AggregateExpr],
    key: Row,
    update: impl FnOnce(&mut [Accumulator]) -> Result<()>,
) -> Result<Vec<Value>> {
    match groups.get_mut(&key) {
        Some(group) => {
            update(&mut group.accs)?;
            if group.changed != t.epoch_gen {
                group.changed = t.epoch_gen;
                t.changed.push(key.values());
            }
            Ok(key.0)
        }
        None => {
            let mut accs: Vec<Accumulator> =
                aggregates.iter().map(|a| a.create_accumulator()).collect();
            update(&mut accs)?;
            // A key evicted since the last checkpoint and now back is
            // in that checkpoint (whatever `born` would say) and no
            // longer removed.
            let saved = !t.removed.is_empty() && t.removed.remove(&key);
            let behind = t.save_gen.wrapping_sub(1);
            let group = Group {
                accs,
                changed: t.epoch_gen,
                unsaved: behind,
                born: if saved { behind } else { t.save_gen },
                bytes: 0,
            };
            t.len += 1;
            t.changed.push(key.values());
            let next = Vec::with_capacity(key.len());
            groups.insert(key, group);
            Ok(next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::rng::XorShift64;
    use ss_common::row;
    use ss_common::time::secs;
    use ss_expr::{avg, col, count, count_star, max, min, sum, window, window_sliding};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("campaign", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
            Field::new("v", DataType::Int64),
        ])
    }

    fn batch(rows: &[Row]) -> RecordBatch {
        RecordBatch::from_rows(schema(), rows).unwrap()
    }

    /// Close the epoch on the private table: the changed rows.
    fn drain(agg: &mut HashAggregator) -> Vec<Row> {
        let mut table = std::mem::take(&mut agg.table);
        let mut rows = Vec::new();
        table.drain_changed(|key, accs| rows.push(agg.output_row(key, accs)));
        agg.table = table;
        rows
    }

    /// The table's checkpoint entries, decoded and sorted.
    fn saved(table: &GroupTable, full: bool) -> (Vec<(Row, Vec<Row>)>, Vec<Row>) {
        let mut out = Vec::new();
        table.encode(full, &mut out);
        let mut rd = ss_common::codec::Reader(&out);
        let mut entries: Vec<(Row, Vec<Row>)> = (0..rd.varint().unwrap())
            .map(|_| {
                let key = rd.row().unwrap();
                assert_eq!(rd.value().unwrap(), Value::Null);
                (key, (0..rd.varint().unwrap()).map(|_| rd.row().unwrap()).collect())
            })
            .collect();
        let mut removed: Vec<Row> = (0..rd.varint().unwrap()).map(|_| rd.row().unwrap()).collect();
        assert!(rd.0.is_empty());
        entries.sort();
        removed.sort();
        (entries, removed)
    }

    #[test]
    fn group_by_key_counts() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(0), 1i64],
            row!["b", Value::Timestamp(0), 2i64],
            row!["a", Value::Timestamp(0), 3i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(out.to_rows(), vec![row!["a", 2i64], row!["b", 1i64]]);
    }

    #[test]
    fn global_aggregate_single_group() {
        let mut agg = HashAggregator::new(schema(), vec![], vec![sum(col("v")), avg(col("v"))])
            .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(0), 1i64],
            row!["a", Value::Timestamp(0), 3i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int64(4));
        assert_eq!(out.value(0, 1), Value::Float64(2.0));
    }

    #[test]
    fn tumbling_window_grouping() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap(), col("campaign")],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(9)), 0i64],
            row!["a", Value::Timestamp(secs(15)), 0i64],
            row!["b", Value::Timestamp(secs(5)), 0i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(
            out.schema().field_names(),
            vec!["window_start", "window_end", "campaign", "count(*)"]
        );
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), "a", 2i64],
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), "b", 1i64],
                row![
                    Value::Timestamp(secs(10)),
                    Value::Timestamp(secs(20)),
                    "a",
                    1i64
                ],
            ]
        );
    }

    #[test]
    fn sliding_window_expands_rows() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window_sliding(col("time"), "10 seconds", "5 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[row!["a", Value::Timestamp(secs(7)), 0i64]]))
            .unwrap();
        let out = agg.finish_all().unwrap();
        // t=7s belongs to windows [0,10) and [5,15).
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), 1i64],
                row![Value::Timestamp(secs(5)), Value::Timestamp(secs(15)), 1i64],
            ]
        );
    }

    #[test]
    fn null_event_time_rows_dropped() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Null, 0i64],
            row!["a", Value::Timestamp(secs(1)), 0i64],
        ]))
        .unwrap();
        assert_eq!(agg.finish_all().unwrap().num_rows(), 1);
    }

    #[test]
    fn changed_keys_track_epochs() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        agg.update_batch(&batch(&[
            row!["b", Value::Timestamp(0), 0i64],
            row!["a", Value::Timestamp(0), 0i64],
            row!["b", Value::Timestamp(0), 0i64],
        ]))
        .unwrap();
        assert_eq!(drain(&mut agg), vec![row!["a", 1i64], row!["b", 2i64]]);
        // Nothing changed since the drain.
        assert!(drain(&mut agg).is_empty());
        agg.update_batch(&batch(&[row!["b", Value::Timestamp(0), 0i64]]))
            .unwrap();
        assert_eq!(drain(&mut agg), vec![row!["b", 3i64]]);
    }

    #[test]
    fn finalized_emits_and_evict_drops_closed_windows() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(15)), 0i64],
        ]))
        .unwrap();
        // Watermark at 12s closes [0,10) only.
        let out = agg.finalized(&agg.table, secs(12)).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![row![Value::Timestamp(0), Value::Timestamp(secs(10)), 1i64]]
        );
        agg.table.evict_closed(secs(12));
        assert_eq!(agg.num_groups(), 1);
        // Finalizing again at the same watermark emits nothing.
        assert_eq!(agg.finalized(&agg.table, secs(12)).unwrap().num_rows(), 0);
    }

    #[test]
    fn finalized_requires_window() {
        let agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg.finalized(&agg.table, 0).is_err());
    }

    #[test]
    fn evict_closed_drops_state_silently() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(25)), 0i64],
        ]))
        .unwrap();
        drain(&mut agg);
        agg.table.clear_tracking(); // both groups are in a checkpoint
        agg.table.evict_closed(secs(20));
        assert_eq!(agg.num_groups(), 1);
        assert_eq!(saved(&agg.table, false), (vec![], vec![row![Value::Timestamp(0)]]));
        assert_eq!(agg.table.take_counts(), (2, 1));
    }

    #[test]
    fn delta_lists_follow_evictions_recreations_and_failed_checkpoints() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        let early = batch(&[row!["a", Value::Timestamp(secs(5)), 0i64]]);
        let key = row![Value::Timestamp(0)];
        let one = (key.clone(), vec![row![1i64]]);
        // Created and evicted between two checkpoints: in neither list.
        agg.update_batch(&early).unwrap();
        drain(&mut agg);
        assert_eq!(saved(&agg.table, false), (vec![one.clone()], vec![]));
        agg.table.evict_closed(secs(20));
        assert_eq!(saved(&agg.table, false), (vec![], vec![]));
        assert!(agg.table.is_clean() && agg.table.approx_bytes() == 0);
        // Checkpointed, then evicted: removed. A checkpoint that fails
        // (no `clear_tracking`) encodes the same delta again.
        agg.update_batch(&early).unwrap();
        drain(&mut agg);
        agg.table.clear_tracking();
        agg.table.evict_closed(secs(20));
        assert_eq!(saved(&agg.table, false), (vec![], vec![key.clone()]));
        assert_eq!(saved(&agg.table, false), (vec![], vec![key.clone()]));
        // Re-created before the next checkpoint: unsaved, not removed…
        agg.update_batch(&early).unwrap();
        drain(&mut agg);
        assert_eq!(saved(&agg.table, false), (vec![one.clone()], vec![]));
        // …and evicted again: removed once more, as it is still on disk.
        agg.table.evict_closed(secs(20));
        assert_eq!(saved(&agg.table, false), (vec![], vec![key]));
        agg.table.clear_tracking();
        assert!(agg.table.is_clean());
        assert_eq!(saved(&agg.table, true), (vec![], vec![]));
    }

    #[test]
    fn state_round_trip_matches_continuous_run() {
        let rows1 = [row!["a", Value::Timestamp(0), 5i64]];
        let rows2 = [
            row!["a", Value::Timestamp(0), 7i64],
            row!["b", Value::Timestamp(0), 1i64],
        ];
        let make = || {
            HashAggregator::new(
                schema(),
                vec![col("campaign")],
                vec![sum(col("v")), count_star()],
            )
            .unwrap()
        };
        // One aggregator sees everything.
        let mut full = make();
        full.update_batch(&batch(&rows1)).unwrap();
        full.update_batch(&batch(&rows2)).unwrap();
        // Another is checkpointed after epoch 1 and restored fresh.
        let mut first = make();
        first.update_batch(&batch(&rows1)).unwrap();
        drain(&mut first);
        let mut restored = make();
        for (k, s) in saved(&first.table, true).0 {
            let mut table = std::mem::take(&mut restored.table);
            restored.restore_entry(&mut table, k, &s, false).unwrap();
            restored.table = table;
        }
        assert_eq!(restored.table.approx_bytes(), first.table.approx_bytes());
        restored.update_batch(&batch(&rows2)).unwrap();
        assert_eq!(
            restored.finish_all().unwrap(),
            full.finish_all().unwrap()
        );
    }

    // ---- map-side combine: partials merged in any order ----

    fn wide_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("k", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ])
    }

    fn combinable_aggregates() -> Vec<AggregateExpr> {
        vec![
            count_star(),
            count(col("v")),
            sum(col("v")),
            min(col("v")),
            max(col("v")),
            min(col("f")),
            max(col("f")),
        ]
    }

    /// Everything the engine reads off an aggregator after ingest:
    /// the result table, the changed keys and the checkpointable
    /// state. Rows compare by `Value::total_cmp`, i.e. bit-exactly on
    /// floats (`-0.0 != 0.0`, `NaN == NaN` only for equal payloads).
    fn observe(agg: &mut HashAggregator) -> (Vec<Row>, Vec<Row>, Vec<(Row, Vec<Row>)>) {
        let table = agg.finish_all().unwrap().to_rows();
        let changed = drain(agg);
        (table, changed, saved(&agg.table, false).0)
    }

    /// Cut `rows` at `cuts`, aggregate each chunk in a fresh clone,
    /// merge all the partials in an order drawn from `rng`, and require
    /// the result to be indistinguishable from one `update_batch`.
    fn assert_combine_matches_serial(
        template: &HashAggregator,
        rows: &[Row],
        cuts: &[usize],
        rng: &mut XorShift64,
    ) {
        let to_batch = |rows: &[Row]| RecordBatch::from_rows(wide_schema(), rows).unwrap();
        let mut serial = template.fresh_clone();
        serial.update_batch(&to_batch(rows)).unwrap();
        let mut partials = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&rows.len()]) {
            let mut local = template.fresh_clone();
            local.update_batch(&to_batch(&rows[from..to])).unwrap();
            partials.extend(local.into_partials());
            from = to;
        }
        for i in (1..partials.len()).rev() {
            partials.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        let mut merged = template.fresh_clone();
        let mut table = std::mem::take(&mut merged.table);
        merged.merge_partials(&mut table, partials).unwrap();
        merged.table = table;
        assert_eq!(observe(&mut merged), observe(&mut serial), "cuts {cuts:?}");
    }

    #[test]
    fn merged_partials_match_update_batch_on_random_splits() {
        let windows: [Option<Expr>; 3] = [
            None,
            Some(window(col("time"), "10 seconds").unwrap()),
            Some(window_sliding(col("time"), "10 seconds", "5 seconds").unwrap()),
        ];
        let floats = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, -2.25, f64::INFINITY];
        let ints = [i64::MAX, i64::MIN, i64::MAX - 1, 1, -1, 0, 42];
        for seed in 1..=60u64 {
            let mut rng = XorShift64::new(seed);
            let pick = |rng: &mut XorShift64, n: usize| rng.gen_range(0, n as u64) as usize;
            let n = pick(&mut rng, 120);
            let rows: Vec<Row> = (0..n)
                .map(|_| {
                    // One hot key, a few cold ones, a key whose
                    // arguments are always NULL, and NULL keys.
                    let k = match pick(&mut rng, 10) {
                        0..=5 => Value::str("hot"),
                        6 => Value::str("nulls"),
                        7 => Value::Null,
                        _ => Value::str(format!("k{}", pick(&mut rng, 4))),
                    };
                    let all_null = k == Value::str("nulls");
                    let time = match pick(&mut rng, 8) {
                        0 => Value::Null,
                        _ => Value::Timestamp(secs(pick(&mut rng, 40) as i64)),
                    };
                    let v = match pick(&mut rng, 4) {
                        0 => Value::Null,
                        _ if all_null => Value::Null,
                        _ => Value::Int64(ints[pick(&mut rng, ints.len())]),
                    };
                    let f = match pick(&mut rng, 4) {
                        0 => Value::Null,
                        _ if all_null => Value::Null,
                        _ => Value::Float64(floats[pick(&mut rng, floats.len())]),
                    };
                    Row::new(vec![k, time, v, f])
                })
                .collect();
            let mut cuts: Vec<usize> = (0..pick(&mut rng, 6))
                .map(|_| pick(&mut rng, n + 1))
                .collect();
            cuts.sort_unstable();
            for w in &windows {
                let mut group_exprs: Vec<Expr> = w.iter().cloned().collect();
                group_exprs.push(col("k"));
                let template =
                    HashAggregator::new(wide_schema(), group_exprs, combinable_aggregates())
                        .unwrap();
                assert!(template.is_combinable());
                assert_combine_matches_serial(&template, &rows, &cuts, &mut rng);
            }
        }
    }

    #[test]
    fn single_row_partials_merge_order_free_at_the_edges() {
        // SUM wraps past i64::MAX, MIN/MAX see both zeros and both NaN
        // signs, one group's arguments are all NULL (SUM stays NULL,
        // COUNT(v) is 0, the group is still emitted).
        let rows = [
            row!["a", Value::Timestamp(0), i64::MAX, 0.0],
            row!["a", Value::Timestamp(0), 1i64, -0.0],
            row!["a", Value::Timestamp(0), i64::MAX, f64::NAN],
            row!["a", Value::Timestamp(0), Value::Null, -f64::NAN],
            row!["n", Value::Timestamp(0), Value::Null, Value::Null],
            row!["n", Value::Timestamp(0), Value::Null, Value::Null],
        ];
        let template =
            HashAggregator::new(wide_schema(), vec![col("k")], combinable_aggregates()).unwrap();
        let cuts: Vec<usize> = (1..rows.len()).collect();
        for seed in 1..=50 {
            assert_combine_matches_serial(&template, &rows, &cuts, &mut XorShift64::new(seed));
        }
        let mut serial = template.fresh_clone();
        serial
            .update_batch(&RecordBatch::from_rows(wide_schema(), &rows).unwrap())
            .unwrap();
        let out = serial.finish_all().unwrap().to_rows();
        assert_eq!(
            out[0],
            row![
                "a",
                4i64,
                3i64,
                i64::MAX.wrapping_add(1).wrapping_add(i64::MAX),
                1i64,
                i64::MAX,
                -f64::NAN,
                f64::NAN
            ]
        );
        let mut all_null = vec![Value::str("n"), Value::Int64(2), Value::Int64(0)];
        all_null.resize(8, Value::Null);
        assert_eq!(out[1], Row::new(all_null));
    }

    #[test]
    fn combinable_is_decided_from_function_and_resolved_type() {
        let is = |aggregates: Vec<AggregateExpr>| {
            HashAggregator::new(wide_schema(), vec![col("k")], aggregates)
                .unwrap()
                .is_combinable()
        };
        assert!(is(combinable_aggregates()));
        assert!(is(vec![]));
        for not in [sum(col("f")), avg(col("v")), avg(col("f"))] {
            assert!(!is(vec![not.clone()]), "{not}");
            assert!(!is(vec![count_star(), not.clone(), min(col("v"))]), "{not}");
        }
    }

    #[test]
    fn merge_partials_rejects_wrong_arity_and_type() {
        let agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        let mut table = agg.new_table();
        for bad in [
            vec![],
            vec![Accumulator::Count { n: 1 }, Accumulator::Count { n: 1 }],
            vec![Accumulator::Avg { sum: 1.0, count: 1 }],
        ] {
            let err = agg.merge_partials(&mut table, vec![(row!["a"], bad)]).unwrap_err();
            assert!(matches!(err, SsError::Internal(_)), "{err:?}");
        }
    }

    #[test]
    fn restore_entry_validates_arity() {
        let agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        let states = [row![1i64], row![2i64]];
        assert!(agg.restore_entry(&mut agg.new_table(), row!["a"], &states, false).is_err());
    }
}
