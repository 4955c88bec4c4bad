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
//!   operator's entry in the state store, which owns the only copy:
//!   declared by the plan before any restore, refilled by restore and
//!   spill reload (it holds its aggregates), lent for the epoch
//!   ([`HashAggregator::table`]). An epoch
//!   [`HashAggregator::ingest`]s its new data (or
//!   [`HashAggregator::merge_partials`] at N partitions), then
//!   [`HashAggregator::drain_changed`] closes it: Update mode emits the
//!   groups it visits, Complete mode [`HashAggregator::finish`], Append
//!   mode [`HashAggregator::finalized`] once the event-time watermark
//!   passes a window's end (§4.3.1); [`GroupTable::evict_closed`] then
//!   drops what the watermark closed. The store checkpoints, counts and
//!   spills the table through `ss_state::TypedTable` (§6.1), which
//!   writes its key and slot columns as `ss_state::section` group runs,
//!   a run per window. Nothing is copied between kernel and store and
//!   nothing scans the table: it lists the groups changed this epoch
//!   and those not yet in a successful checkpoint, keeps the keys
//!   removed since, and buckets its groups by window.
//!
//! Keys: the table buckets groups by window start, and within a bucket
//! a key takes one of two forms, chosen from the input schema when the
//! table is made. When the one key column besides a window in slot 0
//! (or the only key column) is BIGINT or TIMESTAMP, the key is that
//! integer ([`Key::Int`], NULL as `None`) — `(window, user)` and
//! `(window, campaign)` are — so a row costs one integer hash. Every
//! other shape keeps the key's values as a [`Row`]. `Value`s are only
//! rebuilt where they leave the table as partials. Every output mode
//! emits its groups, in key order, a column at a time from the key and
//! slot columns; only row keys and `Any` states pass through `Value`.
//!
//! Layout: a bucket is a key index (key → ordinal and changed stamp),
//! each group's key and save tracking, and per aggregate a column of
//! states by ordinal, of a [`SlotKind`] chosen from the function and
//! argument type: a count, an `Option<i64>` (`SUM(BIGINT)`, `MIN`/`MAX`
//! over BIGINT or TIMESTAMP) fed from the typed argument column with no
//! `Value` per row, or an [`Accumulator`]. What leaves the table reads a
//! state as the `Accumulator` it stands for, and partials and restores
//! come in through one. The lists name groups `(window start, ordinal)`:
//! an integer-keyed table sorts them on one packed `u128` each. Eviction
//! moves a closed bucket's key index to the removed keys and frees the
//! rest.
//!
//! Event-time windows: one `window()` grouping key is supported; each
//! row expands into `size/slide` windows (one for tumbling windows), the
//! same assignment Spark's window expression produces. Rows whose
//! timestamp is NULL are dropped from windowed aggregation, as in Spark.

use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::codec::{put_row, put_varint};
use ss_common::column::TypedColumn;
use ss_common::time::windows_for;
use ss_common::{
    Column, ColumnBuilder, DataType, Field, RecordBatch, Result, Row, Schema, SchemaRef, SsError,
    Value,
};
use ss_expr::agg::{Accumulator, AggregateFunction};
use ss_expr::eval::evaluate;
use ss_expr::{AggregateExpr, Expr};
use ss_plan::plan::strip_alias;
use ss_state::section::{key_row, put_header, put_ints, put_run_head, KeyForm, SlotForm};
use ss_state::{OpState, StateEntry, TypedTable};

/// The window grouping key, if any.
#[derive(Debug, Clone)]
struct WindowSpec {
    /// Index of the window expression within `group_exprs`.
    slot: usize,
    time: Expr,
    size_us: i64,
    slide_us: i64,
}

/// A group's key within its window's bucket (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    /// The integer key column's value; the bucket holds the window.
    Int(Option<i64>),
    /// One value per group expression, the window slot holding the
    /// window start.
    Row(Row),
}

impl Key {
    /// An integer-form key's value.
    fn int(&self) -> Option<i64> {
        match self {
            Key::Int(v) => *v,
            Key::Row(_) => unreachable!("an integer-keyed table holds integer keys"),
        }
    }
}

/// A group as the tracking lists name it: window start, ordinal.
type Listed = (i64, u32);

/// How a table's keys are held, fixed when it is made: the window key's
/// `(slot, size µs)`, and the integer column's type when keys take the
/// [`Key::Int`] form.
#[derive(Debug, Clone, Copy, Default)]
struct KeyShape {
    window: Option<(usize, i64)>,
    int: Option<DataType>,
}

impl KeyShape {
    /// The key's values, as checkpoint entries and partials hold them.
    fn row_of(&self, start: i64, key: Key) -> Row {
        let timestamp = self.int == Some(DataType::Timestamp);
        match key {
            Key::Row(row) => row,
            Key::Int(v) => key_row(timestamp, self.window.is_some(), start, v),
        }
    }

    /// How a checkpoint section holds these keys.
    fn form(&self) -> KeyForm {
        let window = self.window.is_some();
        let int = |ty| KeyForm::Int { timestamp: ty == DataType::Timestamp, window };
        self.int.map_or(KeyForm::Row, int)
    }

    /// A key from its values (a checkpoint, a partial). In the integer
    /// form anything but `[Timestamp, NULL or the column's type]` (or
    /// the value alone) is `Corruption`.
    fn key_of(&self, row: Row) -> Result<(i64, Key)> {
        let Some(ty) = self.int else {
            let start = match self.window.map(|(slot, _)| row.values().get(slot)) {
                Some(Some(Value::Timestamp(start))) => *start,
                _ => 0,
            };
            return Ok((start, Key::Row(row)));
        };
        let int = |v: &Value| match (v, ty) {
            (Value::Null, _) => Some(None),
            (Value::Int64(v), DataType::Int64) | (Value::Timestamp(v), DataType::Timestamp) => {
                Some(Some(*v))
            }
            _ => None,
        };
        let fits = match (self.window, row.values()) {
            (Some(_), [Value::Timestamp(start), v]) => int(v).map(|v| (*start, v)),
            (None, [v]) => int(v).map(|v| (0, v)),
            _ => None,
        };
        let bad = || SsError::Corruption(format!("group key {row} does not fit a {ty} key"));
        fits.map(|(start, v)| (start, Key::Int(v))).ok_or_else(bad)
    }

    /// Bytes of a group's untyped entry — what `OpState` would count for
    /// it — saturating at what [`Group::bytes`] holds.
    fn entry_bytes(&self, bucket: &Bucket, ord: usize) -> u32 {
        // An integer key's values, and a typed slot's state, are scalars
        // of one size whatever they hold.
        let scalars = [Value::Null, Value::Null];
        let key = match &bucket.groups[ord].key {
            Key::Row(row) => row.approx_bytes(),
            Key::Int(_) => Row::approx_bytes_of(&scalars[..1 + usize::from(self.window.is_some())]),
        };
        let one = Row::approx_bytes_of(&scalars[..1]);
        let state = |s: &Slots| if let Slots::Any(_, a) = s { a[ord].state_bytes() } else { one };
        let values = bucket.slots.iter().map(state).sum();
        u32::try_from(OpState::entry_bytes_of(key, values)).unwrap_or(u32::MAX)
    }
}

/// How one aggregate's group states are held (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// `COUNT(*)` and `COUNT(x)`: [`Slots::Count`].
    Count,
    /// `SUM(BIGINT)` (wrapping), `MIN`/`MAX` over BIGINT or TIMESTAMP
    /// (its values' type): [`Slots::Int`], `None` until a non-NULL.
    Sum,
    Min(DataType),
    Max(DataType),
    /// Anything else (`AVG`, floats, strings): [`Slots::Any`].
    Any(AggregateFunction),
}

impl SlotKind {
    fn of(agg: &AggregateExpr, input: &Schema) -> Result<SlotKind> {
        let arg = agg.arg.as_ref().map(|e| e.data_type(input)).transpose()?;
        let int = matches!(arg, Some(DataType::Int64 | DataType::Timestamp));
        Ok(match (agg.func, arg) {
            (AggregateFunction::Count, _) => SlotKind::Count,
            (AggregateFunction::Sum, Some(DataType::Int64)) => SlotKind::Sum,
            (AggregateFunction::Min, Some(ty)) if int => SlotKind::Min(ty),
            (AggregateFunction::Max, Some(ty)) if int => SlotKind::Max(ty),
            (func, _) => SlotKind::Any(func),
        })
    }

    /// A new group's state.
    fn fresh(self) -> Accumulator {
        match self {
            SlotKind::Count => Accumulator::Count { n: 0 },
            SlotKind::Any(func) => AggregateExpr::new(func, None).create_accumulator(),
            int => int.int_acc(None),
        }
    }

    /// How a checkpoint section holds this slot's states.
    fn form(self) -> SlotForm {
        match self {
            SlotKind::Count => SlotForm::Count,
            SlotKind::Min(t) | SlotKind::Max(t) if t == DataType::Timestamp => SlotForm::Timestamp,
            SlotKind::Any(_) => SlotForm::State,
            _ => SlotForm::Int,
        }
    }

    /// The accumulator an `Int` slot holding `v` stands for.
    fn int_acc(self, v: Option<i64>) -> Accumulator {
        let value = |ty| match v {
            None => Value::Null,
            Some(v) if ty == DataType::Timestamp => Value::Timestamp(v),
            Some(v) => Value::Int64(v),
        };
        match self {
            SlotKind::Min(ty) => Accumulator::Min { min: value(ty) },
            SlotKind::Max(ty) => Accumulator::Max { max: value(ty) },
            _ => Accumulator::Sum { sum: value(DataType::Int64) },
        }
    }
}

/// One aggregate's states over a bucket's groups, by ordinal.
#[derive(Debug)]
enum Slots {
    Count(Vec<i64>),
    Int(SlotKind, Vec<Option<i64>>),
    Any(SlotKind, Vec<Accumulator>),
}

/// An aggregate's argument over one batch, as its slots read it.
enum Arg<'a> {
    /// `COUNT(*)`: every row counts.
    Star,
    /// An `Int` slot's BIGINT or TIMESTAMP column.
    Int(&'a TypedColumn<i64>),
    /// Any other column: a `Value` per row (`COUNT(x)` reads validity).
    Any(&'a Column),
}

impl Slots {
    fn new(kind: SlotKind) -> Slots {
        match kind {
            SlotKind::Count => Slots::Count(Vec::new()),
            SlotKind::Any(_) => Slots::Any(kind, Vec::new()),
            int => Slots::Int(int, Vec::new()),
        }
    }

    fn push_fresh(&mut self) {
        match self {
            Slots::Count(n) => n.push(0),
            Slots::Int(_, v) => v.push(None),
            Slots::Any(kind, a) => a.push(kind.fresh()),
        }
    }

    /// Feed group `ord` the argument's value at `row`.
    #[inline(always)]
    fn update(&mut self, ord: usize, arg: &Arg, row: usize) -> Result<()> {
        match (self, arg) {
            (Slots::Count(n), Arg::Star) => n[ord] += 1,
            (Slots::Count(n), Arg::Any(col)) => n[ord] += i64::from(col.is_valid(row)),
            (Slots::Int(kind, v), Arg::Int(col)) => {
                if let Some(&x) = col.get(row) {
                    v[ord] = Some(match (v[ord], *kind) {
                        (None, _) => x,
                        (Some(s), SlotKind::Min(_)) => s.min(x),
                        (Some(s), SlotKind::Max(_)) => s.max(x),
                        (Some(s), _) => s.wrapping_add(x),
                    });
                }
            }
            (Slots::Any(_, a), Arg::Any(col)) => a[ord].update_value(&col.value(row))?,
            _ => unreachable!("an argument is read as its aggregate's slots need"),
        }
        Ok(())
    }

    /// Group `ord`'s state in a `Count` or `Int` slot.
    fn int(&self, ord: usize) -> Option<i64> {
        match self {
            Slots::Count(n) => Some(n[ord]),
            Slots::Int(_, v) => v[ord],
            Slots::Any(..) => unreachable!("an `Any` slot holds accumulators"),
        }
    }

    /// `f` of group `ord`'s state, as the accumulator it stands for.
    fn with<R>(&self, ord: usize, f: impl FnOnce(&Accumulator) -> R) -> R {
        match self {
            Slots::Count(n) => f(&Accumulator::Count { n: n[ord] }),
            Slots::Int(kind, v) => f(&kind.int_acc(v[ord])),
            Slots::Any(_, a) => f(&a[ord]),
        }
    }

    /// Replace group `ord`'s state with `acc`'s.
    fn set(&mut self, ord: usize, acc: Accumulator) -> Result<()> {
        match (self, acc) {
            (Slots::Count(n), Accumulator::Count { n: m }) => n[ord] = m,
            (Slots::Int(_, v), Accumulator::Sum { sum } | Accumulator::Min { min: sum }
                | Accumulator::Max { max: sum }) => v[ord] = sum.as_i64()?,
            (Slots::Any(_, a), acc) => a[ord] = acc,
            (_, acc) => return Err(SsError::Internal(format!("{acc:?} does not fit its slot"))),
        }
        Ok(())
    }
}

/// A group's key, and where it stands in its table's save tracking. A
/// stamp equal to the table's current generation means "on that list";
/// one behind means not.
#[derive(Debug)]
struct Group {
    key: Key,
    /// Save generation it went on the unsaved list in.
    unsaved: u32,
    /// Bytes of its untyped entry as last added to the table's total.
    bytes: u32,
}

/// One window's groups (see the module docs).
#[derive(Debug)]
struct Bucket {
    /// Key → ordinal, and the epoch generation the group went on the
    /// changed list in: a row pays one stamp compare for tracking.
    index: FxHashMap<Key, (u32, u32)>,
    groups: Vec<Group>,
    /// One per aggregate.
    slots: Vec<Slots>,
}

impl Bucket {
    fn new(kinds: &[SlotKind]) -> Bucket {
        let slots = kinds.iter().map(|&k| Slots::new(k)).collect();
        Bucket { index: FxHashMap::default(), groups: Vec::new(), slots }
    }

    /// Feed `update` the slots and ordinal of `key`'s group (made on
    /// first sight), listing it changed once an epoch; `key` back if
    /// unused. Inline, updating with the index entry at hand: per row.
    #[inline(always)]
    fn upsert(
        &mut self,
        t: &mut Tracking,
        start: i64,
        key: Key,
        update: impl FnOnce(&mut [Slots], usize) -> Result<()>,
    ) -> Result<Option<Key>> {
        match self.index.get_mut(&key) {
            Some((ord, changed)) => {
                update(&mut self.slots, *ord as usize)?;
                if *changed != t.epoch_gen {
                    *changed = t.epoch_gen;
                    t.changed.push((start, *ord));
                }
                Ok(Some(key))
            }
            None => {
                let ord = self.add(t, start, key, t.epoch_gen);
                update(&mut self.slots, ord)?;
                Ok(None)
            }
        }
    }

    /// A new group, fresh, stamped `changed` (listed if current).
    #[inline(never)]
    fn add(&mut self, t: &mut Tracking, start: i64, key: Key, changed: u32) -> usize {
        let ord = u32::try_from(self.groups.len()).expect("a bucket holds under 2^32 groups");
        // A key evicted since the last checkpoint and now back is no
        // longer removed.
        if let Some(keys) = t.removed.get_mut(&start) {
            keys.remove(&key);
            if keys.is_empty() {
                t.removed.remove(&start);
            }
        }
        let unsaved = t.save_gen.wrapping_sub(1);
        self.groups.push(Group { key: key.clone(), unsaved, bytes: 0 });
        self.slots.iter_mut().for_each(Slots::push_fresh);
        self.index.insert(key, (ord, changed));
        t.len += 1;
        if changed == t.epoch_gen {
            t.changed.push((start, ord));
        }
        ord as usize
    }
}

/// Everything of a [`GroupTable`] but the groups, so the kernel can
/// hold one window's bucket and this side by side.
#[derive(Debug, Default)]
struct Tracking {
    len: usize,
    bytes: usize,
    /// Bumped by `drain`; `changed` lists the groups stamped
    /// with it, once each.
    epoch_gen: u32,
    changed: Vec<Listed>,
    /// Bumped by `clear_tracking` (a *successful* checkpoint);
    /// `unsaved` lists the live groups stamped with it, once each, and
    /// `removed` the keys evicted since (in a checkpoint or not), by
    /// window: an evicted bucket's key index, moved whole.
    save_gen: u32,
    unsaved: Vec<Listed>,
    removed: BTreeMap<i64, FxHashMap<Key, (u32, u32)>>,
    /// For the state metrics: groups drained, groups evicted.
    puts: u64,
    evictions: u64,
}

/// The groups of one aggregation, with the change tracking that lets
/// the state store checkpoint them without a copy or a scan (see the
/// module docs).
#[derive(Debug, Default)]
pub struct GroupTable {
    shape: KeyShape,
    kinds: Arc<[SlotKind]>,
    /// Groups bucketed by window start (one bucket, 0, without a
    /// window): the watermark closes whole buckets.
    buckets: BTreeMap<i64, Bucket>,
    t: Tracking,
}

impl GroupTable {
    /// Every group of the windows that start in `starts`.
    fn groups_in(&self, starts: impl RangeBounds<i64>) -> Vec<Listed> {
        let groups = |(&s, b): (&i64, &Bucket)| (0..b.groups.len() as u32).map(move |o| (s, o));
        self.buckets.range(starts).flat_map(groups).collect()
    }

    /// Each listed group with its bucket, looked up once per run of
    /// groups in the same bucket.
    fn listed<'a>(
        &'a self,
        list: &'a [Listed],
    ) -> impl Iterator<Item = (&'a Bucket, Listed)> + Clone {
        let mut at: Option<(i64, &Bucket)> = None;
        list.iter().map(move |&(start, ord)| match at {
            Some((s, bucket)) if s == start => (bucket, (start, ord)),
            _ => (at.insert((start, &self.buckets[&start])).1, (start, ord)),
        })
    }

    /// Put listed groups in the order of their key values, each key
    /// looked up once. A row key holds its window start among them. In
    /// the integer form (`[Timestamp(start), v]` or `[v]`) a group sorts
    /// as one `u128`: its window's rank among the list's starts (31
    /// bits), its key with NULL first (65) and its ordinal (32).
    fn sort(&self, list: &mut [Listed]) {
        if self.shape.int.is_none() {
            let key = |&(start, ord): &Listed| &self.buckets[&start].groups[ord as usize].key;
            return list.sort_by_cached_key(key);
        }
        let runs = || list.chunk_by(|a, b| a.0 == b.0);
        let mut starts: Vec<i64> = runs().map(|run| run[0].0).collect();
        starts.sort_unstable();
        starts.dedup();
        let mut keyed: Vec<u128> = Vec::with_capacity(list.len());
        for run in runs() {
            let rank = starts.binary_search(&run[0].0).expect("listed above") as u128;
            let groups = &self.buckets[&run[0].0].groups;
            let key = |o: u32| match groups[o as usize].key.int() {
                None => 0,
                Some(v) => u128::from((v ^ i64::MIN) as u64) + 1,
            };
            keyed.extend(run.iter().map(|&(_, o)| rank << 97 | key(o) << 32 | u128::from(o)));
        }
        keyed.sort_unstable();
        list.iter_mut().zip(keyed).for_each(|(l, k)| *l = (starts[(k >> 97) as usize], k as u32));
    }

    /// Close the epoch's ingest: put the groups changed since the last
    /// call in key order, hand them to `emit`, then count their bytes
    /// and move them to the unsaved list.
    fn drain<R>(&mut self, emit: impl FnOnce(&GroupTable, &[Listed]) -> R) -> R {
        let mut changed = std::mem::take(&mut self.t.changed);
        self.sort(&mut changed);
        let emitted = emit(self, &changed);
        // With integer keys and no `Any` slot every group's entry has
        // the same size: the first one's.
        let uniform = self.shape.int.is_some()
            && self.kinds.iter().all(|k| !matches!(k, SlotKind::Any(_)));
        let first = changed.first().filter(|_| uniform);
        let fixed = first.map(|&(s, o)| self.shape.entry_bytes(&self.buckets[&s], o as usize));
        let (shape, t) = (&self.shape, &mut self.t);
        t.puts += changed.len() as u64;
        let mut at: Option<(i64, &mut Bucket)> = None;
        for &(start, ord) in &changed {
            if at.as_ref().is_none_or(|(s, _)| *s != start) {
                at = Some((start, self.buckets.get_mut(&start).expect("a changed group is live")));
            }
            let bucket = &mut *at.as_mut().expect("set above").1;
            let ord = ord as usize;
            let bytes = fixed.unwrap_or_else(|| shape.entry_bytes(bucket, ord));
            let group = &mut bucket.groups[ord];
            t.bytes = t.bytes + bytes as usize - group.bytes as usize;
            group.bytes = bytes;
            if group.unsaved != t.save_gen {
                group.unsaved = t.save_gen;
                t.unsaved.push((start, ord as u32));
            }
        }
        // Keeping the list's buffer, the next epoch's pushes fault no
        // fresh pages in.
        changed.clear();
        t.changed = changed;
        t.epoch_gen = t.epoch_gen.wrapping_add(1);
        if t.epoch_gen == 0 {
            // Wrapped: a stamp from 2^32 epochs ago must not read as
            // current. No group is on the (just drained) list.
            let stale = |b: &mut Bucket| b.index.values_mut().for_each(|(_, c)| *c = u32::MAX);
            self.buckets.values_mut().for_each(stale);
        }
        emitted
    }

    /// Append a run of the groups `ords` of the window at `start`: the
    /// key column, then a column per slot.
    fn put_run(
        &self,
        out: &mut Vec<u8>,
        start: i64,
        bucket: &Bucket,
        ords: impl ExactSizeIterator<Item = usize> + Clone,
    ) {
        put_run_head(out, start, ords.len());
        self.put_keys(out, ords.clone().map(|ord| &bucket.groups[ord].key));
        for slots in &bucket.slots {
            match slots {
                Slots::Any(_, a) => ords.clone().for_each(|ord| a[ord].put_state(out)),
                typed => put_ints(out, ords.clone().map(|ord| typed.int(ord))),
            }
        }
    }

    fn put_keys<'a>(&self, out: &mut Vec<u8>, keys: impl ExactSizeIterator<Item = &'a Key>) {
        match self.shape.int {
            Some(_) => put_ints(out, keys.map(Key::int)),
            None => keys.for_each(|key| match key {
                Key::Row(row) => put_row(out, row),
                Key::Int(_) => unreachable!("a row-keyed table holds row keys"),
            }),
        }
    }

    /// Drop every group whose window closed at `watermark_us`
    /// (`start + size <= watermark_us`), a whole bucket at a time: its
    /// key index moves to the removed keys, its vectors are freed.
    pub fn evict_closed(&mut self, watermark_us: i64) {
        let Some((_, size)) = self.shape.window else { return };
        let open = |start: i64| start.saturating_add(size) > watermark_us;
        let t = &mut self.t;
        while let Some(bucket) = self.buckets.first_entry() {
            let start = *bucket.key();
            if open(start) {
                break;
            }
            let Bucket { mut index, groups, .. } = bucket.remove();
            t.len -= groups.len();
            t.bytes -= groups.iter().map(|g| g.bytes as usize).sum::<usize>();
            t.evictions += groups.len() as u64;
            let keys = t.removed.entry(start).or_default();
            index.extend(std::mem::take(keys));
            *keys = index;
        }
        // The lists hold live groups only: a bucket made again for a
        // closed window must not inherit stale ordinals.
        t.unsaved.retain(|(start, _)| open(*start));
        t.changed.retain(|(start, _)| open(*start));
    }
}

impl TypedTable for GroupTable {
    fn num_keys(&self) -> usize {
        self.t.len
    }

    fn approx_bytes(&self) -> usize {
        self.t.bytes
    }

    fn is_clean(&self) -> bool {
        self.t.changed.is_empty() && self.t.unsaved.is_empty() && self.t.removed.is_empty()
    }

    /// A group-run section (`ss_state::section`): a run per bucket when
    /// `full`, else per run of one window's groups on the unsaved list
    /// and then the removed keys in runs by window.
    fn encode(&self, full: bool, out: &mut Vec<u8>) {
        let slots: Vec<SlotForm> = self.kinds.iter().map(|k| k.form()).collect();
        put_header(out, self.shape.form(), &slots);
        if full {
            put_varint(out, self.buckets.len() as u64);
            for (&start, bucket) in &self.buckets {
                self.put_run(out, start, bucket, 0..bucket.groups.len());
            }
        } else {
            let runs = || self.t.unsaved.chunk_by(|a, b| a.0 == b.0);
            put_varint(out, runs().count() as u64);
            for run in runs() {
                let ords = run.iter().map(|&(_, ord)| ord as usize);
                self.put_run(out, run[0].0, &self.buckets[&run[0].0], ords);
            }
        }
        // A full snapshot replaces what came before: it removes nothing.
        let removed = if full { None } else { Some(&self.t.removed) };
        put_varint(out, removed.map_or(0, BTreeMap::len) as u64);
        for (&start, keys) in removed.into_iter().flatten() {
            put_run_head(out, start, keys.len());
            self.put_keys(out, keys.keys());
        }
    }

    fn clear_tracking(&mut self) {
        self.t.unsaved.clear();
        self.t.removed.clear();
        self.t.save_gen = self.t.save_gen.wrapping_add(1);
        if self.t.save_gen == 0 {
            // Wrapped (as in `drain`): every group is saved.
            let stale = |b: &mut Bucket| b.groups.iter_mut().for_each(|g| g.unsaved = u32::MAX);
            self.buckets.values_mut().for_each(stale);
        }
    }

    fn take_counts(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.t.puts), std::mem::take(&mut self.t.evictions))
    }

    fn restore_entry(&mut self, key: Row, entry: StateEntry) -> Result<()> {
        if entry.values.len() != self.kinds.len() {
            return Err(SsError::Serde(format!(
                "state entry has {} aggregates, expected {}",
                entry.values.len(),
                self.kinds.len()
            )));
        }
        let mut accs: Vec<Accumulator> = self.kinds.iter().map(|k| k.fresh()).collect();
        for (acc, st) in accs.iter_mut().zip(&entry.values) {
            acc.merge(st)?;
        }
        let (start, key) = self.shape.key_of(key)?;
        let GroupTable { shape, kinds, buckets, t } = self;
        let bucket = buckets.entry(start).or_insert_with(|| Bucket::new(kinds));
        let ord = match bucket.index.get(&key) {
            Some(&(ord, _)) => ord as usize,
            None => bucket.add(t, start, key, t.epoch_gen.wrapping_sub(1)),
        };
        for (slots, acc) in bucket.slots.iter_mut().zip(accs) {
            slots.set(ord, acc)?;
        }
        let bytes = shape.entry_bytes(bucket, ord);
        let group = &mut bucket.groups[ord];
        t.bytes = t.bytes + bytes as usize - group.bytes as usize;
        group.bytes = bytes;
        Ok(())
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.t = Tracking::default();
    }
}

/// Hash aggregation with mergeable, serializable group state.
pub struct HashAggregator {
    input_schema: SchemaRef,
    group_exprs: Vec<Expr>,
    window: Option<WindowSpec>,
    shape: KeyShape,
    aggregates: Arc<[AggregateExpr]>,
    kinds: Arc<[SlotKind]>,
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
            if let Expr::Window { time, size_us, slide_us } = strip_alias(g) {
                if window.is_some() {
                    return Err(SsError::Plan(
                        "at most one window() grouping key is supported".into(),
                    ));
                }
                let (time, size_us, slide_us) = ((**time).clone(), *size_us, *slide_us);
                window = Some(WindowSpec { slot: i, time, size_us, slide_us });
            }
        }
        let output_schema = Self::compute_output_schema(&input_schema, &group_exprs, &aggregates)?;
        // The integer form: one key column, after a window in slot 0 if
        // there is one — the last key column of the output.
        let one_column = group_exprs.len() == 1 + usize::from(window.is_some())
            && window.as_ref().is_none_or(|w| w.slot == 0);
        let last_key = || output_schema.field(output_schema.len() - aggregates.len() - 1).data_type;
        let int = one_column.then(last_key);
        let int = int.filter(|ty| matches!(ty, DataType::Int64 | DataType::Timestamp));
        let shape = KeyShape { window: window.as_ref().map(|w| (w.slot, w.size_us)), int };
        let kinds: Arc<[SlotKind]> =
            aggregates.iter().map(|a| SlotKind::of(a, &input_schema)).collect::<Result<_>>()?;
        Ok(HashAggregator {
            table: GroupTable { shape, kinds: kinds.clone(), ..GroupTable::default() },
            input_schema,
            group_exprs,
            window,
            shape,
            aggregates: aggregates.into(),
            kinds,
            output_schema,
        })
    }

    /// An empty table for this aggregation.
    fn new_table(&self) -> GroupTable {
        GroupTable { shape: self.shape, kinds: self.kinds.clone(), ..Default::default() }
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
        let args: Vec<Arg> = (self.kinds.iter().zip(&arg_cols))
            .map(|(kind, col)| match (kind, col) {
                (_, None) => Ok(Arg::Star),
                (SlotKind::Count | SlotKind::Any(_), Some(col)) => Ok(Arg::Any(col)),
                (_, Some(col)) => col.as_i64().map(Arg::Int),
            })
            .collect::<Result<_>>()?;
        // Typed access to the window timestamp column (avoids a Value
        // allocation per row on the hot path).
        let window_info = match &self.window {
            Some(w) => Some((w.slot, w.size_us, w.slide_us, key_cols[w.slot].as_i64()?)),
            None => None,
        };
        // In the integer form the key is read straight off its column.
        let ints = self.shape.int.map(|_| key_cols[key_cols.len() - 1].as_i64()).transpose()?;
        let mut key_buf: Vec<Value> = Vec::with_capacity(self.group_exprs.len());
        // Sliding windows need the expansion list; tumbling windows (the
        // common case) take the inline single-window path.
        let mut starts_buf: Vec<i64> = Vec::new();
        // The bucket of the window last written to: consecutive rows
        // mostly share it, and then a row costs one hash probe.
        let GroupTable { buckets, t, kinds, .. } = table;
        let mut bucket: Option<(i64, &mut Bucket)> = None;
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
                        let windows = windows_for(ts, *size, *slide);
                        starts_buf.extend(windows.into_iter().map(|(s, _)| s))
                    }
                },
                None => starts_buf.push(0),
            }
            for &start in &starts_buf {
                let key = match ints {
                    Some(ints) => Key::Int(ints.get(row).copied()),
                    None => {
                        key_buf.clear();
                        for (i, kc) in key_cols.iter().enumerate() {
                            key_buf.push(match &window_info {
                                Some((slot, ..)) if *slot == i => Value::Timestamp(start),
                                _ => kc.value(row),
                            });
                        }
                        Key::Row(Row::new(std::mem::take(&mut key_buf)))
                    }
                };
                if bucket.as_ref().is_none_or(|(s, _)| *s != start) {
                    let made = buckets.entry(start).or_insert_with(|| Bucket::new(kinds));
                    bucket = Some((start, made));
                }
                let groups = &mut *bucket.as_mut().expect("set above").1;
                let spare = groups.upsert(t, start, key, |slots, ord| {
                    slots.iter_mut().zip(&args).try_for_each(|(s, arg)| s.update(ord, arg, row))
                })?;
                if ints.is_none() {
                    // The key's own buffer when it was only needed for
                    // the lookup, else a fresh one — sized exactly, as
                    // it may become a group's key and a grown `Vec`
                    // would double its footprint.
                    key_buf = match spare {
                        Some(Key::Row(row)) => row.0,
                        _ => Vec::with_capacity(self.group_exprs.len()),
                    };
                }
            }
        }
        Ok(())
    }

    /// The output rows of the groups `list`, in its order, built a
    /// column at a time from the key and slot columns: a `Value` is made
    /// only for a row key or an `Any` slot. A window is its start and end.
    fn emit(&self, table: &GroupTable, list: &[Listed]) -> Result<RecordBatch> {
        let rows = list.len();
        let groups = table.listed(list).map(|(b, (start, ord))| (start, b, ord as usize));
        let fields = self.output_schema.fields();
        let (keys, results) = fields.split_at(self.num_key_columns());
        let mut columns = Vec::with_capacity(fields.len());
        if let Some(ty) = self.shape.int {
            if let Some((_, size)) = self.shape.window {
                columns.push(int_column(DataType::Timestamp, groups.clone().map(|g| Some(g.0))));
                let ends = groups.clone().map(|g| Some(g.0 + size));
                columns.push(int_column(DataType::Timestamp, ends));
            }
            columns.push(int_column(ty, groups.clone().map(|(_, b, o)| b.groups[o].key.int())));
        } else {
            let builder = |f: &Field| ColumnBuilder::with_capacity(f.data_type, rows);
            let mut out: Vec<ColumnBuilder> = keys.iter().map(builder).collect();
            for (start, b, ord) in groups.clone() {
                let Key::Row(row) = &b.groups[ord].key else { unreachable!("row keys") };
                let mut cols = out.iter_mut();
                for (i, v) in row.values().iter().enumerate() {
                    cols.next().expect("a builder per key column").push(v)?;
                    if let Some((_, size)) = self.shape.window.filter(|w| w.0 == i) {
                        let end = Value::Timestamp(start + size);
                        cols.next().expect("a window's end column").push_owned(end)?;
                    }
                }
            }
            columns.extend(out.into_iter().map(ColumnBuilder::finish));
        }
        for (i, (kind, field)) in self.kinds.iter().zip(results).enumerate() {
            let states = groups.clone().map(|(_, b, ord)| (&b.slots[i], ord));
            columns.push(match kind {
                SlotKind::Any(_) => {
                    let values = states.map(|(s, o)| s.with(o, Accumulator::evaluate));
                    Column::from_values(field.data_type, &values.collect::<Vec<_>>())?
                }
                _ => int_column(field.data_type, states.map(|(slots, ord)| slots.int(ord))),
            });
        }
        RecordBatch::try_new(self.output_schema.clone(), columns)
    }

    /// The output rows of the groups `list`, sorted by key.
    fn batch_of(&self, table: &GroupTable, mut list: Vec<Listed>) -> Result<RecordBatch> {
        table.sort(&mut list);
        self.emit(table, &list)
    }

    /// Close the epoch's ingest (see the module docs): every group that
    /// changed since the last call is counted and listed for the next
    /// checkpoint. Returns them, sorted by key, when `emit` (Update
    /// mode); else an empty batch. The drain runs to the end whatever
    /// the emitter returns: it is what keeps the tracking lists whole.
    pub fn drain_changed(&self, table: &mut GroupTable, emit: bool) -> Result<RecordBatch> {
        table.drain(|table, changed| self.emit(table, if emit { changed } else { &[] }))
    }

    /// The whole result table, sorted by key for determinism (Complete
    /// mode).
    pub fn finish(&self, table: &GroupTable) -> Result<RecordBatch> {
        self.batch_of(table, table.groups_in(..))
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
        self.batch_of(table, table.groups_in(..=watermark_us.saturating_sub(w.size_us)))
    }

    // ---- state-store integration (§6.1) ----

    /// The aggregate's table in its state namespace `op`, which owns
    /// it; the first call declares it there (see the module docs).
    pub fn table<'a>(&self, op: &'a mut OpState) -> &'a mut GroupTable {
        op.table(|| self.new_table())
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
            shape: self.shape,
            aggregates: self.aggregates.clone(),
            kinds: self.kinds.clone(),
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
        let shape = self.shape;
        let bucket = |(start, Bucket { groups, slots, .. }): (i64, Bucket)| {
            groups.into_iter().enumerate().map(move |(ord, g)| {
                let accs = slots.iter().map(|s| s.with(ord, Accumulator::clone)).collect();
                (shape.row_of(start, g.key), accs)
            })
        };
        self.table.buckets.into_iter().flat_map(bucket).collect()
    }

    /// Fold partials in: new keys become groups and every key is
    /// marked changed — the groups and changed list `ingest` of the
    /// partials' source rows would leave.
    pub fn merge_partials(&self, table: &mut GroupTable, partials: Vec<Partial>) -> Result<()> {
        for (key, partial) in partials {
            if partial.len() != self.kinds.len() {
                return Err(SsError::Internal(format!(
                    "partial has {} accumulators, expected {}",
                    partial.len(),
                    self.kinds.len()
                )));
            }
            let (start, key) = table.shape.key_of(key)?;
            let GroupTable { buckets, t, kinds, .. } = table;
            let bucket = buckets.entry(start).or_insert_with(|| Bucket::new(kinds));
            bucket.upsert(t, start, key, |slots, ord| {
                for (slots, p) in slots.iter_mut().zip(partial) {
                    let mut acc = slots.with(ord, Accumulator::clone);
                    acc.combine(p)?;
                    slots.set(ord, acc)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// A BIGINT or TIMESTAMP output column of `cells`, built as
/// `ColumnBuilder` would build it from their `Value`s.
fn int_column(ty: DataType, cells: impl Iterator<Item = Option<i64>>) -> Column {
    let mut column = TypedColumn::from_values(Vec::with_capacity(cells.size_hint().0));
    cells.for_each(|v| column.push(v, || 0));
    match ty {
        DataType::Timestamp => Column::Timestamp(column),
        _ => Column::Int64(column),
    }
}

/// One group of a map task's local aggregation: key and accumulators.
pub type Partial = (Row, Vec<Accumulator>);

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
        let rows = agg.drain_changed(&mut table, true).unwrap().to_rows();
        agg.table = table;
        rows
    }

    /// The table's checkpoint entries, expanded and sorted.
    fn saved(table: &GroupTable, full: bool) -> (Vec<(Row, Vec<Row>)>, Vec<Row>) {
        let mut out = Vec::new();
        table.encode(full, &mut out);
        let (entries, mut removed) = ss_state::section::read_section(&out).unwrap();
        assert!(entries.iter().all(|(_, e)| e.timeout_at.is_none()));
        let mut entries: Vec<(Row, Vec<Row>)> =
            entries.into_iter().map(|(key, e)| (key, e.values)).collect();
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
        // Created and evicted between two checkpoints: removed all the
        // same (a checkpoint whose ack was lost may hold it), which
        // restores as a no-op where none does.
        agg.update_batch(&early).unwrap();
        drain(&mut agg);
        assert_eq!(saved(&agg.table, false), (vec![one.clone()], vec![]));
        agg.table.evict_closed(secs(20));
        assert_eq!(saved(&agg.table, false), (vec![], vec![key.clone()]));
        assert!(!agg.table.is_clean() && agg.table.approx_bytes() == 0);
        agg.table.clear_tracking();
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
            restored.table.restore_entry(k, StateEntry::new(s)).unwrap();
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

    type Observed = (Vec<Row>, Vec<Row>, Vec<(Row, Vec<Row>)>);

    /// Everything the engine reads off an aggregator after ingest:
    /// the result table, the changed keys and the checkpointable
    /// state. Rows compare by `Value::total_cmp`, i.e. bit-exactly on
    /// floats (`-0.0 != 0.0`, `NaN == NaN` only for equal payloads).
    fn observe(agg: &mut HashAggregator) -> Observed {
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
        let entry = StateEntry::new(vec![row![1i64], row![2i64]]);
        let err = agg.new_table().restore_entry(row!["a"], entry);
        assert!(matches!(err, Err(SsError::Serde(_))), "{err:?}");
    }

    // ---- the integer key form ----

    fn int_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("user", DataType::Int64),
            Field::new("time", DataType::Timestamp),
        ])
    }

    #[test]
    fn int_keys_emit_in_value_order() {
        let users = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX];
        let mut rng = XorShift64::new(7);
        let rows: Vec<Row> = (0..500)
            .map(|_| {
                let user = match rng.gen_range(0, 8) as usize {
                    7 => Value::Null,
                    i => Value::Int64(users[i]),
                };
                let time = secs(rng.gen_range(0, 60) as i64 - 30);
                Row::new(vec![user, Value::Timestamp(time)])
            })
            .collect();
        let keys = [
            vec![window(col("time"), "10 seconds").unwrap(), col("user")],
            vec![col("user")],
        ];
        for keys in keys {
            let windowed = keys.len() == 2;
            let mut agg =
                HashAggregator::new(int_schema(), keys, vec![count_star(), min(col("time"))])
                    .unwrap();
            assert_eq!(agg.shape.int, Some(DataType::Int64));
            agg.update_batch(&RecordBatch::from_rows(int_schema(), &rows).unwrap()).unwrap();
            // The oracle: output rows ordered by their key values.
            let mut oracle: BTreeMap<Vec<Value>, (i64, Value)> = BTreeMap::new();
            for row in &rows {
                let time = row.get(1).as_i64().unwrap().unwrap();
                let start = time - time.rem_euclid(secs(10));
                let mut key = vec![];
                if windowed {
                    key = vec![Value::Timestamp(start), Value::Timestamp(start + secs(10))];
                }
                key.push(row.get(0).clone());
                let (n, min) = oracle.entry(key).or_insert((0, row.get(1).clone()));
                *n += 1;
                *min = min.clone().min(row.get(1).clone());
            }
            let want: Vec<Row> = oracle
                .into_iter()
                .map(|(mut key, (n, min))| {
                    key.extend([Value::Int64(n), min]);
                    Row::new(key)
                })
                .collect();
            assert_eq!(agg.finish_all().unwrap().to_rows(), want);
            assert_eq!(drain(&mut agg), want);
            if windowed {
                let closed = agg.finalized(&agg.table, secs(0)).unwrap().to_rows();
                let below_zero = |r: &&Row| r.get(1).as_i64().unwrap().unwrap() <= 0;
                assert_eq!(closed, want.iter().filter(below_zero).cloned().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn restoring_a_key_that_does_not_fit_the_int_form_is_corruption() {
        let agg = HashAggregator::new(
            int_schema(),
            vec![window(col("time"), "10 seconds").unwrap(), col("user")],
            vec![count_star()],
        )
        .unwrap();
        let entry = || StateEntry::new(vec![row![1i64]]);
        for fits in [row![Value::Timestamp(0), Value::Null], row![Value::Timestamp(0), -3i64]] {
            assert!(agg.new_table().restore_entry(fits, entry()).is_ok());
        }
        let bad_keys = [
            row![Value::Timestamp(0), "u1"],
            row![Value::Timestamp(0), 1.5],
            row![Value::Timestamp(0), Value::Timestamp(3)],
            row![0i64, 3i64],
            row![Value::Null, 3i64],
            row![Value::Timestamp(0)],
            row![Value::Timestamp(0), 3i64, 3i64],
        ];
        for bad in bad_keys {
            let err = agg.new_table().restore_entry(bad.clone(), entry());
            assert!(matches!(err, Err(SsError::Corruption(_))), "{bad}: {err:?}");
            let partial = vec![(bad.clone(), vec![Accumulator::Count { n: 1 }])];
            let err = agg.merge_partials(&mut agg.new_table(), partial);
            assert!(matches!(err, Err(SsError::Corruption(_))), "{bad}: {err:?}");
        }
    }

    // ---- typed slots ----

    /// A state as everything outside the table sees it: the result, the
    /// checkpoint bytes and the byte count.
    type Seen = (Value, Vec<u8>, usize);

    fn seen(acc: &Accumulator) -> Seen {
        let mut bytes = Vec::new();
        acc.put_state(&mut bytes);
        (acc.evaluate(), bytes, acc.state_bytes())
    }

    /// Every group's states, by key values.
    fn seen_in(table: &GroupTable) -> BTreeMap<Row, Vec<Seen>> {
        let states = |b: &Bucket, ord| b.slots.iter().map(|s| s.with(ord, seen)).collect();
        let row = |start, key: &Key| table.shape.row_of(start, key.clone());
        let group = |(start, ord): Listed| {
            let b = &table.buckets[&start];
            (row(start, &b.groups[ord as usize].key), states(b, ord as usize))
        };
        table.groups_in(..).into_iter().map(group).collect()
    }

    #[test]
    fn slots_match_the_accumulators_they_stand_for() {
        let schema = Schema::of(vec![
            Field::new("k", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("t", DataType::Timestamp),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let aggregates = vec![
            count_star(),
            count(col("v")),
            sum(col("v")),
            min(col("v")),
            max(col("v")),
            min(col("t")),
            max(col("t")),
            avg(col("v")),
            sum(col("f")),
            min(col("s")),
            count(col("s")),
        ];
        let mut agg =
            HashAggregator::new(schema.clone(), vec![col("k")], aggregates.clone()).unwrap();
        use {AggregateFunction as F, DataType::*, SlotKind::*};
        let kinds = [
            Count,
            Count,
            Sum,
            Min(Int64),
            Max(Int64),
            Min(Timestamp),
            Max(Timestamp),
            Any(F::Avg),
            Any(F::Sum),
            Any(F::Min),
            Count,
        ];
        assert_eq!(*agg.kinds, kinds);
        let ts = Value::Timestamp;
        let rows = [
            // SUM wraps past i64::MAX; the extremes of both types.
            row!["a", i64::MAX, ts(5), 1.5, "pear"],
            row!["a", i64::MAX, ts(i64::MIN), -0.25, "apple"],
            row!["a", Value::Null, Value::Null, Value::Null, Value::Null],
            row!["a", 1i64, ts(i64::MAX), 2.0, "zoo"],
            row!["m", i64::MIN, ts(-7), -0.0, "m"],
            row!["m", -1i64, Value::Null, Value::Null, Value::Null],
            // Arguments all NULL: COUNT(x) 0, the rest NULL.
            row!["n", Value::Null, Value::Null, Value::Null, Value::Null],
            row!["n", Value::Null, Value::Null, Value::Null, Value::Null],
            row![Value::Null, 3i64, ts(0), 0.5, ""],
        ];
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        // The reference: an accumulator per group and aggregate, fed
        // each row's argument value.
        let args: Vec<Option<Column>> = (aggregates.iter())
            .map(|a| a.arg.as_ref().map(|e| evaluate(e, &batch).unwrap()))
            .collect();
        let mut want: BTreeMap<Row, Vec<Accumulator>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let fresh = || aggregates.iter().map(AggregateExpr::create_accumulator).collect();
            let accs = want.entry(Row::new(vec![row.get(0).clone()])).or_insert_with(fresh);
            for (acc, arg) in accs.iter_mut().zip(&args) {
                acc.update_value(&arg.as_ref().map_or(Value::Int64(1), |c| c.value(i))).unwrap();
            }
        }
        let seen_all = |want: &BTreeMap<Row, Vec<Accumulator>>| -> BTreeMap<Row, Vec<Seen>> {
            want.iter().map(|(k, accs)| (k.clone(), accs.iter().map(seen).collect())).collect()
        };
        // Ingest.
        agg.update_batch(&batch).unwrap();
        assert_eq!(seen_in(&agg.table), seen_all(&want));
        // Partials, merged into an empty table and once more into the
        // groups that made: each state combined with itself.
        let mut local = agg.fresh_clone();
        local.update_batch(&batch).unwrap();
        let partials = local.into_partials();
        let mut merged = agg.new_table();
        agg.merge_partials(&mut merged, partials.clone()).unwrap();
        assert_eq!(seen_in(&merged), seen_all(&want));
        agg.merge_partials(&mut merged, partials).unwrap();
        let mut doubled = want.clone();
        for accs in doubled.values_mut() {
            accs.iter_mut().for_each(|a| a.combine(a.clone()).unwrap());
        }
        assert_eq!(seen_in(&merged), seen_all(&doubled));
        // The bytes the drain counts are the accumulators' entries'.
        drain(&mut agg);
        let entry = |(key, accs): (&Row, &Vec<Accumulator>)| {
            let states = accs.iter().map(Accumulator::state_bytes).sum();
            OpState::entry_bytes_of(key.approx_bytes(), states)
        };
        assert_eq!(agg.table.approx_bytes(), want.iter().map(entry).sum::<usize>());
        // A checkpoint, restored.
        let mut restored = agg.new_table();
        for (key, states) in saved(&agg.table, true).0 {
            restored.restore_entry(key, StateEntry::new(states)).unwrap();
        }
        assert_eq!(seen_in(&restored), seen_all(&want));
        assert_eq!(restored.approx_bytes(), agg.table.approx_bytes());
    }
}
