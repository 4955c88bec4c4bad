//! Hash aggregation: the operator a streaming `Aggregate` maps onto.
//!
//! [`HashAggregator`] is used two ways:
//!
//! * **Batch**: feed every input batch with [`HashAggregator::update_batch`],
//!   then read the full result with [`HashAggregator::finish_all`].
//! * **Streaming** (`StatefulAggregate`, §5.2): the aggregator *is* the
//!   operator state. Each epoch feeds its new data, then:
//!   - Update mode emits [`HashAggregator::take_changed`] keys,
//!   - Complete mode emits `finish_all`,
//!   - Append mode emits [`HashAggregator::drain_finalized`] once the
//!     event-time watermark passes a window's end (§4.3.1), which also
//!     evicts that window's state.
//!
//!   The `state_entries` / `restore_entry` pair serializes the group map
//!   to the state store for checkpointing (§6.1).
//!
//! Event-time windows: one `window()` grouping key is supported; each
//! row expands into `size/slide` windows (one for tumbling windows), the
//! same assignment Spark's window expression produces. Rows whose
//! timestamp is NULL are dropped from windowed aggregation, as in Spark.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::{
    Column, DataType, Field, RecordBatch, Result, Row, Schema, SchemaRef, SsError, Value,
};
use ss_expr::agg::Accumulator;
use ss_expr::eval::evaluate;
use ss_expr::{AggregateExpr, Expr};
use ss_plan::plan::strip_alias;

/// The window grouping key, if any.
#[derive(Debug, Clone)]
struct WindowSpec {
    /// Index of the window expression within `group_exprs`.
    slot: usize,
    time: Expr,
    size_us: i64,
    slide_us: i64,
}

/// One group's live state: its accumulators plus a dirty flag for
/// per-epoch changed-key tracking (a flag write per row is much
/// cheaper than maintaining a separate changed-key set on the hot
/// path).
struct GroupEntry {
    accs: Vec<Accumulator>,
    dirty: bool,
}

/// Hash aggregation with mergeable, serializable group state.
pub struct HashAggregator {
    input_schema: SchemaRef,
    group_exprs: Vec<Expr>,
    window: Option<WindowSpec>,
    aggregates: Vec<AggregateExpr>,
    output_schema: SchemaRef,
    /// Key layout: one value per group expression, with the window slot
    /// holding the window *start* timestamp.
    groups: FxHashMap<Row, GroupEntry>,
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
        Ok(HashAggregator {
            input_schema,
            group_exprs,
            window,
            aggregates,
            output_schema,
            groups: FxHashMap::default(),
        })
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
        self.groups.len()
    }

    /// True if the grouping includes an event-time window.
    pub fn is_windowed(&self) -> bool {
        self.window.is_some()
    }

    /// Number of leading output columns that form the group key
    /// (window keys count as two: start and end).
    pub fn num_key_columns(&self) -> usize {
        self.output_schema.len() - self.aggregates.len()
    }

    /// Ingest one batch of input rows: evaluate the grouping and
    /// aggregate argument columns once (vectorized), then update the
    /// group of every `(row, group key)` in arrival order. Rows with a
    /// NULL event time are dropped and a sliding window fans one row
    /// out to `size/slide` keys.
    pub fn update_batch(&mut self, batch: &RecordBatch) -> Result<()> {
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
                let key = Row::new(std::mem::take(&mut key_buf));
                key_buf = upsert(&mut self.groups, &self.aggregates, key, |accs| {
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

    /// Keys whose aggregates changed since the last call (dirty flags
    /// are reset). This is what Update output mode emits per epoch.
    pub fn take_changed(&mut self) -> Vec<Row> {
        let mut keys: Vec<Row> = Vec::new();
        for (k, entry) in self.groups.iter_mut() {
            if entry.dirty {
                entry.dirty = false;
                keys.push(k.clone());
            }
        }
        keys.sort();
        keys
    }

    /// Build output rows for specific keys (must exist).
    pub fn output_for_keys(&self, keys: &[Row]) -> Result<RecordBatch> {
        let rows: Vec<Row> = keys
            .iter()
            .map(|k| {
                let entry = self.groups.get(k).ok_or_else(|| {
                    SsError::Internal(format!("output_for_keys: unknown group {k}"))
                })?;
                Ok(self.output_row(k, &entry.accs))
            })
            .collect::<Result<_>>()?;
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// The whole result table, sorted by key for determinism (Complete
    /// mode / batch execution).
    pub fn finish_all(&self) -> Result<RecordBatch> {
        let mut keys: Vec<&Row> = self.groups.keys().collect();
        keys.sort();
        let rows: Vec<Row> = keys
            .iter()
            .map(|k| self.output_row(k, &self.groups[*k].accs))
            .collect();
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// Append-mode finalization: emit and evict every windowed group
    /// whose `window_end <= watermark_us`. Returns the finalized rows
    /// sorted by key. Errors if the grouping has no window (such
    /// queries cannot use Append mode; the analyzer enforces this).
    pub fn drain_finalized(&mut self, watermark_us: i64) -> Result<RecordBatch> {
        let w = self.window.as_ref().ok_or_else(|| {
            SsError::Plan("append finalization requires a window() grouping key".into())
        })?;
        let size = w.size_us;
        let slot = w.slot;
        let mut done: Vec<Row> = self
            .groups
            .keys()
            .filter(|k| match k.get(slot) {
                Value::Timestamp(start) => start + size <= watermark_us,
                _ => false,
            })
            .cloned()
            .collect();
        done.sort();
        let rows: Vec<Row> = done
            .iter()
            .map(|k| {
                let entry = self.groups.remove(k).expect("key just listed");
                self.output_row(k, &entry.accs)
            })
            .collect();
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// Drop windowed state older than the watermark *without* emitting
    /// (used in Update mode to bound state per §4.3.1). Returns the
    /// evicted keys so callers can mirror the removal in the state
    /// store.
    pub fn evict_expired(&mut self, watermark_us: i64) -> Vec<Row> {
        let Some(w) = &self.window else { return Vec::new() };
        let size = w.size_us;
        let slot = w.slot;
        let mut evicted = Vec::new();
        self.groups.retain(|k, _| match k.get(slot) {
            Value::Timestamp(start) => {
                let keep = start + size > watermark_us;
                if !keep {
                    evicted.push(k.clone());
                }
                keep
            }
            _ => true,
        });
        evicted.sort();
        evicted
    }

    fn output_row(&self, key: &Row, accs: &[Accumulator]) -> Row {
        let mut out = Vec::with_capacity(self.output_schema.len());
        for (i, v) in key.values().iter().enumerate() {
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

    /// The partial states of one group, if present.
    pub fn state_for_key(&self, key: &Row) -> Option<Vec<Row>> {
        self.groups
            .get(key)
            .map(|e| e.accs.iter().map(|a| a.state()).collect())
    }

    /// Iterate `(key, per-aggregate partial states)` for checkpointing.
    pub fn state_entries(&self) -> impl Iterator<Item = (&Row, Vec<Row>)> + '_ {
        self.groups
            .iter()
            .map(|(k, e)| (k, e.accs.iter().map(|a| a.state()).collect()))
    }

    /// Restore (or merge) one checkpointed entry.
    pub fn restore_entry(&mut self, key: Row, states: &[Row]) -> Result<()> {
        if states.len() != self.aggregates.len() {
            return Err(SsError::Serde(format!(
                "state entry has {} aggregates, expected {}",
                states.len(),
                self.aggregates.len()
            )));
        }
        let entry = self.groups.entry(key).or_insert_with(|| GroupEntry {
            accs: self
                .aggregates
                .iter()
                .map(|a| a.create_accumulator())
                .collect(),
            dirty: false,
        });
        for (acc, st) in entry.accs.iter_mut().zip(states) {
            acc.merge(st)?;
        }
        Ok(())
    }

    /// Clear all state (used when rebuilding from a checkpoint).
    pub fn clear(&mut self) {
        self.groups.clear();
    }

    // ---- partitioned execution (map-side combine, reduce-side merge) ----
    //
    // A map task aggregates its chunk in a `fresh_clone` with the
    // ordinary `update_batch` and ships the groups (`into_partials`);
    // the shard owning a key folds them in (`merge_partials`). The
    // result is byte-identical to one `update_batch` over the whole
    // input, whatever order partials arrive in, when `is_combinable`.

    /// An empty aggregator with the same configuration: a reduce
    /// partition's shard, or a map task's local combiner.
    pub fn fresh_clone(&self) -> HashAggregator {
        HashAggregator {
            input_schema: self.input_schema.clone(),
            group_exprs: self.group_exprs.clone(),
            window: self.window.clone(),
            aggregates: self.aggregates.clone(),
            output_schema: self.output_schema.clone(),
            groups: FxHashMap::default(),
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

    /// The group table as partials: one per key `update_batch` touched.
    pub fn into_partials(self) -> Vec<Partial> {
        self.groups.into_iter().map(|(k, e)| (k, e.accs)).collect()
    }

    /// Fold partials in: new keys become groups and every key is
    /// marked changed — the groups and dirty set `update_batch` over
    /// the partials' source rows would leave.
    pub fn merge_partials(&mut self, partials: Vec<Partial>) -> Result<()> {
        for (key, partial) in partials {
            if partial.len() != self.aggregates.len() {
                return Err(SsError::Internal(format!(
                    "partial has {} accumulators, expected {}",
                    partial.len(),
                    self.aggregates.len()
                )));
            }
            upsert(&mut self.groups, &self.aggregates, key, |accs| {
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

/// Feed one update into `key`'s group, creating the group on first
/// sight, and mark it changed this epoch. Returns the buffer to build
/// the next key in: `key`'s own when the group already existed (it was
/// only needed for the lookup), else a fresh one — sized exactly, as
/// it may become a group's key and a grown `Vec` would double its
/// footprint.
fn upsert(
    groups: &mut FxHashMap<Row, GroupEntry>,
    aggregates: &[AggregateExpr],
    key: Row,
    update: impl FnOnce(&mut [Accumulator]) -> Result<()>,
) -> Result<Vec<Value>> {
    match groups.get_mut(&key) {
        Some(entry) => {
            update(&mut entry.accs)?;
            entry.dirty = true;
            Ok(key.0)
        }
        None => {
            let mut accs: Vec<Accumulator> =
                aggregates.iter().map(|a| a.create_accumulator()).collect();
            update(&mut accs)?;
            let next = Vec::with_capacity(key.len());
            groups.insert(key, GroupEntry { accs, dirty: true });
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
        agg.update_batch(&batch(&[row!["a", Value::Timestamp(0), 0i64]]))
            .unwrap();
        assert_eq!(agg.take_changed(), vec![row!["a"]]);
        // Nothing changed since the drain.
        assert!(agg.take_changed().is_empty());
        agg.update_batch(&batch(&[row!["b", Value::Timestamp(0), 0i64]]))
            .unwrap();
        let changed = agg.take_changed();
        assert_eq!(changed, vec![row!["b"]]);
        let out = agg.output_for_keys(&changed).unwrap();
        assert_eq!(out.to_rows(), vec![row!["b", 1i64]]);
    }

    #[test]
    fn drain_finalized_emits_and_evicts_closed_windows() {
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
        let out = agg.drain_finalized(secs(12)).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![row![Value::Timestamp(0), Value::Timestamp(secs(10)), 1i64]]
        );
        assert_eq!(agg.num_groups(), 1);
        // Draining again at the same watermark emits nothing.
        assert_eq!(agg.drain_finalized(secs(12)).unwrap().num_rows(), 0);
    }

    #[test]
    fn drain_finalized_requires_window() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg.drain_finalized(0).is_err());
    }

    #[test]
    fn evict_expired_drops_state_silently() {
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
        let evicted = agg.evict_expired(secs(20));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].get(0), &Value::Timestamp(0));
        assert_eq!(agg.num_groups(), 1);
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
        let checkpoint: Vec<(Row, Vec<Row>)> = first
            .state_entries()
            .map(|(k, s)| (k.clone(), s))
            .collect();
        let mut restored = make();
        for (k, s) in checkpoint {
            restored.restore_entry(k, &s).unwrap();
        }
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
        let mut state: Vec<(Row, Vec<Row>)> =
            agg.state_entries().map(|(k, s)| (k.clone(), s)).collect();
        state.sort();
        let table = agg.finish_all().unwrap().to_rows();
        (table, agg.take_changed(), state)
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
        merged.merge_partials(partials).unwrap();
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
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        for bad in [
            vec![],
            vec![Accumulator::Count { n: 1 }, Accumulator::Count { n: 1 }],
            vec![Accumulator::Avg { sum: 1.0, count: 1 }],
        ] {
            let err = agg.merge_partials(vec![(row!["a"], bad)]).unwrap_err();
            assert!(matches!(err, SsError::Internal(_)), "{err:?}");
        }
    }

    #[test]
    fn restore_entry_validates_arity() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg
            .restore_entry(row!["a"], &[row![1i64], row![2i64]])
            .is_err());
    }
}
