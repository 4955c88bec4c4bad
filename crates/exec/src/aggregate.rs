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

    /// Ingest one batch of input rows.
    pub fn update_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        let HashAggregator {
            group_exprs,
            window,
            aggregates,
            groups,
            ..
        } = self;
        let visit = |key, row, arg_cols: &[Option<Column>]| {
            upsert(groups, aggregates, key, |accs| {
                for (acc, arg) in accs.iter_mut().zip(arg_cols) {
                    match arg {
                        Some(col) => acc.update_value(&col.value(row))?,
                        None => acc.update_value(&COUNT_STAR_ARG)?,
                    }
                }
                Ok(())
            })
        };
        for_each_key(group_exprs, window, aggregates, batch, visit)
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

    // ---- partitioned execution (map-side expand, reduce-side ingest) ----

    /// An empty aggregator with the same configuration — the shard
    /// constructor for partitioned execution (each reduce partition
    /// owns one clone holding only its keys' state).
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

    /// The map-side half of [`HashAggregator::update_batch`] for
    /// partitioned execution: expand a batch into `(group key,
    /// aggregate-argument values)` pairs in arrival order, without
    /// touching any group state. Map tasks run this per input chunk;
    /// the pairs are shuffled by key and ingested by the owning shard's
    /// [`HashAggregator::update_pairs`].
    pub fn expand(&self, batch: &RecordBatch) -> Result<Vec<(Row, Row)>> {
        let mut pairs = Vec::new();
        for_each_key(
            &self.group_exprs,
            &self.window,
            &self.aggregates,
            batch,
            |key: Row, row, arg_cols| {
                let args = arg_cols
                    .iter()
                    .map(|arg| arg.as_ref().map_or(COUNT_STAR_ARG, |col| col.value(row)))
                    .collect();
                let next = Vec::with_capacity(key.len());
                pairs.push((key, Row::new(args)));
                Ok(next)
            },
        )?;
        Ok(pairs)
    }

    /// Reduce-side ingest of shuffled pairs produced by
    /// [`HashAggregator::expand`].
    ///
    /// Pairs must arrive in the original arrival order of their source
    /// rows; each accumulator then sees exactly the same update
    /// sequence as [`HashAggregator::update_batch`] would have fed it,
    /// so results are bit-identical at any partition count even for
    /// non-associative float accumulation.
    pub fn update_pairs(&mut self, pairs: Vec<(Row, Row)>) -> Result<()> {
        for (key, args) in pairs {
            if args.len() != self.aggregates.len() {
                return Err(SsError::Internal(format!(
                    "shuffled pair has {} argument values, expected {}",
                    args.len(),
                    self.aggregates.len()
                )));
            }
            upsert(&mut self.groups, &self.aggregates, key, |accs| {
                for (acc, v) in accs.iter_mut().zip(args.values()) {
                    acc.update_value(v)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

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

/// The group-key visit loop: evaluate the grouping and aggregate
/// argument columns once (vectorized), then call `visit(key, row,
/// argument columns)` for every `(row, group key)` in arrival order.
/// Rows with a NULL event time are dropped and a sliding window fans
/// one row out to `size/slide` keys. `visit` returns the buffer the
/// next key is built in, so a visitor that only looked the key up
/// hands its allocation back.
fn for_each_key(
    group_exprs: &[Expr],
    window: &Option<WindowSpec>,
    aggregates: &[AggregateExpr],
    batch: &RecordBatch,
    mut visit: impl FnMut(Row, usize, &[Option<Column>]) -> Result<Vec<Value>>,
) -> Result<()> {
    if batch.num_rows() == 0 {
        return Ok(());
    }
    // The window slot gets the raw timestamp; expansion happens per
    // row below.
    let mut key_cols: Vec<Column> = Vec::with_capacity(group_exprs.len());
    for (i, g) in group_exprs.iter().enumerate() {
        let col = match window {
            Some(w) if w.slot == i => evaluate(&w.time, batch)?,
            _ => evaluate(g, batch)?,
        };
        key_cols.push(col);
    }
    let arg_cols: Vec<Option<Column>> = aggregates
        .iter()
        .map(|a| a.arg.as_ref().map(|e| evaluate(e, batch)).transpose())
        .collect::<Result<_>>()?;
    // Typed access to the window timestamp column (avoids a Value
    // allocation per row on the hot path).
    let window_info = match window {
        Some(w) => {
            let tc = key_cols[w.slot].as_i64()?.clone();
            Some((w.slot, w.size_us, w.slide_us, tc))
        }
        None => None,
    };
    let mut key_buf: Vec<Value> = Vec::with_capacity(group_exprs.len());
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
            key_buf = visit(Row::new(std::mem::take(&mut key_buf)), row, &arg_cols)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::row;
    use ss_common::time::secs;
    use ss_expr::{avg, col, count_star, sum, window, window_sliding};

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

    #[test]
    fn expand_plus_update_pairs_matches_update_batch() {
        // Includes avg (float accumulation) so order sensitivity would
        // show up as bit differences.
        let make = || {
            HashAggregator::new(
                schema(),
                vec![window(col("time"), "10 seconds").unwrap(), col("campaign")],
                vec![count_star(), sum(col("v")), avg(col("v"))],
            )
            .unwrap()
        };
        let input = batch(&[
            row!["a", Value::Timestamp(secs(5)), 1i64],
            row!["b", Value::Timestamp(secs(9)), 2i64],
            row!["a", Value::Timestamp(secs(15)), 3i64],
            row!["a", Value::Timestamp(secs(6)), 4i64],
        ]);
        let mut serial = make();
        serial.update_batch(&input).unwrap();
        let mut sharded = make();
        sharded
            .update_pairs(sharded.expand(&input).unwrap())
            .unwrap();
        assert_eq!(
            sharded.finish_all().unwrap(),
            serial.finish_all().unwrap()
        );
        assert_eq!(sharded.take_changed(), serial.take_changed());
    }

    #[test]
    fn expand_drops_null_event_times_and_fans_out_sliding_windows() {
        let agg = HashAggregator::new(
            schema(),
            vec![window_sliding(col("time"), "10 seconds", "5 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        let pairs = agg
            .expand(&batch(&[
                row!["a", Value::Null, 0i64],
                row!["a", Value::Timestamp(secs(7)), 0i64],
            ]))
            .unwrap();
        // NULL row dropped; t=7s expands to windows [0,10) and [5,15).
        assert_eq!(
            pairs,
            vec![
                (row![Value::Timestamp(0)], row![1i64]),
                (row![Value::Timestamp(secs(5))], row![1i64]),
            ]
        );
    }

    #[test]
    fn update_pairs_rejects_wrong_arity() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg
            .update_pairs(vec![(row!["a"], row![1i64, 2i64])])
            .is_err());
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
