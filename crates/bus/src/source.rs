//! Sources: replayable inputs for streaming queries.
//!
//! Requirement (1) of §3: "Input sources must be replayable, allowing
//! the system to re-read recent input data if a node crashes." Every
//! implementation here reads by explicit `[start, end)` offset range,
//! so the engine can re-execute any epoch recorded in the WAL.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_common::{OffsetRange, PartitionOffsets, RecordBatch, Result, Row, SchemaRef, SsError};

use crate::bus::MessageBus;
use crate::json::row_from_json;

/// A replayable, partitioned input.
pub trait Source: Send + Sync {
    /// Name used in plans and the WAL.
    fn name(&self) -> &str;
    /// Schema of the rows this source produces.
    fn schema(&self) -> SchemaRef;
    fn num_partitions(&self) -> u32;
    /// The current end offsets (next record to be written) — what the
    /// master snapshots when defining an epoch (§6.1 step 1).
    fn latest_offsets(&self) -> Result<PartitionOffsets>;
    /// The oldest offsets still readable (the retention horizon).
    /// Sources that never expire data — the default — report an empty
    /// map, i.e. everything from offset 0 is available. A bounded
    /// topic with a `DropOldest` policy moves this forward as it
    /// sheds; consumers must not ask for anything below it.
    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        Ok(PartitionOffsets::new())
    }
    /// Read `[start, end)` of one partition. Must return the same data
    /// for the same range every time (replayability).
    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch>;

    /// If this source reads a [`MessageBus`] topic, expose the binding
    /// so the continuous-processing engine can attach its long-lived
    /// per-partition workers to it (each polls its partition with
    /// [`BusSource::read_stamped`], the batch read plus ingest stamps).
    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        None
    }

    /// Read `[start, end)` of one partition with a column projection
    /// pushed down (indices into [`Source::schema`]). The default
    /// reads everything then projects; sources that can build only the
    /// requested columns (e.g. [`BusSource`]) override this — the
    /// "projection pushdown" half of §5.3.
    fn read_partition_projected(
        &self,
        partition: u32,
        start: u64,
        end: u64,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let batch = self.read_partition(partition, start, end)?;
        match projection {
            Some(idx) => batch.project(idx),
            None => Ok(batch),
        }
    }

    /// Read a whole offset range: one batch per partition with data.
    fn read(&self, range: &OffsetRange) -> Result<Vec<RecordBatch>> {
        self.read_projected(range, None)
    }

    /// Read a whole offset range with a column projection pushed down.
    fn read_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<Vec<RecordBatch>> {
        let mut out = Vec::new();
        for (&p, &end) in &range.end {
            let start = *range.start.get(&p).unwrap_or(&0);
            if end > start {
                out.push(self.read_partition_projected(p, start, end, projection)?);
            }
        }
        Ok(out)
    }

    /// The earliest and latest ingest timestamps (wall-clock µs) of the
    /// records in `range`, if this source tracks ingest times. The
    /// engine subtracts these from the sink-commit time to measure
    /// end-to-end event latency (source ingest → sink commit). Sources
    /// without ingest timestamps — the default — report `None`.
    fn ingest_bounds(&self, range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        let _ = range;
        Ok(None)
    }

    /// Read a whole offset range into **one** batch. The default
    /// concatenates per-partition batches; sources that can append all
    /// partitions into a single set of column builders (e.g.
    /// [`BusSource`]) override this to skip the copy.
    fn read_all_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let batches = self.read_projected(range, projection)?;
        let schema = match projection {
            Some(idx) => Arc::new(self.schema().project(idx)?),
            None => self.schema(),
        };
        if batches.is_empty() {
            return Ok(RecordBatch::empty(schema));
        }
        RecordBatch::concat(&batches)
    }
}

/// The ingest stamps of a read's records: `(rows read, stamp)` runs in
/// row order, one per append.
pub type StampRuns = Vec<(Range<usize>, i64)>;

/// Reads a topic of the in-process [`MessageBus`] (the Kafka
/// connector).
pub struct BusSource {
    name: String,
    bus: Arc<MessageBus>,
    topic: String,
    schema: SchemaRef,
    faults: ss_common::FaultRegistry,
}

/// Fail-point names fired by [`BusSource`].
pub mod failpoints {
    /// Before reading a partition range from the bus — simulates a
    /// broker read failure.
    pub const BUS_READ: &str = "bus.read";
}

impl BusSource {
    pub fn new(
        bus: Arc<MessageBus>,
        topic: impl Into<String>,
        schema: SchemaRef,
    ) -> Result<BusSource> {
        let topic = topic.into();
        if !bus.has_topic(&topic) {
            return Err(SsError::Plan(format!("unknown topic `{topic}`")));
        }
        Ok(BusSource {
            name: topic.clone(),
            bus,
            topic,
            schema,
            faults: ss_common::FaultRegistry::new(),
        })
    }

    /// Attach a fail-point registry; [`failpoints::BUS_READ`] fires
    /// through it on every partition-range read.
    pub fn with_faults(mut self, faults: ss_common::FaultRegistry) -> BusSource {
        self.faults = faults;
        self
    }

    /// Read up to `max` records of one partition from offset `start`,
    /// with a column projection pushed down, plus the ingest stamps of
    /// the appends they came from. The continuous engine's poll: the
    /// batch read's copies, coercions and schema errors, and each
    /// record's own stamp for its end-to-end latency.
    pub fn read_stamped(
        &self,
        partition: u32,
        start: u64,
        max: usize,
        projection: Option<&[usize]>,
    ) -> Result<(RecordBatch, StampRuns)> {
        // Empty builders: an idle poll allocates nothing.
        let (indices, out_schema, mut builders) = self.projection_parts(projection, 0)?;
        let runs = self.append_records(partition, start, max, &indices, &mut builders)?;
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        Ok((RecordBatch::try_new(out_schema, columns)?, runs))
    }

    /// Append `[start, end)` of one partition into shared column
    /// builders ([`BusSource::append_records`]); a short read is an
    /// error.
    fn append_partition(
        &self,
        partition: u32,
        start: u64,
        end: u64,
        indices: &[usize],
        builders: &mut [ss_common::ColumnBuilder],
    ) -> Result<()> {
        if end < start {
            return Err(SsError::Internal(format!(
                "read_partition end {end} < start {start}"
            )));
        }
        let n = (end - start) as usize;
        let runs = self.append_records(partition, start, n, indices, builders)?;
        let seen = runs.last().map_or(0, |(rows, _)| rows.end);
        if seen != n {
            return Err(SsError::Execution(format!(
                "short read on {}/{partition}: wanted {n} records from {start}, got {seen}",
                self.topic
            )));
        }
        Ok(())
    }

    /// Append up to `max` records of one partition from `start` into
    /// shared column builders: per chunk of the log and per projected
    /// column, one typed slice copy
    /// ([`ss_common::ColumnBuilder::extend_from_column`], which also
    /// carries `push`'s coercions and type errors for a chunk whose
    /// types differ from the schema's). Returns the records' ingest
    /// stamps.
    fn append_records(
        &self,
        partition: u32,
        start: u64,
        max: usize,
        indices: &[usize],
        builders: &mut [ss_common::ColumnBuilder],
    ) -> Result<StampRuns> {
        self.faults.fire(failpoints::BUS_READ)?;
        let mut runs = StampRuns::new();
        self.bus.scan(&self.topic, partition, start, max, &mut |offset, chunk, range| {
            if chunk.columns.len() != self.schema.len() {
                return Err(SsError::Schema(format!(
                    "record at {}/{partition}:{offset} has {} values, schema has {}",
                    self.topic,
                    chunk.columns.len(),
                    self.schema.len()
                )));
            }
            for (b, &i) in builders.iter_mut().zip(indices) {
                match &chunk.columns[i] {
                    Some(c) => b.extend_from_column(c.column(), range.start, range.end)?,
                    None => b.push_nulls(range.len()),
                }
            }
            // Chunk records → rows appended; an append that spans two
            // chunks stays one run.
            let appended = runs.last().map_or(0, |(rows, _)| rows.end);
            let row = |i: usize| appended + i - range.start;
            for (run, stamp) in chunk.stamp_runs(range.clone()) {
                match runs.last_mut() {
                    Some((last, s)) if *s == stamp => last.end = row(run.end),
                    _ => runs.push((row(run.start)..row(run.end), stamp)),
                }
            }
            Ok(())
        })?;
        Ok(runs)
    }

    fn projection_parts(
        &self,
        projection: Option<&[usize]>,
        capacity: usize,
    ) -> Result<(Vec<usize>, SchemaRef, Vec<ss_common::ColumnBuilder>)> {
        let indices: Vec<usize> = match projection {
            Some(idx) => idx.to_vec(),
            None => (0..self.schema.len()).collect(),
        };
        let out_schema = match projection {
            Some(idx) => Arc::new(self.schema.project(idx)?),
            None => self.schema.clone(),
        };
        let builders: Vec<ss_common::ColumnBuilder> = out_schema
            .fields()
            .iter()
            .map(|f| ss_common::ColumnBuilder::with_capacity(f.data_type, capacity))
            .collect();
        Ok((indices, out_schema, builders))
    }
}

impl Source for BusSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn num_partitions(&self) -> u32 {
        self.bus.num_partitions(&self.topic).unwrap_or(0)
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        self.bus.latest_offsets(&self.topic)
    }

    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        self.bus.earliest_offsets(&self.topic)
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        self.read_partition_projected(partition, start, end, None)
    }

    /// Build only the projected columns, copied out of the log's
    /// column chunks: the vectorized read path.
    fn read_partition_projected(
        &self,
        partition: u32,
        start: u64,
        end: u64,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let (indices, out_schema, mut builders) =
            self.projection_parts(projection, end.saturating_sub(start) as usize)?;
        self.append_partition(partition, start, end, &indices, &mut builders)?;
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        RecordBatch::try_new(out_schema, columns)
    }

    /// One batch across all partitions, built into a single set of
    /// column builders (no concat copy).
    fn read_all_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let (indices, out_schema, mut builders) =
            self.projection_parts(projection, range.num_records() as usize)?;
        for (&p, &end) in &range.end {
            let start = *range.start.get(&p).unwrap_or(&0);
            if end > start {
                self.append_partition(p, start, end, &indices, &mut builders)?;
            }
        }
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        RecordBatch::try_new(out_schema, columns)
    }

    /// Every bus record carries the wall-clock time `append` stamped on
    /// it; min/max over the stamp runs (one per append) of the range.
    fn ingest_bounds(&self, range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for (&p, &end) in &range.end {
            let start = *range.start.get(&p).unwrap_or(&0);
            if end <= start {
                continue;
            }
            self.bus.scan(&self.topic, p, start, (end - start) as usize, &mut |_, chunk, range| {
                for (_, t) in chunk.stamp_runs(range) {
                    min = min.min(t);
                    max = max.max(t);
                }
                Ok(())
            })?;
        }
        if min > max {
            return Ok(None); // empty range
        }
        Ok(Some((min, max)))
    }

    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        Some((self.bus.clone(), self.topic.clone()))
    }
}

/// Deterministic synthetic source: row = `gen(partition, offset)`.
/// Replayable by construction; [`GeneratorSource::advance`] releases
/// more offsets (simulating arrival).
pub struct GeneratorSource {
    name: String,
    schema: SchemaRef,
    available: Vec<AtomicU64>,
    #[allow(clippy::type_complexity)]
    gen: Arc<dyn Fn(u32, u64) -> Row + Send + Sync>,
}

impl GeneratorSource {
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        partitions: u32,
        gen: Arc<dyn Fn(u32, u64) -> Row + Send + Sync>,
    ) -> GeneratorSource {
        GeneratorSource {
            name: name.into(),
            schema,
            available: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            gen,
        }
    }

    /// Make `n` more offsets available on every partition.
    pub fn advance(&self, n: u64) {
        for a in &self.available {
            a.fetch_add(n, Ordering::SeqCst);
        }
    }
}

impl Source for GeneratorSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn num_partitions(&self) -> u32 {
        self.available.len() as u32
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        Ok(self
            .available
            .iter()
            .enumerate()
            .map(|(i, a)| (i as u32, a.load(Ordering::SeqCst)))
            .collect())
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        let avail = self
            .available
            .get(partition as usize)
            .ok_or_else(|| SsError::Plan(format!("no partition {partition}")))?
            .load(Ordering::SeqCst);
        if end > avail {
            return Err(SsError::Execution(format!(
                "read past available offset: {end} > {avail}"
            )));
        }
        let rows: Vec<Row> = (start..end).map(|o| (self.gen)(partition, o)).collect();
        RecordBatch::from_rows(self.schema.clone(), &rows)
    }
}

/// Reads newline-delimited JSON files appearing in a directory — the
/// §4.1 example (`readStream.format("json").load("/in")`). Files are
/// discovered in name order and must be immutable once present; one
/// logical partition whose offsets index the concatenated rows.
pub struct FileSource {
    name: String,
    dir: PathBuf,
    schema: SchemaRef,
    state: Mutex<FileSourceState>,
}

#[derive(Default)]
struct FileSourceState {
    seen_files: Vec<PathBuf>,
    rows: Vec<Row>,
}

impl FileSource {
    pub fn new(dir: impl AsRef<Path>, schema: SchemaRef) -> Result<FileSource> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(FileSource {
            name: format!("files:{}", dir.display()),
            dir,
            schema,
            state: Mutex::new(FileSourceState::default()),
        })
    }

    /// Scan the directory for new `.json` files and ingest them.
    fn refresh(&self) -> Result<u64> {
        let mut state = self.state.lock();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for f in files {
            if state.seen_files.contains(&f) {
                continue;
            }
            let text = std::fs::read_to_string(&f)?;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let row = row_from_json(&self.schema, line)
                    .map_err(|e| SsError::Serde(format!("{}: {e}", f.display())))?;
                state.rows.push(row);
            }
            state.seen_files.push(f);
        }
        Ok(state.rows.len() as u64)
    }
}

impl Source for FileSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn num_partitions(&self) -> u32 {
        1
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        let n = self.refresh()?;
        Ok(PartitionOffsets::from([(0, n)]))
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        if partition != 0 {
            return Err(SsError::Plan("FileSource has a single partition".into()));
        }
        let state = self.state.lock();
        let end = end as usize;
        if end > state.rows.len() {
            return Err(SsError::Execution(format!(
                "read past ingested rows: {end} > {}",
                state.rows.len()
            )));
        }
        RecordBatch::from_rows(self.schema.clone(), &state.rows[start as usize..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::{row, DataType, Field, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("kind", DataType::Utf8),
        ])
    }

    #[test]
    fn bus_source_reads_ranges() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 2).unwrap();
        bus.append_at("t", 0, 0, vec![row![1i64, "a"], row![2i64, "b"]]).unwrap();
        bus.append_at("t", 1, 0, vec![row![3i64, "c"]]).unwrap();
        let src = BusSource::new(bus, "t", schema()).unwrap();
        assert_eq!(src.num_partitions(), 2);
        let latest = src.latest_offsets().unwrap();
        assert_eq!(latest[&0], 2);
        let range = OffsetRange {
            start: PartitionOffsets::new(),
            end: latest,
        };
        let batches = src.read(&range).unwrap();
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 3);
        assert!(BusSource::new(Arc::new(MessageBus::new()), "missing", schema()).is_err());
    }

    #[test]
    fn bus_read_fail_point_injects_and_recovers() {
        use ss_common::fault::{FaultMode, FaultTrigger};

        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 1).unwrap();
        bus.append_at("t", 0, 0, vec![row![1i64, "a"]]).unwrap();
        let faults = ss_common::FaultRegistry::new();
        let src = BusSource::new(bus, "t", schema())
            .unwrap()
            .with_faults(faults.clone());
        faults.configure(
            failpoints::BUS_READ,
            FaultTrigger::Once { skip: 0 },
            FaultMode::TransientError,
        );
        let err = src.read_partition(0, 0, 1).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        // The one-shot fault is spent; the same read now succeeds.
        assert_eq!(src.read_partition(0, 0, 1).unwrap().num_rows(), 1);
        assert_eq!(faults.hits(failpoints::BUS_READ), 2);
    }

    #[test]
    fn bus_source_reports_ingest_bounds() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 2).unwrap();
        bus.append_at("t", 0, 100, vec![row![1i64, "a"]]).unwrap();
        bus.append_at("t", 0, 300, vec![row![2i64, "b"]]).unwrap();
        bus.append_at("t", 1, 200, vec![row![3i64, "c"]]).unwrap();
        let src = BusSource::new(bus, "t", schema()).unwrap();
        let full = OffsetRange {
            start: PartitionOffsets::new(),
            end: src.latest_offsets().unwrap(),
        };
        assert_eq!(src.ingest_bounds(&full).unwrap(), Some((100, 300)));
        // A sub-range only sees its own records.
        let tail = OffsetRange {
            start: PartitionOffsets::from([(0, 1)]),
            end: PartitionOffsets::from([(0, 2)]),
        };
        assert_eq!(src.ingest_bounds(&tail).unwrap(), Some((300, 300)));
        // Empty range → no bounds; sources without timestamps default
        // to None.
        let empty = OffsetRange {
            start: PartitionOffsets::from([(0, 2)]),
            end: PartitionOffsets::from([(0, 2)]),
        };
        assert_eq!(src.ingest_bounds(&empty).unwrap(), None);
        let gen = GeneratorSource::new("g", schema(), 1, Arc::new(|_, o| row![o as i64, "x"]));
        assert_eq!(gen.ingest_bounds(&full).unwrap(), None);
    }

    #[test]
    fn bus_source_coerces_int_into_float_and_timestamp_columns() {
        let schema = Schema::of(vec![
            Field::new("f", DataType::Float64),
            Field::new("t", DataType::Timestamp),
        ]);
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 1).unwrap();
        // A chunk of the schema's own types, then one of BIGINTs.
        bus.append_at("t", 0, 0, vec![row![0.5, Value::Timestamp(7)]]).unwrap();
        bus.append_at("t", 0, 0, vec![row![2i64, 9i64], row![Value::Null, 11i64]]).unwrap();
        let src = BusSource::new(bus, "t", schema).unwrap();
        let batch = src.read_partition(0, 0, 3).unwrap();
        assert_eq!(
            batch.to_rows(),
            vec![
                row![0.5, Value::Timestamp(7)],
                row![2.0, Value::Timestamp(9)],
                row![Value::Null, Value::Timestamp(11)]
            ]
        );
    }

    #[test]
    fn bus_source_names_the_record_or_value_that_does_not_fit_the_schema() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 1).unwrap();
        bus.append_at("t", 0, 0, vec![row![1i64, "a"], row![2i64, "b"]]).unwrap();
        bus.append_at("t", 0, 0, vec![row![3i64, "c", true]]).unwrap();
        bus.append_at("t", 0, 0, vec![row![Value::Null, "d"], row!["five", "e"]]).unwrap();
        let src = BusSource::new(bus, "t", schema()).unwrap();
        assert_eq!(src.read_partition(0, 0, 2).unwrap().num_rows(), 2);
        // Wrong arity: topic, partition and offset of the record.
        let err = src.read_partition(0, 1, 5).unwrap_err();
        assert!(matches!(err, SsError::Schema(_)), "{err:?}");
        assert!(err.to_string().contains("record at t/0:2 has 3 values, schema has 2"), "{err}");
        // Wrong type: the value and the column it cannot go into —
        // unless the projection leaves that column out.
        let err = src.read_partition(0, 3, 5).unwrap_err();
        assert!(matches!(err, SsError::Type(_)), "{err:?}");
        assert!(err.to_string().contains("cannot append five to BIGINT column"), "{err}");
        let names = src.read_partition_projected(0, 3, 5, Some(&[1])).unwrap();
        assert_eq!(names.to_rows(), vec![row!["d"], row!["e"]]);
    }

    #[test]
    fn generator_source_is_replayable() {
        let src = GeneratorSource::new(
            "gen",
            schema(),
            2,
            Arc::new(|p, o| row![(p as i64) * 1000 + o as i64, "x"]),
        );
        assert_eq!(src.latest_offsets().unwrap()[&0], 0);
        src.advance(5);
        let latest = src.latest_offsets().unwrap();
        assert_eq!(latest[&0], 5);
        assert_eq!(latest[&1], 5);
        let a = src.read_partition(0, 1, 4).unwrap();
        let b = src.read_partition(0, 1, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.row(0), row![1i64, "x"]);
        // Reading past availability fails loudly.
        assert!(src.read_partition(0, 0, 99).is_err());
    }

    #[test]
    fn file_source_discovers_files_in_order() {
        let dir = std::env::temp_dir().join(format!("ss-bus-fsrc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = FileSource::new(&dir, schema()).unwrap();
        assert_eq!(src.latest_offsets().unwrap()[&0], 0);
        std::fs::write(dir.join("b.json"), "{\"id\":2,\"kind\":\"y\"}\n").unwrap();
        std::fs::write(dir.join("a.json"), "{\"id\":1,\"kind\":\"x\"}\n\n{\"id\":3,\"kind\":\"z\"}\n").unwrap();
        assert_eq!(src.latest_offsets().unwrap()[&0], 3);
        let batch = src.read_partition(0, 0, 3).unwrap();
        // a.json sorts before b.json.
        assert_eq!(
            batch.to_rows(),
            vec![row![1i64, "x"], row![3i64, "z"], row![2i64, "y"]]
        );
        // New files extend the offset space; replays stay stable.
        std::fs::write(dir.join("c.json"), "{\"id\":4,\"kind\":\"w\"}\n").unwrap();
        assert_eq!(src.latest_offsets().unwrap()[&0], 4);
        assert_eq!(src.read_partition(0, 0, 3).unwrap(), batch);
        // Non-json files ignored.
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        assert_eq!(src.latest_offsets().unwrap()[&0], 4);
        assert!(src.read_partition(1, 0, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_source_surfaces_parse_errors_with_filename() {
        let dir = std::env::temp_dir().join(format!("ss-bus-fsrc-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = FileSource::new(&dir, schema()).unwrap();
        std::fs::write(dir.join("bad.json"), "{\"id\": \"not an int\"}\n").unwrap();
        let err = src.latest_offsets().unwrap_err();
        assert!(err.to_string().contains("bad.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_read_skips_empty_partitions() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 3).unwrap();
        bus.append_at("t", 1, 0, vec![row![1i64, "a"]]).unwrap();
        let src = BusSource::new(bus, "t", schema()).unwrap();
        let range = OffsetRange {
            start: PartitionOffsets::new(),
            end: src.latest_offsets().unwrap(),
        };
        let batches = src.read(&range).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].num_rows(), 1);
        let _ = Value::Null; // keep the import exercised
    }
}
