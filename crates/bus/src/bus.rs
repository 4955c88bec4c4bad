//! The in-process message bus (Kafka/Kinesis stand-in).
//!
//! Topics hold ordered, offset-addressed partitions. A partition is a
//! *column log*: a sequence of chunks of typed column vectors (`Chunk`).
//! Appends consume their rows into the last chunk's columns; a batch
//! read ([`crate::BusSource`], the microbatch and continuous engines'
//! one read) copies, per chunk and projected column, one typed slice;
//! [`MessageBus::read`] rebuilds [`Record`]s for the row-at-a-time
//! baselines. Retention drops whole chunks and keeps a head offset into
//! the oldest one left.
//!
//! Records are retained after consumption (consumers track their own
//! offsets, as with Kafka), which is what makes sources *replayable* —
//! requirement (1) the paper places on input sources (§3). Retention
//! limits are simulated with [`MessageBus::truncate_before`]: reading
//! past truncated data fails, exactly the "input sources no longer have
//! the data" failure mode §7.2 mentions for rollbacks.
//!
//! ## Bounded topics and producer-side backpressure
//!
//! An unbounded topic turns a slow consumer into unbounded memory
//! growth. Topics created with [`TopicConfig::capacity`] bound the
//! retained records per partition, and the producer-side
//! [`OverflowPolicy`] decides what an append into a full partition
//! does: [`OverflowPolicy::Block`] parks the producer until retention
//! trimming frees space (pressure propagates upstream, with a timeout
//! so a wedged consumer surfaces as [`SsError::ResourceExhausted`]),
//! [`OverflowPolicy::DropOldest`] sheds the oldest retained records
//! (counted in [`MessageBus::shed_records`]), and
//! [`OverflowPolicy::Reject`] refuses the append outright.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use ss_common::clock::{system_clock, ClockRef};
use ss_common::time::now_us;
use ss_common::{ColumnBuilder, PartitionOffsets, Result, Row, SsError, Value};

/// How often a [`OverflowPolicy::Block`] producer re-checks capacity
/// when the bus runs on a virtual clock (a condvar wait is invisible to
/// simulated time, so the blocked producer polls; each poll's sleep is
/// what lets the simulation advance past it).
const BLOCK_POLL: Duration = Duration::from_millis(1);

/// What a producer append does when a bounded partition is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Park the producer until retention trimming frees space, up to
    /// `timeout_us`; a timeout surfaces as
    /// [`SsError::ResourceExhausted`]. Records are admitted one at a
    /// time as space frees, so a timed-out append may have appended a
    /// prefix of the batch (offsets remain dense and ordered).
    Block { timeout_us: u64 },
    /// Shed the oldest retained records to make room, advancing the
    /// retention horizon. Sheds are counted per topic
    /// ([`MessageBus::shed_records`]).
    DropOldest,
    /// Refuse the whole batch (nothing is appended) with
    /// [`SsError::ResourceExhausted`].
    Reject,
}

/// Configuration for a bounded topic ([`MessageBus::create_topic_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicConfig {
    /// Number of partitions (must be ≥ 1).
    pub partitions: u32,
    /// Maximum retained records *per partition*; `None` is unbounded
    /// (the [`MessageBus::create_topic`] behavior).
    pub capacity: Option<usize>,
    /// Producer-side behavior when a partition is at capacity.
    pub overflow: OverflowPolicy,
}

impl Default for TopicConfig {
    fn default() -> TopicConfig {
        TopicConfig {
            partitions: 1,
            capacity: None,
            overflow: OverflowPolicy::Reject,
        }
    }
}

/// One message in a partition, as [`MessageBus::read`] materialises it
/// (the log itself holds columns, not `Record`s).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Position within the partition (dense, starting at 0).
    pub offset: u64,
    /// Bus ingestion time (µs since epoch) — the processing-time stamp
    /// used for end-to-end latency measurements.
    pub ingest_time_us: i64,
    /// The payload.
    pub row: Row,
}

/// Most records a chunk holds before it is sealed. Retention frees a
/// chunk at a time (on the caller's thread) and keeps up to one chunk
/// of expired records per partition, which is what keeps this small; a
/// read pays one slice copy per chunk and column, which is what keeps
/// it from being smaller — and the engine's vector size, so a chunk is
/// a vector.
const CHUNK_ROWS: usize = ss_common::VECTOR_ROWS;

/// A run of consecutive records stored column-wise: the unit of the
/// log. The bus has no schema, so a chunk's shape comes from its rows:
/// every record has the same arity, and each position holds one type,
/// fixed by its first non-NULL value (`None` until then: only NULLs so
/// far). A row that does not fit — other arity, other type at some
/// position, or the chunk is full — starts the next chunk, so rows of
/// different shapes never share one and reads return exactly the
/// values appended.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// One per value position; `None`: NULL in every record so far.
    pub(crate) columns: Vec<Option<ColumnBuilder>>,
    /// Ingest stamps, run-length: `(end, stamp)` stamps the records from
    /// the previous run's `end` up to this one's (an append is one run).
    stamps: Vec<(usize, i64)>,
    /// Records the chunk was expected to reach when it was opened: what
    /// its columns are allocated for.
    capacity: usize,
}

impl Chunk {
    fn len(&self) -> usize {
        self.stamps.last().map_or(0, |&(end, _)| end)
    }

    /// The ingest stamps of records `range`, as `(records, stamp)` runs.
    pub(crate) fn stamp_runs(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (Range<usize>, i64)> + '_ {
        let first = self.stamps.partition_point(|&(end, _)| end <= range.start);
        let mut start = range.start;
        self.stamps[first..].iter().map_while(move |&(end, stamp)| {
            let run = start..end.min(range.end);
            start = run.end;
            (!run.is_empty()).then_some((run, stamp))
        })
    }

    fn accepts(&self, row: &Row) -> bool {
        self.len() < CHUNK_ROWS
            && row.len() == self.columns.len()
            && self.columns.iter().zip(row.iter()).all(|(c, v)| match (c, v.data_type()) {
                (Some(c), Some(ty)) => c.data_type() == ty,
                _ => true,
            })
    }

    /// The column a position gets at its first non-NULL value, after
    /// `len` NULLs.
    #[cold]
    fn first_value(len: usize, capacity: usize, v: Value) -> ColumnBuilder {
        let mut c = ColumnBuilder::with_capacity(v.data_type().expect("not NULL"), capacity);
        c.push_nulls(len);
        c.push(&v).expect("a column of the value's own type");
        c
    }

    /// Append a row that [`Chunk::accepts`].
    fn push(&mut self, row: Row, stamp: i64) {
        let len = self.len();
        for (slot, v) in self.columns.iter_mut().zip(row) {
            match (slot, v) {
                (Some(c), v) => c.push_owned(v).expect("accepted rows match the column types"),
                (None, Value::Null) => {}
                (slot @ None, v) => *slot = Some(Self::first_value(len, self.capacity, v)),
            }
        }
        match self.stamps.last_mut() {
            Some((end, last)) if *last == stamp => *end += 1,
            _ => self.stamps.push((len + 1, stamp)),
        }
    }
}

/// What [`MessageBus::scan`] calls per chunk: the offset of the first
/// record visited in it, the chunk, and which of its records.
pub(crate) type ChunkVisitor<'a> = dyn FnMut(u64, &Chunk, Range<usize>) -> Result<()> + 'a;

#[derive(Debug, Default)]
struct Partition {
    /// Offset of the first retained record (earlier records truncated).
    base_offset: u64,
    /// Retained records.
    len: usize,
    /// Records of `chunks[0]` already dropped by retention.
    head: usize,
    /// Every chunk but the last is sealed; appends extend the last.
    chunks: VecDeque<Chunk>,
}

impl Partition {
    fn next_offset(&self) -> u64 {
        self.base_offset + self.len as u64
    }

    /// Append `rows` to the tail chunk, opening a new one (sized so
    /// that its columns are, as a rule, allocated once) whenever a row
    /// does not fit. Returns the first row's offset.
    fn extend(&mut self, rows: impl IntoIterator<Item = Row>, stamp: i64) -> u64 {
        let first = self.next_offset();
        let mut rows = rows.into_iter();
        while let Some(row) = rows.next() {
            if !self.chunks.back().is_some_and(|c| c.accepts(&row)) {
                // As many as the chunk before it held, if that is more:
                // a stream of small appends fills chunk after chunk, and
                // growing each by doubling would copy it twice over.
                let expected = (rows.size_hint().0 + 1).max(self.chunks.back().map_or(0, Chunk::len));
                self.chunks.push_back(Chunk {
                    columns: row.iter().map(|_| None).collect(),
                    stamps: Vec::new(),
                    capacity: expected.min(CHUNK_ROWS),
                });
            }
            self.chunks.back_mut().expect("a tail chunk exists").push(row, stamp);
            self.len += 1;
        }
        first
    }

    /// Drop the `n` oldest retained records: whole chunks, then a head
    /// offset into the first one left. Returns the chunks for the
    /// caller to free once the partition lock is released.
    fn drop_oldest(&mut self, mut n: usize) -> Vec<Chunk> {
        self.base_offset += n as u64;
        self.len -= n;
        let mut freed = Vec::new();
        while let Some(c) = self.chunks.front() {
            let live = c.len() - self.head;
            if n < live {
                break;
            }
            n -= live;
            self.head = 0;
            freed.extend(self.chunks.pop_front());
        }
        self.head += n;
        freed
    }
}

/// A partition plus the condition variable [`OverflowPolicy::Block`]
/// producers wait on until [`MessageBus::truncate_before`] frees space.
/// (The vendored `parking_lot` shim's `MutexGuard` is `std`'s, so the
/// `std` condvar pairs with it directly.)
#[derive(Debug, Default)]
struct PartitionSlot {
    state: Mutex<Partition>,
    space_freed: Condvar,
}

#[derive(Debug)]
struct Topic {
    partitions: Vec<PartitionSlot>,
    capacity: Option<usize>,
    overflow: OverflowPolicy,
    /// Records shed by [`OverflowPolicy::DropOldest`] since creation.
    shed: AtomicU64,
}

/// A thread-safe, in-process, partitioned message bus.
#[derive(Debug)]
pub struct MessageBus {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    /// Clock backing [`OverflowPolicy::Block`] timeouts (and nothing
    /// else — ingest stamps are supplied by callers or `append`).
    clock: RwLock<ClockRef>,
}

impl Default for MessageBus {
    fn default() -> MessageBus {
        MessageBus {
            topics: RwLock::new(HashMap::new()),
            clock: RwLock::new(system_clock()),
        }
    }
}

impl MessageBus {
    pub fn new() -> MessageBus {
        MessageBus::default()
    }

    /// Re-point blocking-append timeouts at `clock` (virtual timeouts
    /// under simulation).
    pub fn set_clock(&self, clock: ClockRef) {
        *self.clock.write() = clock;
    }

    /// Create an unbounded topic with `partitions` partitions. Errors
    /// if it already exists.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<()> {
        self.create_topic_with(
            name,
            TopicConfig {
                partitions,
                ..TopicConfig::default()
            },
        )
    }

    /// Create a topic with an explicit [`TopicConfig`] — the way to get
    /// a *bounded* topic whose producers feel backpressure.
    pub fn create_topic_with(&self, name: &str, config: TopicConfig) -> Result<()> {
        if config.partitions == 0 {
            return Err(SsError::Plan("topics need at least one partition".into()));
        }
        if config.capacity == Some(0) {
            return Err(SsError::Plan("topic capacity must be at least 1".into()));
        }
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(SsError::Plan(format!("topic `{name}` already exists")));
        }
        topics.insert(
            name.to_string(),
            Arc::new(Topic {
                partitions: (0..config.partitions).map(|_| PartitionSlot::default()).collect(),
                capacity: config.capacity,
                overflow: config.overflow,
                shed: AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SsError::Plan(format!("unknown topic `{name}`")))
    }

    pub fn has_topic(&self, name: &str) -> bool {
        self.topics.read().contains_key(name)
    }

    pub fn num_partitions(&self, topic: &str) -> Result<u32> {
        Ok(self.topic(topic)?.partitions.len() as u32)
    }

    fn slot<'a>(t: &'a Topic, topic: &str, partition: u32) -> Result<&'a PartitionSlot> {
        t.partitions
            .get(partition as usize)
            .ok_or_else(|| SsError::Plan(format!("topic `{topic}` has no partition {partition}")))
    }

    /// Append rows to a partition with an explicit ingestion timestamp
    /// (deterministic tests / simulated time). Returns the offset of
    /// the first appended record. On an unbounded or `DropOldest` topic
    /// `rows` is consumed straight into the log's columns with the
    /// partition locked, so it must not itself call into this partition.
    pub fn append_at(
        &self,
        topic: &str,
        partition: u32,
        ingest_time_us: i64,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<u64> {
        let t = self.topic(topic)?;
        let slot = Self::slot(&t, topic, partition)?;
        match (t.capacity, t.overflow) {
            (Some(cap), OverflowPolicy::Reject) => {
                // Materialize so the batch size is known before the
                // capacity check (refused atomically, nothing half-appended).
                let rows: Vec<Row> = rows.into_iter().collect();
                let mut p = slot.state.lock();
                if p.len + rows.len() > cap {
                    return Err(SsError::ResourceExhausted(format!(
                        "topic `{topic}`/{partition} is full ({} of {cap} records retained; \
                         batch of {} rejected)",
                        p.len,
                        rows.len()
                    )));
                }
                Ok(p.extend(rows, ingest_time_us))
            }
            (Some(cap), OverflowPolicy::Block { timeout_us }) => {
                // Built before locking: the lock is released while waiting.
                let rows: Vec<Row> = rows.into_iter().collect();
                self.append_blocking(slot, cap, timeout_us, ingest_time_us, rows).ok_or_else(|| {
                    SsError::ResourceExhausted(format!(
                        "append to `{topic}`/{partition} blocked for {timeout_us}µs \
                         waiting for capacity {cap} to free (consumer stalled?)"
                    ))
                })
            }
            (cap, _) => {
                let mut p = slot.state.lock();
                let first = p.extend(rows, ingest_time_us);
                let shed = p.len.saturating_sub(cap.unwrap_or(usize::MAX));
                let freed = p.drop_oldest(shed);
                drop(p);
                t.shed.fetch_add(shed as u64, Ordering::Relaxed);
                drop(freed);
                Ok(first)
            }
        }
    }

    /// Admit `rows` one record at a time as space frees below `cap`;
    /// `None` when `timeout_us` runs out first.
    fn append_blocking(
        &self,
        slot: &PartitionSlot,
        cap: usize,
        timeout_us: u64,
        stamp: i64,
        rows: Vec<Row>,
    ) -> Option<u64> {
        let clock = self.clock.read().clone();
        let deadline = clock.deadline_us(Duration::from_micros(timeout_us));
        let mut p = slot.state.lock();
        // The first offset is captured at the first push: another
        // producer may append while this one waits with the lock released.
        let mut first = None;
        for row in rows {
            while p.len >= cap {
                let remaining = deadline.saturating_sub(clock.monotonic_us());
                if remaining == 0 {
                    return None;
                }
                if clock.is_virtual() {
                    // Virtual time cannot observe a condvar wait, so
                    // poll: release the lock, sleep on the clock (which
                    // is what lets simulated time advance), re-check.
                    drop(p);
                    clock.sleep(BLOCK_POLL);
                    p = slot.state.lock();
                } else {
                    p = slot
                        .space_freed
                        .wait_timeout(p, Duration::from_micros(remaining))
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            }
            first.get_or_insert(p.extend([row], stamp));
        }
        Some(first.unwrap_or(p.next_offset()))
    }

    /// Records shed by [`OverflowPolicy::DropOldest`] appends since the
    /// topic was created. Always 0 for unbounded or non-shedding topics.
    pub fn shed_records(&self, topic: &str) -> Result<u64> {
        Ok(self.topic(topic)?.shed.load(Ordering::Relaxed))
    }

    /// Append rows stamped with the current wall clock.
    pub fn append(
        &self,
        topic: &str,
        partition: u32,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<u64> {
        self.append_at(topic, partition, now_us(), rows)
    }

    /// Read up to `max` records from `[from_offset, ...)`. Errors if
    /// `from_offset` has been truncated away (retention expired);
    /// reading at/past the end returns an empty vector. The records
    /// are built from the log's columns, one `Row` per record.
    pub fn read(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        self.scan(topic, partition, from_offset, max, &mut |mut offset, chunk, range| {
            out.reserve(range.len());
            for (run, ingest_time_us) in chunk.stamp_runs(range) {
                for i in run {
                    let value = |c: &Option<ColumnBuilder>| {
                        c.as_ref().map_or(Value::Null, |c| c.column().value(i))
                    };
                    out.push(Record {
                        offset,
                        ingest_time_us,
                        row: chunk.columns.iter().map(value).collect(),
                    });
                    offset += 1;
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit records `[from_offset, from_offset + max)` in place with
    /// the partition locked, chunk by chunk. Returns how many records
    /// that was. Errors as [`MessageBus::read`] does, or with the first
    /// error `f` returns.
    pub(crate) fn scan(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
        f: &mut ChunkVisitor<'_>,
    ) -> Result<usize> {
        let t = self.topic(topic)?;
        let p = Self::slot(&t, topic, partition)?.state.lock();
        if from_offset < p.base_offset {
            return Err(SsError::Execution(format!(
                "offset {from_offset} of {topic}/{partition} is below the retention \
                 horizon {} (data expired)",
                p.base_offset
            )));
        }
        let idx = usize::try_from(from_offset - p.base_offset).unwrap_or(usize::MAX);
        let total = max.min(p.len.saturating_sub(idx));
        let (mut skip, mut left, mut first_offset) = (p.head.saturating_add(idx), total, from_offset);
        for c in &p.chunks {
            if left == 0 {
                break;
            }
            let len = c.len();
            if skip >= len {
                skip -= len;
                continue;
            }
            let range = skip..len.min(skip + left);
            f(first_offset, c, range.clone())?;
            first_offset += range.len() as u64;
            left -= range.len();
            skip = 0;
        }
        Ok(total)
    }

    /// The next offset to be written, per partition ("latest offsets" in
    /// the epoch protocol, §6.1 step 1).
    pub fn latest_offsets(&self, topic: &str) -> Result<PartitionOffsets> {
        let t = self.topic(topic)?;
        Ok(t.partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.state.lock().next_offset()))
            .collect())
    }

    /// Earliest retained offset, per partition.
    pub fn earliest_offsets(&self, topic: &str) -> Result<PartitionOffsets> {
        let t = self.topic(topic)?;
        Ok(t.partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.state.lock().base_offset))
            .collect())
    }

    /// Total records currently retained in the topic.
    pub fn retained_records(&self, topic: &str) -> Result<u64> {
        let t = self.topic(topic)?;
        Ok(t.partitions
            .iter()
            .map(|p| p.state.lock().len as u64)
            .sum())
    }

    /// Simulate retention: drop records below `offset` in a partition.
    /// Frees capacity in bounded topics, waking blocked producers.
    pub fn truncate_before(&self, topic: &str, partition: u32, offset: u64) -> Result<()> {
        let t = self.topic(topic)?;
        let slot = Self::slot(&t, topic, partition)?;
        let mut p = slot.state.lock();
        if offset <= p.base_offset {
            return Ok(());
        }
        let cut = usize::try_from(offset - p.base_offset).map_or(p.len, |n| n.min(p.len));
        let freed = p.drop_oldest(cut);
        p.base_offset = offset;
        drop(p);
        slot.space_freed.notify_all();
        drop(freed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::row;
    use std::time::Instant;

    fn bus() -> MessageBus {
        let b = MessageBus::new();
        b.create_topic("events", 2).unwrap();
        b
    }

    #[test]
    fn create_validates() {
        let b = bus();
        assert!(b.create_topic("events", 1).is_err());
        assert!(b.create_topic("zero", 0).is_err());
        assert!(b.has_topic("events"));
        assert_eq!(b.num_partitions("events").unwrap(), 2);
        assert!(b.read("nope", 0, 0, 1).is_err());
    }

    #[test]
    fn append_and_read_back() {
        let b = bus();
        let first = b.append_at("events", 0, 100, vec![row![1i64], row![2i64]]).unwrap();
        assert_eq!(first, 0);
        let next = b.append_at("events", 0, 200, vec![row![3i64]]).unwrap();
        assert_eq!(next, 2);
        let records = b.read("events", 0, 1, 10).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].offset, 1);
        assert_eq!(records[0].row, row![2i64]);
        assert_eq!(records[1].ingest_time_us, 200);
        // Other partition untouched.
        assert!(b.read("events", 1, 0, 10).unwrap().is_empty());
        // Reading past the end is empty, not an error.
        assert!(b.read("events", 0, 3, 10).unwrap().is_empty());
    }

    #[test]
    fn replay_reads_the_same_data_twice() {
        let b = bus();
        b.append_at("events", 0, 0, (0..5).map(|i| row![i])).unwrap();
        let a = b.read("events", 0, 1, 3).unwrap();
        let c = b.read("events", 0, 1, 3).unwrap();
        assert_eq!(a, c);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn latest_and_earliest_offsets() {
        let b = bus();
        b.append_at("events", 0, 0, vec![row![1i64]]).unwrap();
        b.append_at("events", 1, 0, vec![row![1i64], row![2i64]]).unwrap();
        let latest = b.latest_offsets("events").unwrap();
        assert_eq!(latest[&0], 1);
        assert_eq!(latest[&1], 2);
        assert_eq!(b.earliest_offsets("events").unwrap()[&0], 0);
        assert_eq!(b.retained_records("events").unwrap(), 3);
    }

    #[test]
    fn truncation_expires_old_data() {
        let b = bus();
        b.append_at("events", 0, 0, (0..10).map(|i| row![i])).unwrap();
        b.truncate_before("events", 0, 4).unwrap();
        assert_eq!(b.earliest_offsets("events").unwrap()[&0], 4);
        assert_eq!(b.retained_records("events").unwrap(), 6);
        // Reading expired offsets errors (the rollback-too-far case).
        let err = b.read("events", 0, 2, 10).unwrap_err();
        assert!(err.to_string().contains("retention"));
        // Reading retained offsets still works and keeps numbering.
        let r = b.read("events", 0, 4, 2).unwrap();
        assert_eq!(r[0].offset, 4);
        assert_eq!(r[0].row, row![4i64]);
        // Truncating backwards is a no-op.
        b.truncate_before("events", 0, 1).unwrap();
        assert_eq!(b.earliest_offsets("events").unwrap()[&0], 4);
    }

    fn chunk_lens(b: &MessageBus, topic: &str) -> Vec<usize> {
        let t = b.topic(topic).unwrap();
        let p = t.partitions[0].state.lock();
        p.chunks.iter().map(Chunk::len).collect()
    }

    #[test]
    fn small_appends_share_a_chunk_and_a_change_of_shape_seals_it() {
        let b = bus();
        for i in 0..100i64 {
            b.append_at("events", 0, i, vec![row![i, "a"]]).unwrap();
        }
        b.append_at("events", 0, 0, vec![row![Value::Null, "b"], row![7i64, Value::Null]]).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [102]);
        // Another type in a position, then another arity: a new chunk each.
        b.append_at("events", 0, 0, vec![row!["x", "c"], row!["y", "d"]]).unwrap();
        b.append_at("events", 0, 0, vec![row![1i64, "e", true]]).unwrap();
        b.append_at("events", 0, 0, vec![row![2i64, "f", false]]).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [102, 2, 2]);
        // Reads give back exactly what went in, shape by shape.
        let r = b.read("events", 0, 100, 10).unwrap();
        let rows: Vec<Row> = r.into_iter().map(|r| r.row).collect();
        assert_eq!(
            rows,
            [
                row![Value::Null, "b"],
                row![7i64, Value::Null],
                row!["x", "c"],
                row!["y", "d"],
                row![1i64, "e", true],
                row![2i64, "f", false]
            ]
        );
    }

    #[test]
    fn leading_nulls_are_back_filled_when_a_column_gets_its_type() {
        let b = bus();
        b.append_at("events", 0, 0, vec![row![Value::Null, 1i64], row![Value::Null, 2i64]]).unwrap();
        b.append_at("events", 0, 0, vec![row![2.5, 3i64]]).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [3]);
        let r = b.read("events", 0, 0, 10).unwrap();
        assert_eq!(r[1].row, row![Value::Null, 2i64]);
        assert_eq!(r[2].row, row![2.5, 3i64]);
    }

    #[test]
    fn chunks_are_bounded_and_retention_drops_them_whole() {
        let b = bus();
        let n = CHUNK_ROWS as i64;
        b.append_at("events", 0, 0, (0..2 * n + 10).map(|i| row![i])).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [CHUNK_ROWS, CHUNK_ROWS, 10]);
        // A cut inside the first chunk keeps it (with a head offset) ...
        b.truncate_before("events", 0, 5).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [CHUNK_ROWS, CHUNK_ROWS, 10]);
        assert_eq!(b.read("events", 0, 5, 1).unwrap()[0].row, row![5i64]);
        // ... one past its end drops it, one at the log's end drops all.
        b.truncate_before("events", 0, n as u64 + 1).unwrap();
        assert_eq!(chunk_lens(&b, "events"), [CHUNK_ROWS, 10]);
        assert_eq!(b.read("events", 0, n as u64 + 1, 1).unwrap()[0].row, row![n + 1]);
        b.truncate_before("events", 0, 2 * n as u64 + 10).unwrap();
        assert!(chunk_lens(&b, "events").is_empty());
        assert_eq!(b.append_at("events", 0, 0, vec![row![0i64]]).unwrap(), 2 * n as u64 + 10);
    }

    fn bounded(capacity: usize, overflow: OverflowPolicy) -> MessageBus {
        let b = MessageBus::new();
        b.create_topic_with(
            "t",
            TopicConfig {
                partitions: 1,
                capacity: Some(capacity),
                overflow,
            },
        )
        .unwrap();
        b
    }

    #[test]
    fn bounded_topic_validates_capacity() {
        let b = MessageBus::new();
        let err = b
            .create_topic_with(
                "t",
                TopicConfig {
                    partitions: 1,
                    capacity: Some(0),
                    overflow: OverflowPolicy::Reject,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn reject_policy_refuses_whole_batch() {
        let b = bounded(3, OverflowPolicy::Reject);
        b.append_at("t", 0, 0, vec![row![1i64], row![2i64]]).unwrap();
        // A batch that would overflow is refused atomically.
        let err = b.append_at("t", 0, 0, vec![row![3i64], row![4i64]]).unwrap_err();
        assert_eq!(err.category(), "resource_exhausted");
        assert_eq!(b.retained_records("t").unwrap(), 2);
        // A batch that fits still lands.
        b.append_at("t", 0, 0, vec![row![3i64]]).unwrap();
        assert_eq!(b.retained_records("t").unwrap(), 3);
        assert_eq!(b.shed_records("t").unwrap(), 0);
    }

    #[test]
    fn drop_oldest_sheds_and_counts() {
        let b = bounded(3, OverflowPolicy::DropOldest);
        b.append_at("t", 0, 0, (0..5).map(|i| row![i])).unwrap();
        // Capacity 3: the two oldest records were shed.
        assert_eq!(b.retained_records("t").unwrap(), 3);
        assert_eq!(b.shed_records("t").unwrap(), 2);
        assert_eq!(b.earliest_offsets("t").unwrap()[&0], 2);
        // Offsets stay dense; shed records read as expired.
        let r = b.read("t", 0, 2, 10).unwrap();
        assert_eq!(r[0].row, row![2i64]);
        assert!(b.read("t", 0, 0, 10).is_err());
        // Shedding accumulates across appends.
        b.append_at("t", 0, 0, vec![row![5i64]]).unwrap();
        assert_eq!(b.shed_records("t").unwrap(), 3);
    }

    #[test]
    fn block_policy_times_out_when_consumer_stalls() {
        let b = bounded(2, OverflowPolicy::Block { timeout_us: 20_000 });
        b.append_at("t", 0, 0, vec![row![1i64], row![2i64]]).unwrap();
        let start = Instant::now();
        let err = b.append_at("t", 0, 0, vec![row![3i64]]).unwrap_err();
        assert_eq!(err.category(), "resource_exhausted");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(b.retained_records("t").unwrap(), 2);
    }

    #[test]
    fn block_policy_times_out_on_virtual_time() {
        use ss_common::clock::SimClock;
        // An hour-long producer timeout elapses virtually: the blocked
        // producer's polls are the only sleeps, so the clock jumps
        // straight through them and the append fails in wall-microseconds.
        let b = bounded(2, OverflowPolicy::Block { timeout_us: 3_600_000_000 });
        let sim = SimClock::new(7);
        b.set_clock(sim.handle());
        b.append_at("t", 0, 0, vec![row![1i64], row![2i64]]).unwrap();
        let start = Instant::now();
        let err = b.append_at("t", 0, 0, vec![row![3i64]]).unwrap_err();
        assert_eq!(err.category(), "resource_exhausted");
        assert!(sim.now_us() >= 3_600_000_000, "virtual wait ran to the deadline");
        assert!(start.elapsed() < Duration::from_secs(5), "wall time stayed bounded");
        assert_eq!(b.retained_records("t").unwrap(), 2);
    }

    #[test]
    fn block_policy_unblocks_when_retention_frees_space() {
        let b = Arc::new(bounded(2, OverflowPolicy::Block { timeout_us: 5_000_000 }));
        b.append_at("t", 0, 0, vec![row![1i64], row![2i64]]).unwrap();
        let producer = {
            let b = b.clone();
            std::thread::spawn(move || b.append_at("t", 0, 0, vec![row![3i64], row![4i64]]))
        };
        // Consumer catches up: truncating consumed offsets frees
        // capacity and wakes the blocked producer.
        std::thread::sleep(Duration::from_millis(20));
        b.truncate_before("t", 0, 2).unwrap();
        let first = producer.join().unwrap().unwrap();
        assert_eq!(first, 2);
        let r = b.read("t", 0, 2, 10).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].row, row![4i64]);
        assert_eq!(b.shed_records("t").unwrap(), 0);
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let b = Arc::new(MessageBus::new());
        b.create_topic("t", 4).unwrap();
        let mut handles = Vec::new();
        for p in 0..4u32 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500i64 {
                    b.append_at("t", p, i, vec![row![i]]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for p in 0..4u32 {
            let records = b.read("t", p, 0, 10_000).unwrap();
            assert_eq!(records.len(), 500);
            // Offsets are dense and ordered.
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.offset, i as u64);
            }
        }
    }
}
