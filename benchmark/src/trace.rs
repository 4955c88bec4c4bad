//! Boundary tracing from outside the engine.
//!
//! The traced run wraps the three trait objects the engine is handed —
//! its [`Source`], its [`Sink`] and its [`CheckpointBackend`] — in
//! delegating wrappers that record one span per call, and the workload
//! drivers record one span around every `run_epoch` / `tick` / `submit`
//! / `start_sync`. Spans are pushed into a preallocated vector and only
//! turned into a tree (parent = innermost span containing the child)
//! and written out when the workload ends. The untraced run installs
//! none of this.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use ss_bus::{EpochOutput, MessageBus, Sink, Source};
use ss_common::{OffsetRange, PartitionOffsets, RecordBatch, Result, SchemaRef};
use ss_state::CheckpointBackend;

use crate::clock::now_us;

// Span names. Container spans are recorded by the workload drivers,
// the rest by the wrappers below.
pub const EPOCH: &str = "epoch";
pub const TICK: &str = "tick";
pub const SUBMIT: &str = "submit";
pub const START: &str = "start";
pub const SOURCE_OFFSETS: &str = "source.offsets";
pub const SOURCE_READ: &str = "source.read";
pub const SINK_COMMIT: &str = "sink.commit";
pub const SINK_TRUNCATE: &str = "sink.truncate";
pub const WAL_OFFSETS_WRITE: &str = "backend.wal-offsets.write";
pub const WAL_COMMIT_WRITE: &str = "backend.wal-commit.write";
pub const STATE_WRITE: &str = "backend.state.write";
pub const OTHER_WRITE: &str = "backend.other.write";
pub const BACKEND_READ: &str = "backend.read";
pub const BACKEND_LIST: &str = "backend.list";
pub const BACKEND_DELETE: &str = "backend.delete";

/// One timed call across a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The epoch (or tick) the span belongs to: given for container
    /// spans and sink commits, inherited from the root otherwise.
    pub epoch: u64,
    pub name: &'static str,
    pub start_us: i64,
    pub end_us: i64,
    pub rows: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_us(&self) -> i64 {
        self.end_us - self.start_us
    }
}

/// The in-memory span buffer shared by the wrappers of one workload.
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(capacity: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            spans: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    pub fn record(&self, name: &'static str, epoch: u64, start_us: i64, rows: u64, bytes: u64) {
        let end_us = now_us();
        let mut spans = self.spans.lock().expect("span buffer lock");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent: None,
            epoch,
            name,
            start_us,
            end_us,
            rows,
            bytes,
        });
    }

    /// Time `f` as a span; `f` reports the rows and bytes it moved.
    pub fn time<R>(
        &self,
        name: &'static str,
        epoch: u64,
        f: impl FnOnce() -> Result<(R, u64, u64)>,
    ) -> Result<R> {
        let start = now_us();
        let (out, rows, bytes) = f()?;
        self.record(name, epoch, start, rows, bytes);
        Ok(out)
    }

    /// Take the spans recorded so far, leaving the buffer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// A resolved span tree.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Number the spans, give every span its parent — the innermost
    /// span that contains it in time — and let it inherit its root's
    /// epoch id.
    pub fn resolve(mut spans: Vec<Span>) -> Trace {
        for (i, span) in spans.iter_mut().enumerate() {
            span.id = i as u32;
        }
        let mut order: Vec<usize> = (0..spans.len()).collect();
        // Containers are recorded when they end, after their children:
        // between spans over the very same interval the later one is
        // the outer one.
        order.sort_by_key(|&i| {
            (
                spans[i].start_us,
                std::cmp::Reverse(spans[i].end_us),
                std::cmp::Reverse(i),
            )
        });
        let mut open: Vec<usize> = Vec::new();
        for &i in &order {
            let (start, end) = (spans[i].start_us, spans[i].end_us);
            open.retain(|&o| spans[o].end_us >= start);
            let parent = open
                .iter()
                .rev()
                .copied()
                .find(|&o| spans[o].start_us <= start && spans[o].end_us >= end);
            if let Some(p) = parent {
                spans[i].parent = Some(spans[p].id);
                if spans[i].epoch == 0 {
                    spans[i].epoch = spans[p].epoch;
                }
            }
            open.push(i);
        }
        Trace { spans }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_us() as f64).collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration_us() as f64).sum()
    }

    pub fn total_rows(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.rows).sum()
    }

    pub fn total_bytes(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.bytes).sum()
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its children cover (overlapping children count once).
    pub fn self_us(&self, id: u32) -> i64 {
        let span = &self.spans[id as usize];
        let mut children: Vec<(i64, i64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0, span.start_us);
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_us() - covered
    }

    /// Write the spans as a JSON array, one object per span.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"epoch\":{},\"name\":\"{}\",\"start_us\":{},\
                 \"end_us\":{},\"rows\":{},\"bytes\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                parent,
                s.epoch,
                s.name,
                s.start_us,
                s.end_us,
                s.rows,
                s.bytes
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// A [`Source`] that forwards every call and records the reads.
pub struct TracedSource {
    inner: Arc<dyn Source>,
    rec: Arc<Recorder>,
}

impl TracedSource {
    pub fn new(inner: Arc<dyn Source>, rec: Arc<Recorder>) -> Arc<TracedSource> {
        Arc::new(TracedSource { inner, rec })
    }

    fn read_one(&self, f: impl FnOnce() -> Result<RecordBatch>) -> Result<RecordBatch> {
        self.rec.time(SOURCE_READ, 0, || {
            let batch = f()?;
            let rows = batch.num_rows() as u64;
            Ok((batch, rows, 0))
        })
    }

    fn read_many(&self, f: impl FnOnce() -> Result<Vec<RecordBatch>>) -> Result<Vec<RecordBatch>> {
        self.rec.time(SOURCE_READ, 0, || {
            let batches = f()?;
            let rows = batches.iter().map(|b| b.num_rows() as u64).sum();
            Ok((batches, rows, 0))
        })
    }
}

impl Source for TracedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn num_partitions(&self) -> u32 {
        self.inner.num_partitions()
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        self.rec.time(SOURCE_OFFSETS, 0, || {
            Ok((self.inner.latest_offsets()?, 0, 0))
        })
    }

    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        self.rec.time(SOURCE_OFFSETS, 0, || {
            Ok((self.inner.earliest_offsets()?, 0, 0))
        })
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        self.read_one(|| self.inner.read_partition(partition, start, end))
    }

    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        self.inner.bus_binding()
    }

    fn read_partition_projected(
        &self,
        partition: u32,
        start: u64,
        end: u64,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.read_one(|| {
            self.inner
                .read_partition_projected(partition, start, end, projection)
        })
    }

    fn read(&self, range: &OffsetRange) -> Result<Vec<RecordBatch>> {
        self.read_many(|| self.inner.read(range))
    }

    fn read_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<Vec<RecordBatch>> {
        self.read_many(|| self.inner.read_projected(range, projection))
    }

    fn ingest_bounds(&self, range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        self.rec.time(SOURCE_OFFSETS, 0, || {
            Ok((self.inner.ingest_bounds(range)?, 0, 0))
        })
    }

    fn read_all_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.read_one(|| self.inner.read_all_projected(range, projection))
    }
}

/// A [`Sink`] that forwards every call and records the commits.
pub struct TracedSink {
    inner: Arc<dyn Sink>,
    rec: Arc<Recorder>,
}

impl TracedSink {
    pub fn new(inner: Arc<dyn Sink>, rec: Arc<Recorder>) -> Arc<TracedSink> {
        Arc::new(TracedSink { inner, rec })
    }
}

impl Sink for TracedSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        self.rec.time(SINK_COMMIT, epoch, || {
            self.inner.commit_epoch(epoch, output)?;
            Ok(((), output.num_rows() as u64, 0))
        })
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        self.rec.time(SINK_TRUNCATE, 0, || {
            Ok((self.inner.truncate_after(epoch)?, 0, 0))
        })
    }

    fn rows_written(&self) -> u64 {
        self.inner.rows_written()
    }
}

/// A [`CheckpointBackend`] that forwards every call and records it
/// under the layer its key belongs to (WAL offsets, WAL commits,
/// state checkpoints, anything else).
pub struct TracedBackend {
    inner: Arc<dyn CheckpointBackend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn CheckpointBackend>, rec: Arc<Recorder>) -> Arc<TracedBackend> {
        Arc::new(TracedBackend { inner, rec })
    }
}

fn write_span_name(key: &str) -> &'static str {
    if key.starts_with("wal/offsets/") {
        WAL_OFFSETS_WRITE
    } else if key.starts_with("wal/commits/") {
        WAL_COMMIT_WRITE
    } else if key.starts_with("state/") {
        STATE_WRITE
    } else {
        OTHER_WRITE
    }
}

impl CheckpointBackend for TracedBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
        self.rec.time(write_span_name(key), 0, || {
            self.inner.write_atomic(key, data)?;
            Ok(((), 0, data.len() as u64))
        })
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.rec.time(BACKEND_READ, 0, || {
            let data = self.inner.read(key)?;
            let bytes = data.as_ref().map_or(0, |d| d.len() as u64);
            Ok((data, 0, bytes))
        })
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.rec
            .time(BACKEND_LIST, 0, || Ok((self.inner.list(prefix)?, 0, 0)))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.rec
            .time(BACKEND_DELETE, 0, || Ok((self.inner.delete(key)?, 0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, epoch: u64, name: &'static str, start_us: i64, end_us: i64) -> Span {
        Span {
            id,
            parent: None,
            epoch,
            name,
            start_us,
            end_us,
            rows: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // epoch 7 [0,100] has children [10,30], [20,50] (overlapping:
        // two parallel reads) and [60,70]; a second epoch [100,150]
        // has one child that shares its start.
        let trace = Trace::resolve(vec![
            span(0, 7, EPOCH, 0, 100),
            span(1, 0, SOURCE_READ, 10, 30),
            span(2, 0, SOURCE_READ, 20, 50),
            span(3, 0, SINK_COMMIT, 60, 70),
            span(4, 8, EPOCH, 100, 150),
            span(5, 0, STATE_WRITE, 100, 120),
        ]);
        let parents: Vec<Option<u32>> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(0), None, Some(4)]);
        let epochs: Vec<u64> = trace.spans.iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, [7, 7, 7, 7, 8, 8]);
        assert_eq!(trace.self_us(0), 100 - (40 + 10));
        assert_eq!(trace.self_us(4), 30);
        assert_eq!(trace.self_us(1), 20);
        assert_eq!(trace.total_us(SOURCE_READ), 50.0);
    }

    #[test]
    fn nested_containers_pick_the_innermost_parent() {
        let trace = Trace::resolve(vec![
            span(0, 3, TICK, 0, 100),
            span(1, 0, EPOCH, 5, 60),
            span(2, 0, SOURCE_READ, 10, 20),
            span(3, 0, SINK_COMMIT, 70, 80),
        ]);
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[3].parent, Some(0));
        assert_eq!(trace.spans[2].epoch, 3);
        assert_eq!(trace.self_us(0), 100 - 55 - 10);
    }

    #[test]
    fn trace_file_is_a_json_array_of_spans() {
        let dir = crate::workloads::TempDir::new("trace-test").unwrap();
        let path = dir.0.join("trace-test.json");
        let trace = Trace::resolve(vec![span(0, 1, EPOCH, 0, 9), span(1, 0, SINK_COMMIT, 2, 4)]);
        trace.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n{\"id\":0,\"parent\":null,\"epoch\":1,\"name\":\"epoch\""));
        assert!(text.contains("{\"id\":1,\"parent\":0,\"epoch\":1,\"name\":\"sink.commit\""));
        assert!(text.ends_with("\n]\n"));
    }
}
