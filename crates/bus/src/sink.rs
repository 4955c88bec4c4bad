//! Sinks: idempotent epoch-committed outputs.
//!
//! Requirement (2) of §3: "Output sinks must support idempotent writes,
//! to ensure reliable recovery if a node fails while writing." Every
//! sink here receives output as whole epochs; committing the same epoch
//! twice leaves exactly one copy, which is what lets recovery re-run
//! the last uncommitted epoch (§6.1 step 4).
//!
//! The three output modes of §4.2 map onto [`EpochOutput`]:
//! * `Append(batch)` — new rows only;
//! * `Update { batch, key_cols }` — upserts keyed by `key_cols`;
//! * `Complete(batch)` — the whole result table.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_common::{RecordBatch, Result, Row, SsError};

use crate::bus::MessageBus;
use crate::json::row_to_json;

/// One epoch's output, in one of the three output modes (§4.2).
#[derive(Debug, Clone)]
pub enum EpochOutput {
    Append(RecordBatch),
    Update {
        batch: RecordBatch,
        /// Column indices forming the upsert key.
        key_cols: Vec<usize>,
    },
    Complete(RecordBatch),
}

impl EpochOutput {
    pub fn batch(&self) -> &RecordBatch {
        match self {
            EpochOutput::Append(b)
            | EpochOutput::Update { batch: b, .. }
            | EpochOutput::Complete(b) => b,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.batch().num_rows()
    }
}

/// An idempotent, epoch-committed output.
pub trait Sink: Send + Sync {
    fn name(&self) -> &str;
    /// Commit one epoch's output. MUST be idempotent: committing the
    /// same `(epoch, output)` again leaves the sink unchanged.
    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()>;
    /// Remove output from epochs after `epoch`, where the sink supports
    /// it (manual rollback, §7.2; footnote 4 notes this is
    /// sink-specific).
    fn truncate_after(&self, _epoch: u64) -> Result<()> {
        Ok(())
    }
    /// Total rows accepted (monitoring, §7.4).
    fn rows_written(&self) -> u64;
}

#[derive(Default)]
struct MemorySinkState {
    /// Append mode: rows per epoch (keyed by epoch => idempotent).
    appended: BTreeMap<u64, Vec<Row>>,
    /// Update mode: upsert map, key → (epoch, row).
    updated: BTreeMap<Row, (u64, Row)>,
    /// Complete mode: the last full table (epoch, rows).
    complete: Option<(u64, Vec<Row>)>,
}

/// An in-memory queryable result table — the paper's "output to an
/// in-memory Spark table that users can query interactively" (§3).
pub struct MemorySink {
    name: String,
    state: Mutex<MemorySinkState>,
    rows_written: AtomicU64,
}

impl MemorySink {
    pub fn new(name: impl Into<String>) -> Arc<MemorySink> {
        Arc::new(MemorySink {
            name: name.into(),
            state: Mutex::new(MemorySinkState::default()),
            rows_written: AtomicU64::new(0),
        })
    }

    /// A consistent snapshot of the current result table, sorted by
    /// row for update/complete modes (append preserves arrival order).
    pub fn snapshot(&self) -> Vec<Row> {
        let st = self.state.lock();
        if let Some((_, rows)) = &st.complete {
            return rows.clone();
        }
        if !st.updated.is_empty() {
            return st.updated.values().map(|(_, r)| r.clone()).collect();
        }
        st.appended.values().flatten().cloned().collect()
    }

    /// Epochs committed so far (append mode).
    pub fn committed_epochs(&self) -> Vec<u64> {
        self.state.lock().appended.keys().copied().collect()
    }
}

impl Sink for MemorySink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        let mut st = self.state.lock();
        match output {
            EpochOutput::Append(batch) => {
                // Keyed by epoch: a re-run replaces, never duplicates.
                st.appended.insert(epoch, batch.to_rows());
            }
            EpochOutput::Update { batch, key_cols } => {
                for row in batch.to_rows() {
                    let key = row.project(key_cols);
                    st.updated.insert(key, (epoch, row));
                }
            }
            EpochOutput::Complete(batch) => {
                st.complete = Some((epoch, batch.to_rows()));
            }
        }
        self.rows_written
            .fetch_add(output.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        let mut st = self.state.lock();
        st.appended.retain(|&e, _| e <= epoch);
        // Upserts from later epochs are dropped; overwritten earlier
        // values cannot be restored (sink-specific limitation, §7.2
        // footnote 4).
        st.updated.retain(|_, (e, _)| *e <= epoch);
        if st.complete.as_ref().is_some_and(|(e, _)| *e > epoch) {
            st.complete = None;
        }
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.rows_written.load(Ordering::Relaxed)
    }
}

/// Writes each epoch as a JSON-lines file. Append/update epochs become
/// `part-<epoch>.json` (idempotent: a re-run overwrites the same file);
/// complete mode replaces `result.json` wholesale — "e.g., replacing a
/// whole file in HDFS with a new version" (§4.2).
pub struct FileSink {
    name: String,
    dir: PathBuf,
    rows_written: AtomicU64,
}

impl FileSink {
    pub fn new(dir: impl AsRef<Path>) -> Result<Arc<FileSink>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(FileSink {
            name: format!("files:{}", dir.display()),
            dir,
            rows_written: AtomicU64::new(0),
        }))
    }

    fn write_atomic(&self, file: &Path, contents: &str) -> Result<()> {
        let tmp = file.with_extension("tmp");
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, file)?;
        Ok(())
    }

    fn render(batch: &RecordBatch) -> Result<String> {
        let mut out = String::new();
        for row in batch.to_rows() {
            out.push_str(&row_to_json(batch.schema(), &row)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Read everything the sink currently holds (test/demo helper).
    pub fn read_all(&self) -> Result<Vec<String>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut lines = Vec::new();
        for f in files {
            for line in std::fs::read_to_string(&f)?.lines() {
                if !line.trim().is_empty() {
                    lines.push(line.to_string());
                }
            }
        }
        Ok(lines)
    }
}

impl Sink for FileSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        match output {
            EpochOutput::Append(batch) | EpochOutput::Update { batch, .. } => {
                let file = self.dir.join(format!("part-{epoch:020}.json"));
                self.write_atomic(&file, &Self::render(batch)?)?;
            }
            EpochOutput::Complete(batch) => {
                let file = self.dir.join("result.json");
                self.write_atomic(&file, &Self::render(batch)?)?;
            }
        }
        self.rows_written
            .fetch_add(output.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        // "For the file sink [...] it's straightforward to find which
        // files were written in a particular epoch and remove those"
        // (§7.2 footnote 4).
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(e) = name
                .strip_prefix("part-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                if e > epoch {
                    std::fs::remove_file(&path)?;
                }
            }
        }
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.rows_written.load(Ordering::Relaxed)
    }
}

/// Writes output rows back to a bus topic — the "transform data before
/// it is used in other streaming applications" deployment the paper
/// says is the most common low-latency use case (§6.3).
pub struct BusSink {
    name: String,
    bus: Arc<MessageBus>,
    topic: String,
    committed: Mutex<BTreeSet<u64>>,
    rows_written: AtomicU64,
}

impl BusSink {
    pub fn new(bus: Arc<MessageBus>, topic: impl Into<String>) -> Result<Arc<BusSink>> {
        let topic = topic.into();
        if !bus.has_topic(&topic) {
            return Err(SsError::Plan(format!("unknown topic `{topic}`")));
        }
        Ok(Arc::new(BusSink {
            name: format!("bus:{topic}"),
            bus,
            topic,
            committed: Mutex::new(BTreeSet::new()),
            rows_written: AtomicU64::new(0),
        }))
    }
}

impl Sink for BusSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        {
            // Message buses cannot replace records; idempotence comes
            // from remembering committed epochs and skipping re-runs.
            let mut committed = self.committed.lock();
            if !committed.insert(epoch) {
                return Ok(());
            }
        }
        let batch = output.batch();
        let partitions = self.bus.num_partitions(&self.topic)?;
        let rows = batch.to_rows();
        // Spread rows round-robin across partitions.
        for (i, row) in rows.into_iter().enumerate() {
            self.bus
                .append(&self.topic, (i as u32) % partitions, vec![row])?;
        }
        self.rows_written
            .fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.rows_written.load(Ordering::Relaxed)
    }
}

/// Hands each epoch's output to a user closure — the `foreachBatch`
/// pattern: "users can compute a static table [...] or integrate with
/// arbitrary external systems" while the engine supplies exactly-once
/// epoch semantics. Re-delivery of an already-seen epoch is suppressed
/// (the closure need not be idempotent itself within one process
/// lifetime).
pub struct CallbackSink {
    name: String,
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(u64, &EpochOutput) -> Result<()> + Send + Sync>,
    committed: Mutex<BTreeSet<u64>>,
    rows_written: AtomicU64,
}

impl CallbackSink {
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(u64, &EpochOutput) -> Result<()> + Send + Sync + 'static,
    ) -> Arc<CallbackSink> {
        Arc::new(CallbackSink {
            name: name.into(),
            f: Box::new(f),
            committed: Mutex::new(BTreeSet::new()),
            rows_written: AtomicU64::new(0),
        })
    }
}

impl Sink for CallbackSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        {
            let mut committed = self.committed.lock();
            if !committed.insert(epoch) {
                return Ok(());
            }
        }
        // A failed delivery must stay deliverable: un-mark the epoch so
        // the recovery re-run reaches the callback again.
        if let Err(e) = (self.f)(epoch, output) {
            self.committed.lock().remove(&epoch);
            return Err(e);
        }
        self.rows_written
            .fetch_add(output.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        // Allow rolled-back epochs to be re-delivered.
        self.committed.lock().retain(|&e| e <= epoch);
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.rows_written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::{row, DataType, Field, Schema, SchemaRef};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("k", DataType::Utf8),
            Field::new("n", DataType::Int64),
        ])
    }

    fn batch(rows: &[Row]) -> RecordBatch {
        RecordBatch::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn memory_sink_append_is_idempotent_per_epoch() {
        let sink = MemorySink::new("m");
        sink.commit_epoch(1, &EpochOutput::Append(batch(&[row!["a", 1i64]]))).unwrap();
        // Recovery re-runs epoch 1 with the same content.
        sink.commit_epoch(1, &EpochOutput::Append(batch(&[row!["a", 1i64]]))).unwrap();
        sink.commit_epoch(2, &EpochOutput::Append(batch(&[row!["b", 2i64]]))).unwrap();
        assert_eq!(sink.snapshot(), vec![row!["a", 1i64], row!["b", 2i64]]);
        assert_eq!(sink.committed_epochs(), vec![1, 2]);
    }

    #[test]
    fn memory_sink_update_upserts_by_key() {
        let sink = MemorySink::new("m");
        let upd = |rows: &[Row]| EpochOutput::Update {
            batch: batch(rows),
            key_cols: vec![0],
        };
        sink.commit_epoch(1, &upd(&[row!["a", 1i64], row!["b", 1i64]])).unwrap();
        sink.commit_epoch(2, &upd(&[row!["a", 5i64]])).unwrap();
        assert_eq!(sink.snapshot(), vec![row!["a", 5i64], row!["b", 1i64]]);
    }

    #[test]
    fn memory_sink_complete_replaces() {
        let sink = MemorySink::new("m");
        sink.commit_epoch(1, &EpochOutput::Complete(batch(&[row!["a", 1i64]]))).unwrap();
        sink.commit_epoch(2, &EpochOutput::Complete(batch(&[row!["a", 2i64], row!["b", 1i64]])))
            .unwrap();
        assert_eq!(sink.snapshot(), vec![row!["a", 2i64], row!["b", 1i64]]);
        assert_eq!(sink.rows_written(), 3);
    }

    #[test]
    fn memory_sink_update_and_complete_replays_are_idempotent() {
        // Re-delivering the same (epoch, output) — what recovery does
        // after a crash between sink write and commit-log write — must
        // leave the table byte-identical in every output mode.
        let upd = |rows: &[Row]| EpochOutput::Update {
            batch: batch(rows),
            key_cols: vec![0],
        };
        let sink = MemorySink::new("m");
        sink.commit_epoch(1, &upd(&[row!["a", 1i64], row!["b", 2i64]])).unwrap();
        let before = sink.snapshot();
        sink.commit_epoch(1, &upd(&[row!["a", 1i64], row!["b", 2i64]])).unwrap();
        assert_eq!(sink.snapshot(), before);

        let sink = MemorySink::new("m");
        let full = EpochOutput::Complete(batch(&[row!["a", 3i64]]));
        sink.commit_epoch(1, &full).unwrap();
        let before = sink.snapshot();
        sink.commit_epoch(1, &full).unwrap();
        assert_eq!(sink.snapshot(), before);
    }

    #[test]
    fn truncate_then_replay_restores_exactly_once() {
        // Manual rollback (§7.2) followed by the recovery replay of the
        // truncated epochs must converge on exactly one copy of each.
        let sink = MemorySink::new("m");
        for e in 1..=3u64 {
            sink.commit_epoch(e, &EpochOutput::Append(batch(&[row!["x", e as i64]]))).unwrap();
        }
        let original = sink.snapshot();
        sink.truncate_after(1).unwrap();
        assert_eq!(sink.committed_epochs(), vec![1]);
        // Replay epochs 2 and 3 (twice — replays may themselves crash).
        for _ in 0..2 {
            for e in 2..=3u64 {
                sink.commit_epoch(e, &EpochOutput::Append(batch(&[row!["x", e as i64]])))
                    .unwrap();
            }
        }
        assert_eq!(sink.snapshot(), original);
        assert_eq!(sink.committed_epochs(), vec![1, 2, 3]);
    }

    #[test]
    fn memory_sink_truncate_rolls_back_epochs() {
        let sink = MemorySink::new("m");
        for e in 1..=3u64 {
            sink.commit_epoch(e, &EpochOutput::Append(batch(&[row!["x", e as i64]]))).unwrap();
        }
        sink.truncate_after(1).unwrap();
        assert_eq!(sink.snapshot(), vec![row!["x", 1i64]]);
    }

    #[test]
    fn file_sink_epoch_files_and_complete_replacement() {
        let dir = std::env::temp_dir().join(format!("ss-bus-fsink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = FileSink::new(&dir).unwrap();
        sink.commit_epoch(1, &EpochOutput::Append(batch(&[row!["a", 1i64]]))).unwrap();
        // Idempotent re-run.
        sink.commit_epoch(1, &EpochOutput::Append(batch(&[row!["a", 1i64]]))).unwrap();
        sink.commit_epoch(2, &EpochOutput::Append(batch(&[row!["b", 2i64]]))).unwrap();
        assert_eq!(sink.read_all().unwrap().len(), 2);
        sink.truncate_after(1).unwrap();
        assert_eq!(sink.read_all().unwrap().len(), 1);
        // Complete mode rewrites one file.
        sink.commit_epoch(3, &EpochOutput::Complete(batch(&[row!["c", 3i64]]))).unwrap();
        sink.commit_epoch(4, &EpochOutput::Complete(batch(&[row!["d", 4i64]]))).unwrap();
        let lines = sink.read_all().unwrap();
        assert!(lines.iter().any(|l| l.contains("\"d\"")));
        assert!(!lines.iter().any(|l| l.contains("\"c\"")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn callback_sink_delivers_once_and_replays_after_rollback() {
        let seen = Arc::new(Mutex::new(Vec::<(u64, usize)>::new()));
        let seen2 = seen.clone();
        let sink = CallbackSink::new("cb", move |epoch, out| {
            seen2.lock().push((epoch, out.num_rows()));
            Ok(())
        });
        let out = EpochOutput::Append(batch(&[row!["a", 1i64]]));
        sink.commit_epoch(1, &out).unwrap();
        sink.commit_epoch(1, &out).unwrap(); // recovery re-run: suppressed
        sink.commit_epoch(2, &out).unwrap();
        assert_eq!(seen.lock().as_slice(), &[(1, 1), (2, 1)]);
        assert_eq!(sink.rows_written(), 2);
        // Rollback re-opens later epochs for delivery.
        sink.truncate_after(1).unwrap();
        sink.commit_epoch(2, &out).unwrap();
        assert_eq!(seen.lock().len(), 3);
        // Callback errors propagate (the engine will not commit), and
        // the failed epoch stays deliverable for the recovery re-run.
        let attempts = Arc::new(AtomicU64::new(0));
        let a2 = attempts.clone();
        let flaky = CallbackSink::new("flaky", move |_, _| {
            if a2.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(ss_common::SsError::Execution("downstream down".into()))
            } else {
                Ok(())
            }
        });
        assert!(flaky.commit_epoch(1, &out).is_err());
        flaky.commit_epoch(1, &out).unwrap(); // recovery re-run delivers
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert_eq!(flaky.rows_written(), 1);
    }

    #[test]
    fn bus_sink_skips_duplicate_epochs() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("out", 2).unwrap();
        let sink = BusSink::new(bus.clone(), "out").unwrap();
        let out = EpochOutput::Append(batch(&[row!["a", 1i64], row!["b", 2i64]]));
        sink.commit_epoch(1, &out).unwrap();
        sink.commit_epoch(1, &out).unwrap();
        assert_eq!(bus.retained_records("out").unwrap(), 2);
        assert_eq!(sink.rows_written(), 2);
        assert!(BusSink::new(bus, "missing").is_err());
    }
}
