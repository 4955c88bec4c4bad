//! # ss-wal — the write-ahead log (§3, §6.1, §7.2)
//!
//! "Each application maintains a write-ahead event log in human-readable
//! JSON format that administrators can use to restart it from an
//! arbitrary point."
//!
//! Two logs, both JSON, both written atomically through the same
//! pluggable durable backend the state store uses:
//!
//! * the **offset log**: before an epoch executes, the master records
//!   the start/end offsets of every source partition for that epoch
//!   (§6.1 step 1);
//! * the **commit log**: after the sink accepts an epoch's output, the
//!   epoch is recorded as committed (§6.1 step 3). On recovery, the last
//!   committed epoch tells the engine where to resume; the last
//!   *offset-logged* epoch may be re-executed, relying on sink
//!   idempotence (§6.1 step 4).
//!
//! [`WriteAheadLog::truncate_after`] implements the manual-rollback
//! workflow of §7.2: an administrator picks an epoch, the logs are
//! truncated to it, and the engine recomputes from that prefix.

pub mod lease;
pub mod manifest;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub use lease::{FencedBackend, HaRole, LeaseManager, LeaseRecord, LEASE_KEY};
pub use manifest::{Manifest, MANIFEST_KEY, MANIFEST_VERSION};

pub use ss_common::offsets::{OffsetRange, PartitionOffsets};
use ss_common::fault::FaultRegistry;
use ss_common::frame;
use ss_common::{Counter, Histogram, MetricsRegistry, Result, SsError};
use ss_state::CheckpointBackend;

/// Fail-point names fired on the WAL's durability paths.
pub mod failpoints {
    /// Before appending a record to the offset log.
    pub const OFFSETS_APPEND: &str = "wal.offsets.append";
    /// Before appending a record to the commit log.
    pub const COMMITS_APPEND: &str = "wal.commits.append";
    /// Before reading a record from the offset log.
    pub const OFFSETS_READ: &str = "wal.offsets.read";
    /// Before reading a record from the commit log.
    pub const COMMITS_READ: &str = "wal.commits.read";
}

/// Instrument handles for one [`WriteAheadLog`], registered under the
/// `ss_wal_*` families with a `log` label distinguishing the offset log
/// from the commit log.
#[derive(Debug, Clone)]
struct LogMetrics {
    appends: Counter,
    append_us: Histogram,
    replays: Counter,
    replay_us: Histogram,
}

#[derive(Debug, Clone)]
struct WalMetrics {
    offsets: LogMetrics,
    commits: LogMetrics,
}

impl WalMetrics {
    fn new(registry: &MetricsRegistry) -> WalMetrics {
        registry.describe("ss_wal_appends_total", "Records durably appended to the WAL.");
        registry.describe("ss_wal_append_us", "WAL append (atomic write) latency.");
        registry.describe("ss_wal_replays_total", "WAL records read back (recovery/replay).");
        registry.describe("ss_wal_replay_us", "WAL record read latency.");
        let log = |name: &'static str| LogMetrics {
            appends: registry.counter("ss_wal_appends_total", &[("log", name)]),
            append_us: registry.histogram("ss_wal_append_us", &[("log", name)]),
            replays: registry.counter("ss_wal_replays_total", &[("log", name)]),
            replay_us: registry.histogram("ss_wal_replay_us", &[("log", name)]),
        };
        WalMetrics {
            offsets: log("offsets"),
            commits: log("commits"),
        }
    }
}

/// The offset-log record for one epoch (§6.1 step 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOffsets {
    pub epoch: u64,
    /// Source name → offset range read in this epoch.
    pub sources: BTreeMap<String, OffsetRange>,
    /// The event-time watermark in force when the epoch was defined
    /// (µs; `i64::MIN` before any data). Persisted so recovery resumes
    /// with the same watermark and produces identical output.
    pub watermark_us: i64,
    /// Processing time when the epoch was defined (µs since epoch).
    pub defined_at_us: i64,
}

/// The commit-log record for one epoch (§6.1 step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCommit {
    pub epoch: u64,
    /// Rows delivered to the sink in this epoch.
    pub rows_written: u64,
    /// Processing time of the commit (µs since epoch).
    pub committed_at_us: i64,
    /// Offsets quarantined (diverted to the dead-letter queue) while
    /// executing this epoch, keyed by source name as `(partition,
    /// offset)` pairs. Recorded in the commit so a recovery replay
    /// drops exactly these records *without re-probing* — committed
    /// output stays byte-identical and the DLQ exactly-once. Absent in
    /// records written before quarantine existed (default: empty).
    pub quarantined: BTreeMap<String, Vec<(u32, u64)>>,
    /// Fencing epoch of the lease the writer held when committing, when
    /// HA is enabled. A recovery or standby that finds a commit stamped
    /// with a *higher* fencing epoch than its own lease knows another
    /// leader has written past it. `None` when HA is off and in records
    /// written before HA existed; skipped when absent so non-HA commit
    /// bytes stay identical to the legacy format.
    pub fencing_epoch: Option<u64>,
}

// Hand-written serde impls: `quarantined` is skipped when empty (the
// on-disk bytes of quarantine-free commits stay identical to the
// pre-quarantine format) and defaults to empty when absent (legacy
// records still decode).
impl serde::Serialize for EpochCommit {
    fn ser(&self) -> serde::Content {
        use serde::Content;
        let mut entries = vec![
            (Content::Str("epoch".into()), self.epoch.ser()),
            (Content::Str("rows_written".into()), self.rows_written.ser()),
            (
                Content::Str("committed_at_us".into()),
                self.committed_at_us.ser(),
            ),
        ];
        if !self.quarantined.is_empty() {
            entries.push((Content::Str("quarantined".into()), self.quarantined.ser()));
        }
        if let Some(fe) = self.fencing_epoch {
            entries.push((Content::Str("fencing_epoch".into()), fe.ser()));
        }
        Content::Map(entries)
    }
}

impl serde::Deserialize for EpochCommit {
    fn deser(content: &serde::Content) -> Result<Self, serde::DeError> {
        use serde::{map_get, Content, Deserialize};
        Ok(EpochCommit {
            epoch: Deserialize::deser(map_get(content, "epoch")?)?,
            rows_written: Deserialize::deser(map_get(content, "rows_written")?)?,
            committed_at_us: Deserialize::deser(map_get(content, "committed_at_us")?)?,
            quarantined: match map_get(content, "quarantined")? {
                Content::Null => BTreeMap::new(),
                other => Deserialize::deser(other)?,
            },
            fencing_epoch: match map_get(content, "fencing_epoch")? {
                Content::Null => None,
                other => Some(Deserialize::deser(other)?),
            },
        })
    }
}

/// The write-ahead log: offset log + commit log.
pub struct WriteAheadLog {
    backend: Arc<dyn CheckpointBackend>,
    metrics: Option<WalMetrics>,
    faults: FaultRegistry,
}

impl WriteAheadLog {
    pub fn new(backend: Arc<dyn CheckpointBackend>) -> WriteAheadLog {
        WriteAheadLog {
            backend,
            metrics: None,
            faults: FaultRegistry::new(),
        }
    }

    /// Attach a fail-point registry; the [`failpoints`] in this module
    /// fire through it.
    pub fn set_faults(&mut self, faults: FaultRegistry) {
        self.faults = faults;
    }

    /// Register `ss_wal_*` metrics on `registry` and start recording
    /// append/replay counts and latencies.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(WalMetrics::new(registry));
    }

    fn offsets_key(epoch: u64) -> String {
        format!("wal/offsets/epoch-{epoch:020}.json")
    }

    fn commit_key(epoch: u64) -> String {
        format!("wal/commits/epoch-{epoch:020}.json")
    }

    fn parse_epoch(key: &str) -> Option<u64> {
        key.rsplit_once("epoch-")?
            .1
            .strip_suffix(".json")?
            .parse()
            .ok()
    }

    /// Decode one durable record: unwrap the CRC frame (files written
    /// before framing existed are read as-is) and parse the JSON payload.
    /// Every failure maps to [`SsError::Corruption`] naming the record.
    fn decode_record<T: Deserialize>(
        data: &[u8],
        what: &str,
        epoch: u64,
    ) -> Result<T> {
        let bytes = if frame::is_framed(data) {
            frame::decode(data).map_err(|e| {
                SsError::Corruption(format!("{what} record for epoch {epoch}: {e}"))
            })?
        } else {
            data
        };
        serde_json::from_slice(bytes).map_err(|e| {
            SsError::Corruption(format!("{what} record for epoch {epoch}: bad JSON: {e}"))
        })
    }

    // ---- offset log ----

    /// Durably record the offsets for an epoch, *before* executing it.
    /// Rewriting the same epoch (recovery re-running an uncommitted
    /// epoch) must supply identical content; conflicting content is an
    /// error — it would violate prefix consistency.
    pub fn write_offsets(&self, offsets: &EpochOffsets) -> Result<()> {
        if let Some(existing) = self.read_offsets_inner(offsets.epoch)? {
            if existing.sources != offsets.sources {
                return Err(SsError::Execution(format!(
                    "offset log already has different content for epoch {}",
                    offsets.epoch
                )));
            }
            return Ok(());
        }
        self.faults.fire(failpoints::OFFSETS_APPEND)?;
        let data = serde_json::to_vec_pretty(offsets)
            .map_err(|e| SsError::Serde(format!("offset encode: {e}")))?;
        let started = Instant::now();
        self.backend
            .write_atomic(&Self::offsets_key(offsets.epoch), &frame::encode(&data))?;
        if let Some(m) = &self.metrics {
            m.offsets.appends.inc();
            m.offsets.append_us.observe(started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    fn read_offsets_inner(&self, epoch: u64) -> Result<Option<EpochOffsets>> {
        match self.backend.read(&Self::offsets_key(epoch))? {
            None => Ok(None),
            Some(data) => Self::decode_record(&data, "offset", epoch).map(Some),
        }
    }

    /// Read one epoch's offsets.
    pub fn read_offsets(&self, epoch: u64) -> Result<Option<EpochOffsets>> {
        self.faults.fire(failpoints::OFFSETS_READ)?;
        let started = Instant::now();
        let out = self.read_offsets_inner(epoch)?;
        if let Some(m) = &self.metrics {
            if out.is_some() {
                m.offsets.replays.inc();
                m.offsets.replay_us.observe(started.elapsed().as_micros() as u64);
            }
        }
        Ok(out)
    }

    /// All epochs present in the offset log, ascending.
    pub fn offset_epochs(&self) -> Result<Vec<u64>> {
        let mut v: Vec<u64> = self
            .backend
            .list("wal/offsets/")?
            .iter()
            .filter_map(|k| Self::parse_epoch(k))
            .collect();
        v.sort_unstable();
        Ok(v)
    }

    // ---- commit log ----

    /// Record that an epoch's output is durably in the sink.
    pub fn write_commit(&self, commit: &EpochCommit) -> Result<()> {
        self.faults.fire(failpoints::COMMITS_APPEND)?;
        let data = serde_json::to_vec_pretty(commit)
            .map_err(|e| SsError::Serde(format!("commit encode: {e}")))?;
        let started = Instant::now();
        self.backend
            .write_atomic(&Self::commit_key(commit.epoch), &frame::encode(&data))?;
        if let Some(m) = &self.metrics {
            m.commits.appends.inc();
            m.commits.append_us.observe(started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Read one epoch's commit record.
    pub fn read_commit(&self, epoch: u64) -> Result<Option<EpochCommit>> {
        self.faults.fire(failpoints::COMMITS_READ)?;
        let started = Instant::now();
        let out: Option<EpochCommit> = match self.backend.read(&Self::commit_key(epoch))? {
            None => None,
            Some(data) => Self::decode_record(&data, "commit", epoch).map(Some)?,
        };
        if let Some(m) = &self.metrics {
            if out.is_some() {
                m.commits.replays.inc();
                m.commits.replay_us.observe(started.elapsed().as_micros() as u64);
            }
        }
        Ok(out)
    }

    /// All committed epochs, ascending.
    pub fn committed_epochs(&self) -> Result<Vec<u64>> {
        let mut v: Vec<u64> = self
            .backend
            .list("wal/commits/")?
            .iter()
            .filter_map(|k| Self::parse_epoch(k))
            .collect();
        v.sort_unstable();
        Ok(v)
    }

    /// The newest committed epoch.
    pub fn latest_commit(&self) -> Result<Option<u64>> {
        Ok(self.committed_epochs()?.last().copied())
    }

    // ---- recovery / rollback ----

    /// The recovery point: `(resume_epoch, last_committed)` where
    /// `resume_epoch` is the first epoch that must (re-)execute. Epochs
    /// in the offset log but not the commit log were in flight during
    /// the failure; §6.1 step 4 re-runs them with the same offsets.
    pub fn recovery_point(&self) -> Result<RecoveryPoint> {
        let committed = self.latest_commit()?;
        let offsets = self.offset_epochs()?;
        let uncommitted: Vec<u64> = offsets
            .into_iter()
            .filter(|e| committed.is_none_or(|c| *e > c))
            .collect();
        Ok(RecoveryPoint {
            last_committed: committed,
            uncommitted_epochs: uncommitted,
        })
    }

    /// Scan both logs for torn or corrupt records and repair what is
    /// safely repairable (§6.1 recovery, hardened):
    ///
    /// * a bad **commit** record *newer* than every valid commit is a
    ///   torn tail — the commit never became durable, so the record is
    ///   deleted and the epoch re-runs as uncommitted;
    /// * a bad **offset** record for an epoch *past* the last valid
    ///   commit is likewise uncommitted work — it is deleted **along
    ///   with every later offset record**, because epoch `e + 1`'s start
    ///   offsets encode epoch `e`'s end (prefix consistency);
    /// * a bad record *inside committed history* means output the sink
    ///   already holds can no longer be reproduced — that fails loudly
    ///   with [`SsError::Corruption`] naming the record, never silently.
    ///
    /// Call before [`recovery_point`](Self::recovery_point) on every
    /// (re)start.
    pub fn verify_and_repair(&self) -> Result<WalRepair> {
        // Pass 1: classify every commit record.
        let mut valid_commits: Vec<u64> = Vec::new();
        let mut bad_commits: Vec<(u64, String, SsError)> = Vec::new();
        for key in self.backend.list("wal/commits/")? {
            let Some(epoch) = Self::parse_epoch(&key) else {
                continue;
            };
            let data = self.backend.read(&key)?.unwrap_or_default();
            match Self::decode_record::<EpochCommit>(&data, "commit", epoch) {
                Ok(_) => valid_commits.push(epoch),
                Err(e) => bad_commits.push((epoch, key, e)),
            }
        }
        let last_valid_commit = valid_commits.iter().max().copied();
        let mut repair = WalRepair::default();
        for (epoch, key, err) in bad_commits {
            if last_valid_commit.is_some_and(|c| epoch < c) {
                // A later commit is intact, so this record was durably
                // committed once: committed history is corrupt.
                return Err(SsError::Corruption(format!(
                    "committed WAL record is corrupt ({err}); epoch {epoch} precedes \
                     valid commit {}",
                    last_valid_commit.unwrap()
                )));
            }
            // Torn tail: the commit never fully landed. Uncommitted.
            self.backend.delete(&key)?;
            repair.dropped_commits.push(epoch);
        }

        // Pass 2: classify offset records against the valid commit line.
        let mut bad_offsets: Vec<u64> = Vec::new();
        let mut offset_keys: BTreeMap<u64, String> = BTreeMap::new();
        for key in self.backend.list("wal/offsets/")? {
            let Some(epoch) = Self::parse_epoch(&key) else {
                continue;
            };
            let data = self.backend.read(&key)?.unwrap_or_default();
            if let Err(err) = Self::decode_record::<EpochOffsets>(&data, "offset", epoch) {
                if last_valid_commit.is_some_and(|c| epoch <= c) {
                    // §6.1 step 4 must be able to replay every committed
                    // epoch with its logged offsets.
                    return Err(SsError::Corruption(format!(
                        "committed WAL record is corrupt ({err}); epoch {epoch} is within \
                         committed history (last commit {})",
                        last_valid_commit.unwrap()
                    )));
                }
                bad_offsets.push(epoch);
            }
            offset_keys.insert(epoch, key);
        }
        if let Some(&first_bad) = bad_offsets.iter().min() {
            // Drop the bad record and everything after it: later epochs'
            // start offsets chain off the bad epoch's end offsets.
            for (&epoch, key) in offset_keys.range(first_bad..) {
                self.backend.delete(key)?;
                repair.dropped_offsets.push(epoch);
            }
        }
        repair.dropped_commits.sort_unstable();
        repair.dropped_offsets.sort_unstable();
        Ok(repair)
    }

    /// Truncate both logs after `epoch` (manual rollback, §7.2). The
    /// next run will redefine epochs from `epoch + 1`.
    pub fn truncate_after(&self, epoch: u64) -> Result<()> {
        for key in self.backend.list("wal/")? {
            if let Some(e) = Self::parse_epoch(&key) {
                if e > epoch {
                    self.backend.delete(&key)?;
                }
            }
        }
        Ok(())
    }

    /// Drop records for epochs **strictly before** `horizon` from both
    /// logs (checkpoint GC). The caller must ensure a full state
    /// snapshot at or before `horizon` is retained, so every surviving
    /// epoch can still be replayed; recovery and
    /// [`verify_and_repair`](Self::verify_and_repair) operate on
    /// whatever records exist and tolerate a compacted prefix. Returns
    /// the number of records deleted.
    pub fn compact_before(&self, horizon: u64) -> Result<usize> {
        let mut deleted = 0usize;
        for key in self.backend.list("wal/")? {
            if let Some(e) = Self::parse_epoch(&key) {
                if e < horizon {
                    self.backend.delete(&key)?;
                    deleted += 1;
                }
            }
        }
        Ok(deleted)
    }
}

/// What [`WriteAheadLog::verify_and_repair`] deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRepair {
    /// Epochs whose offset record was torn/corrupt (or chained after
    /// one) and removed; they will be redefined from live source data.
    pub dropped_offsets: Vec<u64>,
    /// Epochs whose commit record was a torn tail and removed; they
    /// re-execute as uncommitted epochs.
    pub dropped_commits: Vec<u64>,
}

impl WalRepair {
    /// True if nothing had to be repaired.
    pub fn is_clean(&self) -> bool {
        self.dropped_offsets.is_empty() && self.dropped_commits.is_empty()
    }
}

/// Where a restarted query resumes (§6.1 step 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Newest epoch whose output is durably committed.
    pub last_committed: Option<u64>,
    /// Epochs logged in the offset log but never committed; they must
    /// re-execute with the logged offsets (output rewritten relying on
    /// sink idempotence).
    pub uncommitted_epochs: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_state::MemoryBackend;

    fn wal() -> WriteAheadLog {
        WriteAheadLog::new(Arc::new(MemoryBackend::new()))
    }

    fn offsets(epoch: u64, end: u64) -> EpochOffsets {
        let mut sources = BTreeMap::new();
        sources.insert(
            "kafka".to_string(),
            OffsetRange {
                start: BTreeMap::from([(0, 0), (1, 0)]),
                end: BTreeMap::from([(0, end), (1, end * 2)]),
            },
        );
        EpochOffsets {
            epoch,
            sources,
            watermark_us: 0,
            defined_at_us: 0,
        }
    }

    #[test]
    fn offsets_round_trip() {
        let w = wal();
        let o = offsets(1, 100);
        w.write_offsets(&o).unwrap();
        assert_eq!(w.read_offsets(1).unwrap(), Some(o));
        assert_eq!(w.read_offsets(2).unwrap(), None);
        assert_eq!(w.offset_epochs().unwrap(), vec![1]);
    }

    #[test]
    fn rewriting_same_epoch_same_content_is_idempotent() {
        let w = wal();
        w.write_offsets(&offsets(1, 100)).unwrap();
        w.write_offsets(&offsets(1, 100)).unwrap();
        // Conflicting content (different prefix!) must be refused.
        let err = w.write_offsets(&offsets(1, 999)).unwrap_err();
        assert!(err.to_string().contains("different content"));
    }

    #[test]
    fn commit_log_tracks_progress() {
        let w = wal();
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_offsets(&offsets(2, 20)).unwrap();
        assert!(w.read_commit(1).unwrap().is_none());
        w.write_commit(&EpochCommit {
            epoch: 1,
            rows_written: 10,
            committed_at_us: 1,
            quarantined: BTreeMap::new(),
            fencing_epoch: None,
        })
        .unwrap();
        assert!(w.read_commit(1).unwrap().is_some());
        assert_eq!(w.latest_commit().unwrap(), Some(1));
        assert_eq!(w.read_commit(1).unwrap().unwrap().rows_written, 10);
    }

    #[test]
    fn recovery_point_identifies_in_flight_epochs() {
        let w = wal();
        // Nothing yet.
        assert_eq!(
            w.recovery_point().unwrap(),
            RecoveryPoint {
                last_committed: None,
                uncommitted_epochs: vec![]
            }
        );
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_commit(&EpochCommit {
            epoch: 1,
            rows_written: 10,
            committed_at_us: 0,
            quarantined: BTreeMap::new(),
            fencing_epoch: None,
        })
        .unwrap();
        w.write_offsets(&offsets(2, 20)).unwrap();
        // Crash before committing epoch 2.
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, vec![2]);
    }

    #[test]
    fn truncate_after_rolls_back_both_logs() {
        let w = wal();
        for e in 1..=4 {
            w.write_offsets(&offsets(e, e * 10)).unwrap();
            w.write_commit(&EpochCommit {
                epoch: e,
                rows_written: 1,
                committed_at_us: 0,
                quarantined: BTreeMap::new(),
                fencing_epoch: None,
            })
            .unwrap();
        }
        w.truncate_after(2).unwrap();
        assert_eq!(w.offset_epochs().unwrap(), vec![1, 2]);
        assert_eq!(w.latest_commit().unwrap(), Some(2));
        // New epochs can be written after the rollback point.
        w.write_offsets(&offsets(3, 999)).unwrap();
        assert_eq!(w.read_offsets(3).unwrap().unwrap().sources["kafka"].end[&0], 999);
    }

    #[test]
    fn offset_range_counts_records() {
        let r = OffsetRange {
            start: BTreeMap::from([(0, 5), (1, 0)]),
            end: BTreeMap::from([(0, 15), (1, 7)]),
        };
        assert_eq!(r.num_records(), 17);
        assert!(!r.is_empty());
        assert!(OffsetRange::default().is_empty());
    }

    #[test]
    fn metrics_count_appends_and_replays_per_log() {
        use ss_common::{MetricValue, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let mut w = wal();
        w.attach_metrics(&registry);
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_offsets(&offsets(1, 10)).unwrap(); // idempotent rewrite: no append
        w.write_commit(&EpochCommit {
            epoch: 1,
            rows_written: 10,
            committed_at_us: 0,
            quarantined: BTreeMap::new(),
            fencing_epoch: None,
        })
        .unwrap();
        w.read_offsets(1).unwrap();
        w.read_offsets(99).unwrap(); // miss: not a replay
        w.read_commit(1).unwrap();

        let c = |log: &str, name: &str| registry.value(name, &[("log", log)]);
        assert_eq!(c("offsets", "ss_wal_appends_total"), Some(MetricValue::Counter(1)));
        assert_eq!(c("commits", "ss_wal_appends_total"), Some(MetricValue::Counter(1)));
        assert_eq!(c("offsets", "ss_wal_replays_total"), Some(MetricValue::Counter(1)));
        assert_eq!(c("commits", "ss_wal_replays_total"), Some(MetricValue::Counter(1)));
        match c("offsets", "ss_wal_append_us") {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(count, 1),
            other => panic!("missing append histogram: {other:?}"),
        }
    }

    #[test]
    fn log_is_human_readable_json() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        w.write_offsets(&offsets(3, 42)).unwrap();
        let keys = backend.list("wal/offsets/").unwrap();
        let text = String::from_utf8(backend.read(&keys[0]).unwrap().unwrap()).unwrap();
        assert!(text.contains("\"epoch\": 3"));
        assert!(text.contains("kafka"));
    }

    #[test]
    fn records_are_crc_framed_and_legacy_files_still_read() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        w.write_offsets(&offsets(1, 10)).unwrap();
        let raw = backend
            .read(&WriteAheadLog::offsets_key(1))
            .unwrap()
            .unwrap();
        assert!(ss_common::frame::is_framed(&raw));
        // A pre-framing (raw JSON) file written by an older build parses too.
        let legacy = serde_json::to_vec_pretty(&offsets(2, 20)).unwrap();
        backend
            .write_atomic(&WriteAheadLog::offsets_key(2), &legacy)
            .unwrap();
        assert_eq!(w.read_offsets(2).unwrap(), Some(offsets(2, 20)));
    }

    fn commit(epoch: u64) -> EpochCommit {
        EpochCommit {
            epoch,
            rows_written: 1,
            committed_at_us: 0,
            quarantined: BTreeMap::new(),
            fencing_epoch: None,
        }
    }

    #[test]
    fn commit_quarantined_offsets_round_trip_and_default_empty() {
        let w = wal();
        w.write_offsets(&offsets(1, 10)).unwrap();
        let mut c = commit(1);
        c.quarantined
            .insert("kafka".into(), vec![(0, 3), (1, 7)]);
        w.write_commit(&c).unwrap();
        let back = w.read_commit(1).unwrap().unwrap();
        assert_eq!(back.quarantined["kafka"], vec![(0, 3), (1, 7)]);
        // Pre-quarantine commit records (no field at all) still decode.
        let legacy: EpochCommit = serde_json::from_str(
            "{\"epoch\":9,\"rows_written\":4,\"committed_at_us\":0}",
        )
        .unwrap();
        assert!(legacy.quarantined.is_empty());
        // And an empty map is not serialized, keeping the on-disk format
        // byte-identical for queries that never quarantine.
        let plain = serde_json::to_string(&commit(2)).unwrap();
        assert!(!plain.contains("quarantined"), "{plain}");
    }

    #[test]
    fn fail_points_fire_on_append_and_read() {
        use ss_common::fault::{FaultMode, FaultTrigger};

        let mut w = wal();
        let faults = ss_common::FaultRegistry::new();
        w.set_faults(faults.clone());
        faults.configure(
            failpoints::COMMITS_APPEND,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        w.write_offsets(&offsets(1, 10)).unwrap();
        let err = w.write_commit(&commit(1)).unwrap_err();
        assert!(err.to_string().contains("injected failure"), "{err}");
        // Nothing was committed; retry after the one-shot fault succeeds.
        assert!(w.read_commit(1).unwrap().is_none());
        w.write_commit(&commit(1)).unwrap();
        assert!(w.read_commit(1).unwrap().is_some());

        faults.configure(
            failpoints::OFFSETS_READ,
            FaultTrigger::Once { skip: 0 },
            FaultMode::TransientError,
        );
        assert!(w.read_offsets(1).unwrap_err().is_transient());
        assert!(w.read_offsets(1).unwrap().is_some());
    }

    #[test]
    fn verify_and_repair_is_a_noop_on_a_clean_log() {
        let w = wal();
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_commit(&commit(1)).unwrap();
        let repair = w.verify_and_repair().unwrap();
        assert!(repair.is_clean());
        assert_eq!(w.recovery_point().unwrap().last_committed, Some(1));
    }

    #[test]
    fn torn_commit_tail_is_dropped_and_epoch_reruns_as_uncommitted() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_commit(&commit(1)).unwrap();
        w.write_offsets(&offsets(2, 20)).unwrap();
        w.write_commit(&commit(2)).unwrap();
        // Tear the newest commit record (crash mid-append).
        let key = WriteAheadLog::commit_key(2);
        let mut raw = backend.read(&key).unwrap().unwrap();
        raw.truncate(raw.len() / 2);
        backend.write_atomic(&key, &raw).unwrap();

        let repair = w.verify_and_repair().unwrap();
        assert_eq!(repair.dropped_commits, vec![2]);
        assert_eq!(repair.dropped_offsets, Vec::<u64>::new());
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, vec![2]);
    }

    #[test]
    fn torn_offset_tail_drops_the_epoch_and_all_later_offsets() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_commit(&commit(1)).unwrap();
        w.write_offsets(&offsets(2, 20)).unwrap();
        w.write_offsets(&offsets(3, 30)).unwrap();
        // Corrupt epoch 2's offsets: epoch 3's start offsets chain off
        // epoch 2's end, so 3 must go as well.
        backend
            .write_atomic(&WriteAheadLog::offsets_key(2), b"ss-frame-v1 garbage")
            .unwrap();
        let repair = w.verify_and_repair().unwrap();
        assert_eq!(repair.dropped_offsets, vec![2, 3]);
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, Vec::<u64>::new());
    }

    #[test]
    fn corrupt_committed_record_fails_loudly() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        for e in 1..=3 {
            w.write_offsets(&offsets(e, e * 10)).unwrap();
            w.write_commit(&commit(e)).unwrap();
        }
        // Flip a byte inside committed history (offset record of epoch 2).
        let key = WriteAheadLog::offsets_key(2);
        let mut raw = backend.read(&key).unwrap().unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        backend.write_atomic(&key, &raw).unwrap();

        let err = w.verify_and_repair().unwrap_err();
        assert_eq!(err.category(), "corruption");
        assert!(
            err.to_string().contains("committed WAL record is corrupt"),
            "{err}"
        );
        assert!(err.to_string().contains("epoch 2"), "{err}");
    }

    #[test]
    fn corrupt_commit_inside_committed_history_fails_loudly() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        for e in 1..=3 {
            w.write_offsets(&offsets(e, e * 10)).unwrap();
            w.write_commit(&commit(e)).unwrap();
        }
        backend
            .write_atomic(&WriteAheadLog::commit_key(1), b"garbage")
            .unwrap();
        let err = w.verify_and_repair().unwrap_err();
        assert_eq!(err.category(), "corruption");
    }

    // Satellite: truncate_after + recovery_point under injected append
    // failures — epoch lands in the offset log but the commit append
    // dies mid-frame.
    #[test]
    fn injected_commit_append_failure_then_truncate_after_recovers_cleanly() {
        use ss_common::fault::{FaultMode, FaultTrigger};

        let backend = Arc::new(MemoryBackend::new());
        let mut w = WriteAheadLog::new(backend.clone());
        let faults = ss_common::FaultRegistry::new();
        w.set_faults(faults.clone());

        w.write_offsets(&offsets(1, 10)).unwrap();
        w.write_commit(&commit(1)).unwrap();
        // Epoch 2: offsets land, commit append fails (before any bytes).
        w.write_offsets(&offsets(2, 20)).unwrap();
        faults.configure(
            failpoints::COMMITS_APPEND,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        assert!(w.write_commit(&commit(2)).is_err());
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, vec![2]);

        // Operator rolls back to epoch 1: the dangling offset record is
        // discarded and the logs agree again.
        w.truncate_after(1).unwrap();
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, Vec::<u64>::new());
        assert_eq!(w.offset_epochs().unwrap(), vec![1]);
    }

    #[test]
    fn compact_before_drops_only_the_prefix() {
        let w = wal();
        for e in 1..=5 {
            w.write_offsets(&offsets(e, e * 10)).unwrap();
            w.write_commit(&commit(e)).unwrap();
        }
        // GC up to epoch 3: epochs 1 and 2 go (both logs), 3.. stay.
        assert_eq!(w.compact_before(3).unwrap(), 4);
        assert_eq!(w.offset_epochs().unwrap(), vec![3, 4, 5]);
        assert_eq!(w.committed_epochs().unwrap(), vec![3, 4, 5]);
        // Recovery still works on the compacted log.
        assert!(w.verify_and_repair().unwrap().is_clean());
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(5));
        assert_eq!(rp.uncommitted_epochs, Vec::<u64>::new());
        // Compacting again is a no-op.
        assert_eq!(w.compact_before(3).unwrap(), 0);
    }

    #[test]
    fn mid_frame_commit_tear_then_repair_then_truncate_after() {
        let backend = Arc::new(MemoryBackend::new());
        let w = WriteAheadLog::new(backend.clone());
        for e in 1..=2 {
            w.write_offsets(&offsets(e, e * 10)).unwrap();
        }
        w.write_commit(&commit(1)).unwrap();
        // Simulate the commit append for epoch 2 dying mid-frame: only
        // the first half of the framed record reaches the backend.
        let framed = ss_common::frame::encode(&serde_json::to_vec_pretty(&commit(2)).unwrap());
        backend
            .write_atomic(&WriteAheadLog::commit_key(2), &framed[..framed.len() / 2])
            .unwrap();
        // Before repair, recovery_point would count epoch 2 as committed
        // (the key exists); verify_and_repair removes the torn record.
        let repair = w.verify_and_repair().unwrap();
        assert_eq!(repair.dropped_commits, vec![2]);
        let rp = w.recovery_point().unwrap();
        assert_eq!(rp.last_committed, Some(1));
        assert_eq!(rp.uncommitted_epochs, vec![2]);
        // truncate_after(0) rolls everything back; both logs empty.
        w.truncate_after(0).unwrap();
        assert_eq!(w.recovery_point().unwrap().last_committed, None);
        assert_eq!(w.offset_epochs().unwrap(), Vec::<u64>::new());
    }
}
