//! Dead-letter queue: the destination for quarantined poison records.
//!
//! When a query runs under `ErrorPolicy::Quarantine`, records that
//! deterministically fail evaluation are diverted here instead of
//! failing the epoch. The queue follows the same idempotence discipline
//! as every [`crate::sink::Sink`]: records are committed *per epoch*,
//! keyed by epoch number, so a recovery re-run of an epoch replaces its
//! dead letters rather than duplicating them — exactly-once DLQ
//! contents across any crash/restart schedule.
//!
//! Each record carries enough metadata to debug or backfill it later:
//! the source and `(partition, offset)` it came from, the epoch that
//! quarantined it, the failure fingerprint, the rendered error, and the
//! row itself as JSON.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Content, Serialize};
use ss_common::to_json;

/// Named fail points on the dead-letter path.
pub mod failpoints {
    /// Fires before the DLQ accepts an epoch's quarantined records.
    pub const DLQ_WRITE: &str = "bus.dlq.write";
}

/// One quarantined record with its failure metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetterRecord {
    /// Epoch that quarantined the record.
    pub epoch: u64,
    /// Source the record was read from.
    pub source: String,
    /// Source partition.
    pub partition: u32,
    /// Offset within the partition.
    pub offset: u64,
    /// Failure fingerprint (see `ss_common::isolate`).
    pub fingerprint: u64,
    /// The rendered evaluation error (or panic message).
    pub error: String,
    /// The offending row, rendered as JSON.
    pub row_json: String,
}

// Hand-written: the fingerprint is written as 16 hex digits and the
// row, held as JSON text, is embedded as an object.
impl Serialize for DeadLetterRecord {
    fn ser(&self) -> Content {
        let k = |s: &str| Content::Str(s.into());
        let row = serde_json::from_str(&self.row_json).unwrap_or_else(|_| self.row_json.ser());
        Content::Map(vec![
            (k("epoch"), self.epoch.ser()),
            (k("source"), self.source.ser()),
            (k("partition"), self.partition.ser()),
            (k("offset"), self.offset.ser()),
            (k("fingerprint"), format!("{:016x}", self.fingerprint).ser()),
            (k("error"), self.error.ser()),
            (k("row"), row),
        ])
    }
}

/// An in-memory, epoch-committed dead-letter queue.
#[derive(Debug, Default)]
pub struct DeadLetterQueue {
    /// Quarantined records keyed by epoch (insert-replace => idempotent).
    state: Mutex<BTreeMap<u64, Vec<DeadLetterRecord>>>,
}

impl DeadLetterQueue {
    /// An empty queue behind an `Arc` (shared between the engine and
    /// whoever monitors it).
    pub fn new() -> Arc<DeadLetterQueue> {
        Arc::new(DeadLetterQueue::default())
    }

    /// Commit one epoch's quarantined records. Idempotent: a recovery
    /// re-run of the epoch replaces its records. Committing an empty
    /// set removes any stale entry for the epoch.
    pub fn commit_epoch(&self, epoch: u64, records: Vec<DeadLetterRecord>) {
        let mut state = self.state.lock();
        if records.is_empty() {
            state.remove(&epoch);
        } else {
            state.insert(epoch, records);
        }
    }

    /// Drop records quarantined after `epoch` (rollback support).
    pub fn truncate_after(&self, epoch: u64) {
        self.state.lock().retain(|&e, _| e <= epoch);
    }

    /// All quarantined records in epoch order.
    pub fn snapshot(&self) -> Vec<DeadLetterRecord> {
        self.state.lock().values().flatten().cloned().collect()
    }

    /// Total quarantined records currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().values().map(Vec::len).sum()
    }

    /// True when nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.state.lock().is_empty()
    }

    /// The whole queue as JSON Lines, one record per line.
    pub fn to_jsonl(&self) -> String {
        self.snapshot().iter().map(|r| to_json(r) + "\n").collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, offset: u64) -> DeadLetterRecord {
        DeadLetterRecord {
            epoch,
            source: "events".into(),
            partition: 0,
            offset,
            fingerprint: 0xdead_beef,
            error: "type error: bad int `x`".into(),
            row_json: "{\"v\":\"x\"}".into(),
        }
    }

    #[test]
    fn commit_is_idempotent_per_epoch() {
        let dlq = DeadLetterQueue::new();
        dlq.commit_epoch(1, vec![record(1, 3)]);
        // Recovery re-runs the epoch with the same records: no dupes.
        dlq.commit_epoch(1, vec![record(1, 3)]);
        dlq.commit_epoch(2, vec![record(2, 7), record(2, 9)]);
        assert_eq!(dlq.len(), 3);
        let offs: Vec<u64> = dlq.snapshot().iter().map(|r| r.offset).collect();
        assert_eq!(offs, vec![3, 7, 9]);
    }

    #[test]
    fn truncate_rolls_back_later_epochs() {
        let dlq = DeadLetterQueue::new();
        dlq.commit_epoch(1, vec![record(1, 1)]);
        dlq.commit_epoch(2, vec![record(2, 2)]);
        dlq.truncate_after(1);
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq.snapshot()[0].epoch, 1);
        // An empty re-commit clears a stale entry.
        dlq.commit_epoch(1, vec![]);
        assert!(dlq.is_empty());
    }

    #[test]
    fn jsonl_renders_metadata_and_escapes() {
        let dlq = DeadLetterQueue::new();
        let mut r = record(4, 11);
        r.error = "panic: \"boom\"".into();
        dlq.commit_epoch(4, vec![r]);
        let jsonl = dlq.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"epoch\":4"), "{jsonl}");
        assert!(jsonl.contains("\"offset\":11"), "{jsonl}");
        assert!(jsonl.contains("00000000deadbeef"), "{jsonl}");
        assert!(jsonl.contains("panic: \\\"boom\\\""), "{jsonl}");
        assert!(jsonl.contains("\"row\":{\"v\":\"x\"}"), "{jsonl}");
    }
}
