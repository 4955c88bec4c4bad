//! Checkpoint replication: mirror every durable write to a secondary
//! backend so a warm standby can take over without a cold restore.
//!
//! [`ReplicatedBackend`] wraps two [`CheckpointBackend`]s — a *primary*
//! (the source of truth; all reads come from it) and a *replica* — and
//! mirrors every `write_atomic` and `delete` to the replica inline: the
//! call returns only after both copies are durable, and a replica
//! failure fails the call (the caller's retry policy re-runs it;
//! `write_atomic` is an idempotent overwrite).
//!
//! Replication is crash-tolerant, not crash-proof: a fault between the
//! primary write and the mirror (the [`failpoints::REPLICA_WRITE`] fail
//! point injects exactly this) leaves the replica *diverged*. The
//! [`ReplicatedBackend::scrub`] catch-up scrubber repairs divergence
//! using the CRC frames every durable record already carries: for each
//! differing object the frame decides which side is intact — a valid
//! primary overwrites the replica, a corrupt primary is restored from a
//! valid replica, and replica-only leftovers are deleted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ss_common::fault::FaultRegistry;
use ss_common::metrics::{Counter, Histogram, MetricsRegistry};
use ss_common::{frame, Result};

use crate::backend::CheckpointBackend;

/// Fail-point names fired by the replication layer.
pub mod failpoints {
    /// Before each mirrored write/delete hits the replica. An `Error`
    /// here leaves the replica diverged (the primary write already
    /// succeeded) — exactly the gap [`super::ReplicatedBackend::scrub`]
    /// exists to close.
    pub const REPLICA_WRITE: &str = "ha.replica.write";
}

/// Registry handles installed by `attach_metrics`.
struct ReplMetrics {
    writes: Counter,
    errors: Counter,
    lag_us: Histogram,
}

/// A [`CheckpointBackend`] that mirrors writes to a secondary backend.
pub struct ReplicatedBackend {
    primary: Arc<dyn CheckpointBackend>,
    replica: Arc<dyn CheckpointBackend>,
    faults: FaultRegistry,
    mirrored_ops: AtomicU64,
    replica_errors: AtomicU64,
    last_lag_us: AtomicU64,
    metrics: Mutex<Option<ReplMetrics>>,
}

/// What [`ReplicatedBackend::scrub`] did to converge the replica.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects copied primary → replica (missing, stale, or corrupt on
    /// the replica side).
    pub copied_to_replica: u64,
    /// Objects restored replica → primary (primary copy failed its CRC
    /// frame while the replica's was intact).
    pub repaired_primary: u64,
    /// Replica-only objects deleted (the primary dropped them, e.g.
    /// retention GC, and the mirror delete was lost).
    pub deleted_from_replica: u64,
}

impl ScrubReport {
    /// True when the scrub found the replica already converged.
    pub fn is_clean(&self) -> bool {
        *self == ScrubReport::default()
    }
}

impl ReplicatedBackend {
    /// Mirror `primary` onto `replica`.
    pub fn new(
        primary: Arc<dyn CheckpointBackend>,
        replica: Arc<dyn CheckpointBackend>,
    ) -> ReplicatedBackend {
        ReplicatedBackend {
            primary,
            replica,
            faults: FaultRegistry::new(),
            mirrored_ops: AtomicU64::new(0),
            replica_errors: AtomicU64::new(0),
            last_lag_us: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    /// Attach a fail-point registry; [`failpoints::REPLICA_WRITE`] fires
    /// through it before every mirrored operation.
    pub fn set_faults(&mut self, faults: FaultRegistry) {
        self.faults = faults;
    }

    /// Register `ss_replication_*` metrics on `registry`.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        registry.describe(
            "ss_replication_lag_us",
            "Time the replica took to apply a mirrored write",
        );
        registry.describe(
            "ss_replication_writes_total",
            "Operations mirrored to the replica backend",
        );
        registry.describe(
            "ss_replication_errors_total",
            "Mirror operations that failed (replica diverged until scrubbed)",
        );
        *self.metrics.lock().expect("metrics poisoned") = Some(ReplMetrics {
            writes: registry.counter("ss_replication_writes_total", &[]),
            errors: registry.counter("ss_replication_errors_total", &[]),
            lag_us: registry.histogram("ss_replication_lag_us", &[]),
        });
    }

    /// Mirrored operations applied to the replica so far.
    pub fn mirrored_ops(&self) -> u64 {
        self.mirrored_ops.load(Ordering::Relaxed)
    }

    /// Mirror operations that failed (replica diverged until scrubbed).
    pub fn replica_errors(&self) -> u64 {
        self.replica_errors.load(Ordering::Relaxed)
    }

    /// How long the most recent mirrored write took on the replica, µs.
    pub fn last_lag_us(&self) -> u64 {
        self.last_lag_us.load(Ordering::Relaxed)
    }

    /// Apply one operation to the replica, after the fail point. A
    /// failure counts as divergence and is the caller's own error.
    fn mirror(&self, op: impl FnOnce(&dyn CheckpointBackend) -> Result<()>) -> Result<()> {
        let result = self.faults.fire(failpoints::REPLICA_WRITE).and_then(|()| {
            op(self.replica.as_ref()).map_err(|_| {
                ss_common::exec_err!("replica write failed (replica diverged; scrub to repair)")
            })
        });
        match &result {
            Ok(()) => {
                self.mirrored_ops.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.lock().expect("metrics poisoned").as_ref() {
                    m.writes.inc();
                }
            }
            Err(_) => {
                self.replica_errors.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.lock().expect("metrics poisoned").as_ref() {
                    m.errors.inc();
                }
            }
        }
        result
    }

    /// Converge the replica with the primary (and repair a CRC-corrupt
    /// primary object from an intact replica copy).
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let primary_keys = self.primary.list("")?;
        let replica_keys = self.replica.list("")?;
        for key in &primary_keys {
            let p = self.primary.read(key)?;
            let r = self.replica.read(key)?;
            match (p, r) {
                (Some(p_bytes), Some(r_bytes)) if p_bytes == r_bytes => {}
                (Some(p_bytes), r_bytes) => {
                    // The sides differ. CRC frames arbitrate: an intact
                    // primary wins; a corrupt primary with an intact
                    // replica is restored from the replica. Unframed
                    // objects carry no checksum, so the primary (source
                    // of truth) wins by default.
                    let p_ok = !frame::is_framed(&p_bytes) || frame::decode(&p_bytes).is_ok();
                    let r_ok = r_bytes.as_ref().is_some_and(|b| {
                        frame::is_framed(b) && frame::decode(b).is_ok()
                    });
                    if p_ok {
                        self.replica.write_atomic(key, &p_bytes)?;
                        report.copied_to_replica += 1;
                    } else if r_ok {
                        let r_bytes = r_bytes.expect("r_ok implies Some");
                        self.primary.write_atomic(key, &r_bytes)?;
                        self.replica.write_atomic(key, &r_bytes)?;
                        report.repaired_primary += 1;
                    } else {
                        // Both sides bad: copy the primary anyway so the
                        // sides at least agree; recovery's
                        // verify_and_repair decides what to do with it.
                        self.replica.write_atomic(key, &p_bytes)?;
                        report.copied_to_replica += 1;
                    }
                }
                (None, _) => {
                    // Listed but unreadable (raced a delete): skip.
                }
            }
        }
        let primary_set: std::collections::BTreeSet<&String> = primary_keys.iter().collect();
        for key in &replica_keys {
            if !primary_set.contains(key) {
                self.replica.delete(key)?;
                report.deleted_from_replica += 1;
            }
        }
        Ok(report)
    }
}

impl CheckpointBackend for ReplicatedBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
        self.primary.write_atomic(key, data)?;
        let started = Instant::now();
        self.mirror(|r| r.write_atomic(key, data))?;
        let lag = started.elapsed().as_micros() as u64;
        self.last_lag_us.store(lag, Ordering::Relaxed);
        if let Some(m) = self.metrics.lock().expect("metrics poisoned").as_ref() {
            m.lag_us.observe(lag);
        }
        Ok(())
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.primary.read(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.primary.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.primary.delete(key)?;
        self.mirror(|r| r.delete(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use ss_common::fault::{FaultMode, FaultTrigger};

    fn pair() -> (Arc<MemoryBackend>, Arc<MemoryBackend>, ReplicatedBackend) {
        let primary = Arc::new(MemoryBackend::new());
        let replica = Arc::new(MemoryBackend::new());
        let repl = ReplicatedBackend::new(primary.clone(), replica.clone());
        (primary, replica, repl)
    }

    #[test]
    fn sync_mirrors_writes_and_deletes() {
        let (primary, replica, repl) = pair();
        repl.write_atomic("wal/a.json", b"one").unwrap();
        repl.write_atomic("state/b.json", b"two").unwrap();
        assert_eq!(primary.read("wal/a.json").unwrap().unwrap(), b"one");
        assert_eq!(replica.read("wal/a.json").unwrap().unwrap(), b"one");
        repl.delete("wal/a.json").unwrap();
        assert_eq!(primary.read("wal/a.json").unwrap(), None);
        assert_eq!(replica.read("wal/a.json").unwrap(), None);
        assert_eq!(repl.mirrored_ops(), 3);
        assert_eq!(repl.replica_errors(), 0);
    }

    #[test]
    fn sync_replica_fault_counts_and_propagates() {
        let (primary, replica, mut repl) = pair();
        let faults = FaultRegistry::new();
        faults.configure(
            failpoints::REPLICA_WRITE,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        repl.set_faults(faults);
        let err = repl.write_atomic("wal/a.json", b"one").unwrap_err();
        assert!(err.to_string().contains(failpoints::REPLICA_WRITE), "{err}");
        // Primary took the write, replica did not: diverged.
        assert_eq!(primary.read("wal/a.json").unwrap().unwrap(), b"one");
        assert_eq!(replica.read("wal/a.json").unwrap(), None);
        assert_eq!(repl.replica_errors(), 1);
        // Scrub converges the replica.
        let report = repl.scrub().unwrap();
        assert_eq!(report.copied_to_replica, 1);
        assert_eq!(replica.read("wal/a.json").unwrap().unwrap(), b"one");
        assert!(repl.scrub().unwrap().is_clean());
    }

    #[test]
    fn scrub_repairs_missing_stale_and_extra_objects() {
        let (_primary, replica, repl) = pair();
        repl.write_atomic("wal/a.json", &frame::encode(b"aa")).unwrap();
        repl.write_atomic("wal/b.json", &frame::encode(b"bb")).unwrap();
        // Diverge the replica behind the mirror's back: drop one object,
        // corrupt another, add an orphan.
        replica.delete("wal/a.json").unwrap();
        replica
            .write_atomic("wal/b.json", b"garbage-not-a-frame")
            .unwrap();
        replica
            .write_atomic("wal/orphan.json", &frame::encode(b"zz"))
            .unwrap();
        let report = repl.scrub().unwrap();
        assert_eq!(report.copied_to_replica, 2);
        assert_eq!(report.deleted_from_replica, 1);
        assert_eq!(report.repaired_primary, 0);
        assert_eq!(
            replica.read("wal/a.json").unwrap().unwrap(),
            frame::encode(b"aa")
        );
        assert_eq!(
            replica.read("wal/b.json").unwrap().unwrap(),
            frame::encode(b"bb")
        );
        assert_eq!(replica.read("wal/orphan.json").unwrap(), None);
        assert!(repl.scrub().unwrap().is_clean());
    }

    #[test]
    fn scrub_restores_corrupt_primary_from_intact_replica() {
        let (primary, _replica, repl) = pair();
        let good = frame::encode(b"precious");
        repl.write_atomic("state/chk.json", &good).unwrap();
        // Corrupt the primary copy only: flip a payload byte so the CRC
        // frame no longer verifies.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        primary.write_atomic("state/chk.json", &bad).unwrap();
        let report = repl.scrub().unwrap();
        assert_eq!(report.repaired_primary, 1);
        assert_eq!(primary.read("state/chk.json").unwrap().unwrap(), good);
        assert!(repl.scrub().unwrap().is_clean());
    }

    /// A replica that refuses the `(operation, key)` pairs it is told
    /// to, once each.
    struct RefusingReplica {
        inner: MemoryBackend,
        refuse: Mutex<Vec<(&'static str, &'static str)>>,
    }

    impl RefusingReplica {
        fn refused(&self, op: &str, key: &str) -> bool {
            let mut refuse = self.refuse.lock().unwrap();
            let hit = refuse.iter().position(|&(o, k)| o == op && k == key);
            hit.map(|i| refuse.remove(i)).is_some()
        }
    }

    impl CheckpointBackend for RefusingReplica {
        fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
            if self.refused("write", key) {
                return Err(ss_common::exec_err!("replica disk full"));
            }
            self.inner.write_atomic(key, data)
        }
        fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
            self.inner.read(key)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn delete(&self, key: &str) -> Result<()> {
            if self.refused("delete", key) {
                return Err(ss_common::exec_err!("replica disk full"));
            }
            self.inner.delete(key)
        }
    }

    #[test]
    fn a_replica_failure_fails_its_own_call() {
        let primary = Arc::new(MemoryBackend::new());
        let replica = Arc::new(RefusingReplica {
            inner: MemoryBackend::new(),
            refuse: Mutex::new(vec![("write", "wal/b.json"), ("delete", "wal/a.json")]),
        });
        let repl = ReplicatedBackend::new(primary.clone(), replica.clone());
        let registry = MetricsRegistry::new();
        repl.attach_metrics(&registry);
        let errors = registry.counter("ss_replication_errors_total", &[]);

        // The write of `a` mirrors; the write of `b` does not.
        repl.write_atomic("wal/a.json", b"one").unwrap();
        let err = repl.write_atomic("wal/b.json", b"two").unwrap_err();
        assert!(err.to_string().contains("replica diverged"), "{err}");
        assert_eq!((repl.replica_errors(), errors.get()), (1, 1));
        assert_eq!(primary.read("wal/b.json").unwrap().unwrap(), b"two");
        assert_eq!(replica.read("wal/b.json").unwrap(), None);

        // The delete of `a` reaches the primary but not the replica.
        let err = repl.delete("wal/a.json").unwrap_err();
        assert!(err.to_string().contains("replica diverged"), "{err}");
        assert_eq!((repl.replica_errors(), errors.get()), (2, 2));
        assert_eq!(primary.read("wal/a.json").unwrap(), None);
        assert_eq!(replica.read("wal/a.json").unwrap().unwrap(), b"one");

        let report = repl.scrub().unwrap();
        assert_eq!(report.copied_to_replica, 1);
        assert_eq!(report.deleted_from_replica, 1);
        assert_eq!(replica.read("wal/b.json").unwrap().unwrap(), b"two");
        assert_eq!(replica.read("wal/a.json").unwrap(), None);
        assert!(repl.scrub().unwrap().is_clean());
    }

    #[test]
    fn metrics_report_mirrored_writes() {
        let registry = MetricsRegistry::new();
        let (_primary, _replica, repl) = pair();
        repl.attach_metrics(&registry);
        repl.write_atomic("a.json", b"x").unwrap();
        repl.write_atomic("b.json", b"y").unwrap();
        let rendered = registry.render();
        assert!(rendered.contains("ss_replication_writes_total 2"), "{rendered}");
        assert!(rendered.contains("ss_replication_lag_us"), "{rendered}");
    }
}
