//! Lease-based leadership with fencing epochs.
//!
//! A single checkpoint directory must have exactly one writer. The
//! lease is one CRC-framed JSON object at [`LEASE_KEY`] on the shared
//! [`CheckpointBackend`]: whoever last wrote it (and keeps renewing it
//! within its TTL) is the leader, and every acquisition increments a
//! **fencing epoch** — a monotonically increasing token that outlives
//! any individual process.
//!
//! The dangerous failure is not a crashed leader but a *paused* one: a
//! leader that stalls (GC, VM migration, injected hang) long enough for
//! a standby to take over, then wakes up believing it still leads — a
//! "zombie writer". Two mechanisms stop it:
//!
//! * every durable write funnels through [`LeaseManager::check_fenced`],
//!   which renews the lease at most once past its half-life and returns
//!   [`SsError::Fenced`] the moment a renewal discovers a usurper
//!   (higher fencing epoch or different holder). [`FencedBackend`]
//!   applies this check to every WAL, state and manifest write; an
//!   engine configured with a lease wraps its own backend in it, and
//!   checks the lease explicitly before sink and DLQ commits.
//! * observers never trust the wall-clock `renewed_at_us` inside the
//!   record (clocks skew). A standby declares the lease lapsed only
//!   after watching the record stay *byte-identical* for `ttl + grace`
//!   on its own **monotonic** clock ([`LeaseManager::is_lapsed`]), so a
//!   leader with a slow clock still gets its full TTL.
//!
//! The backend's last-writer-wins `write_atomic` is weaker than the
//! compare-and-swap a production lock service offers, so acquisition
//! re-reads after writing to confirm the win; the fencing check on
//! every durable write is what makes the rare write race harmless —
//! the loser is fenced before its next durable write lands.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use ss_common::clock::{system_clock, ClockRef};
use ss_common::fault::FaultRegistry;
use ss_common::{frame, Counter, MetricsRegistry, Result, SsError};
use ss_state::CheckpointBackend;

/// Fail-point names fired by the lease protocol.
pub mod failpoints {
    /// Inside lease renewal, before the renewed record is written. An
    /// error here makes the renewal fail — the leader keeps running on
    /// its remaining TTL and retries at the next phase boundary.
    pub const LEASE_RENEW: &str = "ha.lease.renew";
}

/// Backend key of the lease object. Lives under `ha/` so checkpoint
/// GC, WAL truncation and state purges never touch it.
pub const LEASE_KEY: &str = "ha/LEASE.json";

/// The durable lease record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseRecord {
    /// Identity of the current holder (informational; fencing decisions
    /// use the epoch).
    pub holder: String,
    /// Monotonically increasing fencing token: bumped on every
    /// acquisition, never on renewal.
    pub fencing_epoch: u64,
    /// Wall-clock µs of the last write. **Informational only** — lapse
    /// detection uses the observer's monotonic clock, never this field,
    /// so clock skew cannot produce double-leadership.
    pub renewed_at_us: i64,
    /// The holder's TTL in µs; observers add their own grace on top.
    pub ttl_us: u64,
}

/// The holder-side role, as exposed to progress and introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaRole {
    /// Holds a live lease; durable writes pass the fence.
    Leader,
    /// Watching the lease, state pre-loaded, ready to promote.
    Standby,
    /// Lost the lease; every durable write is rejected.
    Fenced,
}

impl HaRole {
    pub fn as_str(&self) -> &'static str {
        match self {
            HaRole::Leader => "leader",
            HaRole::Standby => "standby",
            HaRole::Fenced => "fenced",
        }
    }
}

/// What this manager knows about its own leadership.
#[derive(Debug, Default)]
struct HolderState {
    /// The fencing epoch we hold, if we lead.
    held_epoch: Option<u64>,
    /// Local-monotonic µs until which our last written lease is valid.
    valid_until_us: u64,
    /// Set permanently once a renewal discovers a usurper.
    fenced: bool,
}

/// Observation of someone else's lease (standby side).
#[derive(Debug)]
struct Observation {
    /// The raw lease bytes last seen (byte-identity detects renewal).
    bytes: Option<Vec<u8>>,
    /// Local-monotonic µs when those bytes were first seen.
    since_us: u64,
}

/// Manages one participant's view of the lease: acquire, renew, observe
/// and fence. Cheap to clone via `Arc`; the engine, its sinks and the
/// standby loop all share one manager.
pub struct LeaseManager {
    backend: Arc<dyn CheckpointBackend>,
    holder: String,
    ttl: Duration,
    grace: Duration,
    /// Local clock (monotonic µs). Injectable so tests control time —
    /// pausing a "zombie" is advancing everyone else's [`SimClock`].
    ///
    /// [`SimClock`]: ss_common::clock::SimClock
    clock: ClockRef,
    faults: Mutex<FaultRegistry>,
    state: Mutex<HolderState>,
    observed: Mutex<Option<Observation>>,
    rejections: AtomicU64,
    failovers: AtomicU64,
    metrics: Mutex<Option<LeaseMetrics>>,
}

struct LeaseMetrics {
    rejections: Counter,
    failovers: Counter,
}

impl LeaseManager {
    /// A manager for `holder` over the shared `backend`. The lease the
    /// holder writes carries `ttl`; lapse detection waits `ttl + grace`
    /// of *local monotonic* silence before declaring it dead.
    pub fn new(
        backend: Arc<dyn CheckpointBackend>,
        holder: impl Into<String>,
        ttl: Duration,
        grace: Duration,
    ) -> LeaseManager {
        Self::with_clock(backend, holder, ttl, grace, system_clock())
    }

    /// Like [`new`](Self::new) with an injected [`ClockRef`]. Tests
    /// pass a [`ss_common::clock::SimClock`] and advance virtual time
    /// instead of sleeping.
    pub fn with_clock(
        backend: Arc<dyn CheckpointBackend>,
        holder: impl Into<String>,
        ttl: Duration,
        grace: Duration,
        clock: ClockRef,
    ) -> LeaseManager {
        LeaseManager {
            backend,
            holder: holder.into(),
            ttl,
            grace,
            clock,
            faults: Mutex::new(FaultRegistry::new()),
            state: Mutex::new(HolderState::default()),
            observed: Mutex::new(None),
            rejections: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    /// Attach a fail-point registry; [`failpoints::LEASE_RENEW`] fires
    /// through it. Takes `&self` because the manager is usually shared
    /// behind an `Arc` by the time faults are wired (registry clones
    /// share trigger state, so swapping the handle is enough).
    pub fn set_faults(&self, faults: FaultRegistry) {
        *self.faults.lock() = faults;
    }

    /// Register `ss_fencing_*` / `ss_failovers_*` metrics on `registry`.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        registry.describe(
            "ss_fencing_rejections_total",
            "Durable writes rejected because the writer lost its lease",
        );
        registry.describe(
            "ss_failovers_total",
            "Successful leadership takeovers (fencing epoch bumps over a prior holder)",
        );
        *self.metrics.lock() = Some(LeaseMetrics {
            rejections: registry.counter("ss_fencing_rejections_total", &[]),
            failovers: registry.counter("ss_failovers_total", &[]),
        });
    }

    fn now_us(&self) -> u64 {
        self.clock.monotonic_us()
    }

    /// This participant's identity string.
    pub fn holder(&self) -> &str {
        &self.holder
    }

    /// The fencing epoch we hold, if leading.
    pub fn fencing_epoch(&self) -> Option<u64> {
        let s = self.state.lock();
        if s.fenced {
            None
        } else {
            s.held_epoch
        }
    }

    /// Current role of this participant.
    pub fn role(&self) -> HaRole {
        let s = self.state.lock();
        if s.fenced {
            HaRole::Fenced
        } else if s.held_epoch.is_some() {
            HaRole::Leader
        } else {
            HaRole::Standby
        }
    }

    /// Durable writes rejected by the fence so far.
    pub fn fencing_rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Successful takeovers (acquisitions over a prior holder).
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Read the current lease record, tolerating absence. A torn or
    /// corrupt lease object reads as `None`: it cannot prove anyone's
    /// leadership, and the next acquisition rewrites it.
    pub fn read_lease(&self) -> Result<Option<LeaseRecord>> {
        let Some(data) = self.backend.read(LEASE_KEY)? else {
            return Ok(None);
        };
        Ok(Self::decode(&data))
    }

    fn decode(data: &[u8]) -> Option<LeaseRecord> {
        let payload = if frame::is_framed(data) { frame::decode(data).ok()? } else { data };
        serde_json::from_slice(payload).ok()
    }

    fn write_record(&self, record: &LeaseRecord) -> Result<()> {
        let data = serde_json::to_vec_pretty(record)
            .map_err(|e| SsError::Serde(format!("lease encode: {e}")))?;
        self.backend.write_atomic(LEASE_KEY, &frame::encode(&data))
    }

    /// Startup hygiene: delete stale objects under `ha/` that are not
    /// the lease itself (leftover temp files are already swept by
    /// `FsBackend`; this removes orphaned keys from older layouts) and
    /// a lease object that fails CRC/JSON validation — a torn lease
    /// proves nothing and would otherwise wedge acquisition forever.
    /// Returns the number of objects removed. Never touches a *valid*
    /// lease, no matter how old its wall-clock stamp looks: only the
    /// monotonic observation rule may declare it dead.
    pub fn startup_sweep(&self) -> Result<u64> {
        let mut removed = 0;
        for key in self.backend.list("ha/")? {
            if key == LEASE_KEY {
                let data = self.backend.read(&key)?.unwrap_or_default();
                if Self::decode(&data).is_none() {
                    self.backend.delete(&key)?;
                    removed += 1;
                }
            } else {
                self.backend.delete(&key)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// True once the observed lease has stayed byte-identical for its
    /// TTL plus our grace, measured on *our* monotonic clock — or if no
    /// lease exists at all. Callers poll this; the first call after a
    /// change (or ever) starts the observation window.
    pub fn is_lapsed(&self) -> Result<bool> {
        let now = self.now_us();
        let bytes = self.backend.read(LEASE_KEY)?;
        if bytes.is_none() {
            return Ok(true);
        }
        let record = bytes.as_deref().and_then(Self::decode);
        let mut obs = self.observed.lock();
        match obs.as_ref() {
            Some(o) if o.bytes == bytes => {
                let ttl_us = record.map_or(self.ttl.as_micros() as u64, |r| r.ttl_us);
                let wait = ttl_us + self.grace.as_micros() as u64;
                Ok(now.saturating_sub(o.since_us) >= wait)
            }
            _ => {
                *obs = Some(Observation {
                    bytes,
                    since_us: now,
                });
                Ok(false)
            }
        }
    }

    /// Try to take (or refresh) leadership. Succeeds when the lease is
    /// absent, lapsed (per [`is_lapsed`](Self::is_lapsed)), or already
    /// ours; returns the fencing epoch now held. Fails with
    /// `SsError::Execution` while another holder's lease is live, and
    /// with [`SsError::Fenced`] if this manager was ever fenced — a
    /// fenced process must restart with a new identity, not sneak back.
    pub fn try_acquire(&self) -> Result<u64> {
        {
            let s = self.state.lock();
            if s.fenced {
                return Err(SsError::Fenced(format!(
                    "`{}` was fenced; it cannot reacquire the lease",
                    self.holder
                )));
            }
        }
        let current = self.read_lease()?;
        let (next_epoch, takeover) = match &current {
            None => (1, false),
            Some(r) if r.holder == self.holder => (r.fencing_epoch, false),
            Some(r) => {
                if !self.is_lapsed()? {
                    return Err(SsError::Execution(format!(
                        "lease held by `{}` (fencing epoch {})",
                        r.holder, r.fencing_epoch
                    )));
                }
                (r.fencing_epoch + 1, true)
            }
        };
        let now = self.now_us();
        self.write_record(&LeaseRecord {
            holder: self.holder.clone(),
            fencing_epoch: next_epoch,
            renewed_at_us: now as i64,
            ttl_us: self.ttl.as_micros() as u64,
        })?;
        // Last-writer-wins storage: re-read to confirm the win.
        match self.read_lease()? {
            Some(r) if r.holder == self.holder && r.fencing_epoch == next_epoch => {}
            other => {
                return Err(SsError::Execution(format!(
                    "lost lease acquisition race to {:?}",
                    other.map(|r| r.holder)
                )));
            }
        }
        let mut s = self.state.lock();
        s.held_epoch = Some(next_epoch);
        s.valid_until_us = now + self.ttl.as_micros() as u64;
        drop(s);
        if takeover {
            self.failovers.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = self.metrics.lock().as_ref() {
                m.failovers.inc();
            }
        }
        Ok(next_epoch)
    }

    /// Renew our lease if it is past its half-life; cheap no-op
    /// otherwise. Called at phase boundaries alongside the watchdog
    /// check. A failed renewal (fail point, I/O) is returned but does
    /// not fence us — the lease keeps its remaining TTL.
    pub fn maybe_renew(&self) -> Result<()> {
        let (held, due) = {
            let s = self.state.lock();
            if s.fenced || s.held_epoch.is_none() {
                return Ok(());
            }
            let half = self.ttl.as_micros() as u64 / 2;
            (
                s.held_epoch.expect("checked"),
                self.now_us() + half >= s.valid_until_us,
            )
        };
        if !due {
            return Ok(());
        }
        self.renew(held)
    }

    fn renew(&self, held_epoch: u64) -> Result<()> {
        self.faults.lock().fire(failpoints::LEASE_RENEW)?;
        // Re-read before rewriting: overwriting a usurper's lease would
        // be exactly the zombie corruption fencing prevents.
        match self.read_lease()? {
            Some(r) if r.holder == self.holder && r.fencing_epoch == held_epoch => {}
            other => {
                let mut s = self.state.lock();
                s.fenced = true;
                s.held_epoch = None;
                drop(s);
                // Discovering a usurper IS a fencing rejection: whatever
                // the zombie was about to do (write or heartbeat) has
                // been denied, and `ss_fencing_rejections_total` must
                // count every such attempt.
                self.rejections.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.lock().as_ref() {
                    m.rejections.inc();
                }
                return Err(SsError::Fenced(format!(
                    "`{}` lost the lease (epoch {held_epoch}) to {:?}",
                    self.holder,
                    other.map(|r| format!("{} (epoch {})", r.holder, r.fencing_epoch))
                )));
            }
        }
        let now = self.now_us();
        self.write_record(&LeaseRecord {
            holder: self.holder.clone(),
            fencing_epoch: held_epoch,
            renewed_at_us: now as i64,
            ttl_us: self.ttl.as_micros() as u64,
        })?;
        self.state.lock().valid_until_us = now + self.ttl.as_micros() as u64;
        Ok(())
    }

    /// The fence every durable write passes through: cheap while the
    /// lease is live, renews when it is not, and returns
    /// [`SsError::Fenced`] (counting the rejection) once leadership is
    /// lost. Returns the fencing epoch for stamping the write.
    pub fn check_fenced(&self, context: &str) -> Result<u64> {
        let (fenced, held, live) = {
            let s = self.state.lock();
            (
                s.fenced,
                s.held_epoch,
                self.now_us() < s.valid_until_us,
            )
        };
        if fenced {
            return Err(self.reject(context, "lease already lost"));
        }
        let Some(held) = held else {
            return Err(self.reject(context, "no lease held"));
        };
        if live {
            return Ok(held);
        }
        // TTL expired on our own clock: renew before writing. Only a
        // *discovered usurper* fences permanently; a transient renewal
        // failure just propagates (the caller's retry policy re-enters
        // here with TTL still expired, retrying the renewal).
        match self.renew(held) {
            Ok(()) => Ok(held),
            // The usurper discovery inside `renew` already counted this
            // rejection; just add the write's context to the error.
            Err(SsError::Fenced(why)) => Err(SsError::Fenced(format!(
                "durable write `{context}` by `{}` rejected: {why}",
                self.holder
            ))),
            Err(e) => Err(e),
        }
    }

    fn reject(&self, context: &str, why: &str) -> SsError {
        self.rejections.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.rejections.inc();
        }
        SsError::Fenced(format!(
            "durable write `{context}` by `{}` rejected: {why}",
            self.holder
        ))
    }
}

/// A [`CheckpointBackend`] decorator that rejects every mutation once
/// its lease is lost. Reads always pass through — a fenced or standby
/// process may still observe state, it just may not change it.
pub struct FencedBackend {
    inner: Arc<dyn CheckpointBackend>,
    lease: Arc<LeaseManager>,
}

impl FencedBackend {
    pub fn new(inner: Arc<dyn CheckpointBackend>, lease: Arc<LeaseManager>) -> FencedBackend {
        FencedBackend { inner, lease }
    }
}

impl CheckpointBackend for FencedBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
        self.lease.check_fenced(key)?;
        self.inner.write_atomic(key, data)
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.lease.check_fenced(key)?;
        self.inner.delete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::clock::SimClock;
    use ss_common::fault::{FaultMode, FaultTrigger};
    use ss_state::MemoryBackend;

    /// A shared virtual clock: tests advance it; no sleeping. `set`
    /// steps it to an absolute virtual microsecond.
    fn fake_clock() -> (SimClock, ClockRef) {
        let sim = SimClock::new(0);
        let handle = sim.handle();
        (sim, handle)
    }

    fn set(sim: &SimClock, us: u64) {
        let now = sim.now_us();
        assert!(us >= now, "virtual time only moves forward ({us} < {now})");
        sim.advance(Duration::from_micros(us - now));
    }

    fn manager(
        backend: &Arc<MemoryBackend>,
        holder: &str,
        clock: &ClockRef,
    ) -> Arc<LeaseManager> {
        let b: Arc<dyn CheckpointBackend> = backend.clone();
        Arc::new(LeaseManager::with_clock(
            b,
            holder,
            Duration::from_millis(100), // ttl = 100_000 µs
            Duration::from_millis(50),  // grace = 50_000 µs
            clock.clone(),
        ))
    }

    #[test]
    fn acquire_renew_and_fencing_epoch_monotonicity() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        assert_eq!(a.role(), HaRole::Standby);
        assert_eq!(a.try_acquire().unwrap(), 1);
        assert_eq!(a.role(), HaRole::Leader);
        assert_eq!(a.fencing_epoch(), Some(1));
        // Re-acquiring our own live lease keeps the epoch.
        assert_eq!(a.try_acquire().unwrap(), 1);
        // Renewal keeps the epoch but extends validity.
        set(&t, 60_000); // past half-life
        a.maybe_renew().unwrap();
        assert_eq!(a.check_fenced("wal/commit").unwrap(), 1);
        assert_eq!(a.fencing_rejections(), 0);
    }

    #[test]
    fn second_holder_cannot_acquire_live_lease() {
        let backend = Arc::new(MemoryBackend::new());
        let (_t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.try_acquire().unwrap();
        let err = b.try_acquire().unwrap_err();
        assert!(err.to_string().contains("held by `a`"), "{err}");
        assert_eq!(b.role(), HaRole::Standby);
    }

    #[test]
    fn lapse_requires_monotonic_silence_not_wall_clock() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.try_acquire().unwrap();
        // First observation starts the window; not lapsed yet.
        assert!(!b.is_lapsed().unwrap());
        // ttl+grace-1 µs of silence: still not lapsed.
        set(&t, 149_999);
        assert!(!b.is_lapsed().unwrap());
        // A renewal changes the lease bytes; the observation window
        // restarts when the observer first *sees* them (the wall-clock
        // stamp inside the record is ignored).
        a.maybe_renew().unwrap();
        set(&t, 250_000);
        assert!(!b.is_lapsed().unwrap()); // new bytes: window restarts now
        set(&t, 399_999);
        assert!(!b.is_lapsed().unwrap()); // 149_999 µs of silence: not enough
        set(&t, 400_000);
        assert!(b.is_lapsed().unwrap()); // full ttl+grace of local silence
    }

    #[test]
    fn skewed_wall_clock_cannot_cause_double_leadership() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        a.try_acquire().unwrap();
        // Sabotage the record's wall-clock stamp to look hours old.
        let mut rec = a.read_lease().unwrap().unwrap();
        rec.renewed_at_us = -3_600_000_000;
        a.write_record(&rec).unwrap();
        // An observer still waits out ttl+grace of *local* silence.
        let b = manager(&backend, "b", &clock);
        assert!(!b.is_lapsed().unwrap());
        assert!(b.try_acquire().is_err());
        set(&t, 149_999);
        assert!(!b.is_lapsed().unwrap());
        set(&t, 150_000);
        assert!(b.is_lapsed().unwrap());
        assert_eq!(b.try_acquire().unwrap(), 2);
    }

    #[test]
    fn zombie_is_fenced_on_first_durable_write_after_usurpation() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let zombie = manager(&backend, "zombie", &clock);
        let standby = manager(&backend, "standby", &clock);
        zombie.try_acquire().unwrap();
        assert!(!standby.is_lapsed().unwrap()); // start observing
        // The zombie pauses: everyone's clock runs past ttl+grace.
        set(&t, 200_000);
        assert!(standby.is_lapsed().unwrap());
        assert_eq!(standby.try_acquire().unwrap(), 2);
        assert_eq!(standby.failovers(), 1);
        // The zombie wakes and tries a durable write: its TTL is gone,
        // the renewal discovers the usurper, the write is fenced.
        let err = zombie.check_fenced("wal/commits/epoch-7").unwrap_err();
        assert!(matches!(err, SsError::Fenced(_)), "{err:?}");
        assert!(!err.is_transient(), "fenced must not be retried");
        assert_eq!(zombie.role(), HaRole::Fenced);
        assert_eq!(zombie.fencing_rejections(), 1);
        // Every later attempt is also rejected and counted.
        assert!(zombie.check_fenced("MANIFEST.json").is_err());
        assert_eq!(zombie.fencing_rejections(), 2);
        // A fenced process cannot reacquire.
        assert!(matches!(zombie.try_acquire(), Err(SsError::Fenced(_))));
        // The standby's leadership is untouched.
        assert_eq!(standby.check_fenced("wal/offsets").unwrap(), 2);
    }

    #[test]
    fn fenced_backend_blocks_mutations_but_not_reads() {
        let store = Arc::new(MemoryBackend::new());
        let lease_store = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let leader = manager(&lease_store, "leader", &clock);
        let usurper = manager(&lease_store, "usurper", &clock);
        leader.try_acquire().unwrap();
        let inner: Arc<dyn CheckpointBackend> = store.clone();
        let fenced = FencedBackend::new(inner, leader.clone());
        fenced.write_atomic("wal/a.json", b"ok").unwrap();
        assert_eq!(fenced.read("wal/a.json").unwrap().unwrap(), b"ok");
        // Usurp.
        assert!(!usurper.is_lapsed().unwrap());
        set(&t, 200_000);
        assert!(usurper.is_lapsed().unwrap());
        usurper.try_acquire().unwrap();
        // Mutations now bounce; the durable object is untouched.
        assert!(matches!(
            fenced.write_atomic("wal/a.json", b"zombie"),
            Err(SsError::Fenced(_))
        ));
        assert!(matches!(fenced.delete("wal/a.json"), Err(SsError::Fenced(_))));
        assert_eq!(fenced.read("wal/a.json").unwrap().unwrap(), b"ok");
        assert_eq!(leader.fencing_rejections(), 2);
    }

    #[test]
    fn renewal_failpoint_does_not_fence_while_ttl_remains() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        a.try_acquire().unwrap();
        let faults = FaultRegistry::new();
        faults.configure(
            failpoints::LEASE_RENEW,
            FaultTrigger::Once { skip: 0 },
            FaultMode::TransientError,
        );
        a.set_faults(faults);
        // Past the half-life the renewal fires the fail point and
        // errors, but the lease is still live — no fencing.
        set(&t, 60_000);
        assert!(a.maybe_renew().is_err());
        assert_eq!(a.check_fenced("wal/x").unwrap(), 1);
        // The retried renewal (fault was Once) succeeds.
        set(&t, 99_000);
        a.maybe_renew().unwrap();
        assert_eq!(a.role(), HaRole::Leader);
    }

    #[test]
    fn startup_sweep_removes_corrupt_lease_and_orphans() {
        let backend = Arc::new(MemoryBackend::new());
        let (_t, clock) = fake_clock();
        backend.write_atomic(LEASE_KEY, b"torn garbage").unwrap();
        backend.write_atomic("ha/old-heartbeat.json", b"{}").unwrap();
        backend.write_atomic("wal/keep.json", b"data").unwrap();
        let a = manager(&backend, "a", &clock);
        assert_eq!(a.startup_sweep().unwrap(), 2);
        assert_eq!(backend.read(LEASE_KEY).unwrap(), None);
        assert_eq!(backend.read("wal/keep.json").unwrap().unwrap(), b"data");
        // A *valid* lease survives the sweep regardless of age.
        a.try_acquire().unwrap();
        let b = manager(&backend, "b", &clock);
        assert_eq!(b.startup_sweep().unwrap(), 0);
        assert!(backend.read(LEASE_KEY).unwrap().is_some());
    }

    #[test]
    fn metrics_count_rejections_and_failovers() {
        let registry = MetricsRegistry::new();
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.attach_metrics(&registry);
        b.attach_metrics(&registry);
        a.try_acquire().unwrap();
        assert!(!b.is_lapsed().unwrap());
        set(&t, 200_000);
        b.try_acquire().unwrap();
        let _ = a.check_fenced("wal/y");
        let rendered = registry.render();
        assert!(rendered.contains("ss_failovers_total 1"), "{rendered}");
        assert!(
            rendered.contains("ss_fencing_rejections_total 1"),
            "{rendered}"
        );
    }

    #[test]
    fn lease_lapse_matrix_across_observer_skews() {
        // ttl+grace = 150_000 µs of *observer-local* silence. Observers
        // whose clocks run fast or slow relative to the leader's still
        // measure the window on their own monotonic clock, so the lapse
        // verdict depends only on how much local time they waited.
        for (skew_us, lapsed) in [
            (-50_000i64, false), // slow observer: window not yet over
            (-1, false),         // one µs short of ttl+grace
            (0, true),           // exactly ttl+grace of local silence
            (1, true),
            (50_000, true), // fast observer: lapses sooner in real terms
        ] {
            let backend = Arc::new(MemoryBackend::new());
            let (leader_sim, leader_clock) = fake_clock();
            let a = manager(&backend, "a", &leader_clock);
            a.try_acquire().unwrap();
            // The observer runs its own, skewed clock: the leader's
            // clock is frozen (a paused zombie) while the observer's
            // advances.
            let (obs_sim, obs_clock) = fake_clock();
            let b = manager(&backend, "b", &obs_clock);
            assert!(!b.is_lapsed().unwrap(), "first sight starts the window");
            set(&obs_sim, (150_000i64 + skew_us) as u64);
            assert_eq!(b.is_lapsed().unwrap(), lapsed, "skew {skew_us}");
            assert_eq!(b.try_acquire().is_ok(), lapsed, "skew {skew_us}");
            assert_eq!(leader_sim.now_us(), 0, "leader stays paused");
        }
    }

    #[test]
    fn heartbeat_exactly_at_half_life_renews_and_resets_observer_window() {
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.try_acquire().unwrap(); // valid until 100_000
        assert!(!b.is_lapsed().unwrap());
        // One µs before the half-life the renewal is not due: the lease
        // bytes stay put.
        set(&t, 49_999);
        a.maybe_renew().unwrap();
        // Exactly at the half-life it renews and the bytes change.
        set(&t, 50_000);
        a.maybe_renew().unwrap();
        assert_eq!(a.fencing_epoch(), Some(1), "renewal never bumps the epoch");
        // The observer sees the fresh bytes at 149_999 and restarts its
        // window — the old record's silence does not carry over.
        set(&t, 149_999);
        assert!(!b.is_lapsed().unwrap(), "renewal restarted the window");
        // With no further heartbeat the new record lapses a full
        // ttl+grace after it was first seen.
        set(&t, 299_998);
        assert!(!b.is_lapsed().unwrap());
        set(&t, 299_999);
        assert!(b.is_lapsed().unwrap());
    }

    #[test]
    fn promotion_racing_a_renewing_leader() {
        // Interleaving 1: the standby's promotion lands first; the
        // leader's next heartbeat discovers the usurper and fences.
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.try_acquire().unwrap();
        assert!(!b.is_lapsed().unwrap());
        set(&t, 150_000); // a's TTL long gone on everyone's clock
        assert!(b.is_lapsed().unwrap());
        assert_eq!(b.try_acquire().unwrap(), 2);
        let err = a.maybe_renew().unwrap_err();
        assert!(matches!(err, SsError::Fenced(_)), "{err:?}");
        assert_eq!(a.role(), HaRole::Fenced);
        assert_eq!(b.role(), HaRole::Leader);

        // Interleaving 2: the leader's renewal lands one poll earlier;
        // the standby's byte-identity window restarts and its promotion
        // attempt loses.
        let backend = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let a = manager(&backend, "a", &clock);
        let b = manager(&backend, "b", &clock);
        a.try_acquire().unwrap();
        assert!(!b.is_lapsed().unwrap());
        set(&t, 150_000);
        a.maybe_renew().unwrap(); // the renewal wins the race
        assert!(!b.is_lapsed().unwrap(), "fresh bytes: the window restarts");
        let err = b.try_acquire().unwrap_err();
        assert!(err.to_string().contains("held by `a`"), "{err}");
        assert_eq!(a.role(), HaRole::Leader);
        assert_eq!(b.role(), HaRole::Standby);
    }
}
