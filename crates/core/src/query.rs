//! Query handles and the query manager (§3, §7).
//!
//! A [`StreamingQuery`] wraps a running [`MicroBatchExecution`] in one
//! of two modes:
//!
//! * **Sync** — the caller drives epochs explicitly
//!   ([`StreamingQuery::run_epoch`] / [`StreamingQuery::process_available`]).
//!   Deterministic; what tests, benchmarks and run-once ("discontinuous
//!   processing", §7.3) deployments use.
//! * **Background** — a thread fires the trigger on schedule
//!   (§4: "Triggers control how often the engine will attempt to
//!   compute a new result").
//!
//! [`StreamingQueryManager`] tracks all queries of an application
//! ("users can manage multiple streaming queries dynamically", §1).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serde::Serialize;

use ss_common::{failure_fingerprint, FailureTracker, Result, SsError};

use crate::dataframe::Trigger;
use crate::metrics::{QueryProgress, StreamingQueryListener};
use crate::microbatch::{EpochRun, MicroBatchExecution};

/// How the supervisor reacts when a background query's trigger loop
/// fails (§6.1: "the system automatically restarts failed tasks").
///
/// Restarts re-run WAL recovery in place
/// ([`MicroBatchExecution::restart`]) — exactly what a fresh process
/// would do — so every restart exercises the paper's recovery path.
/// User errors ([`SsError::is_user_error`]) are never restarted: a bad
/// query stays bad no matter how often it is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restart at most this many times before giving up and
    /// terminating with the preserved exception.
    pub max_restarts: u32,
    /// Delay before the first restart; doubles per consecutive restart.
    pub backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub max_backoff: Duration,
    /// After this many consecutive non-idle epochs succeed, the
    /// consumed restart budget and the backoff delay reset — a query
    /// that recovered and then ran healthily for a while should face a
    /// transient failure next week with a full budget, not the remnant
    /// of one spent long ago. `None` never replenishes (the budget
    /// covers the query's whole lifetime).
    pub healthy_epochs_to_reset: Option<u32>,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(10),
            healthy_epochs_to_reset: Some(16),
        }
    }
}

impl RestartPolicy {
    /// Never restart: the first failure terminates the query (what
    /// [`crate::DataStreamWriter::start`] runs under).
    pub fn none() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 0,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            healthy_epochs_to_reset: None,
        }
    }
}

enum QueryInner {
    Sync(Box<MicroBatchExecution>),
    Background {
        engine: Arc<Mutex<MicroBatchExecution>>,
        stop: Arc<AtomicBool>,
        handle: Option<JoinHandle<()>>,
        error: Arc<Mutex<Option<String>>>,
    },
}

/// A handle to one streaming query.
pub struct StreamingQuery {
    name: String,
    inner: QueryInner,
}

impl StreamingQuery {
    /// Wrap an engine for caller-driven (synchronous) execution.
    pub fn new_sync(engine: MicroBatchExecution) -> StreamingQuery {
        StreamingQuery {
            name: engine.name().to_string(),
            inner: QueryInner::Sync(Box::new(engine)),
        }
    }

    /// Spawn a supervised background thread firing `trigger`. When the
    /// trigger loop fails with anything other than a user error, the
    /// supervisor backs off, re-runs WAL recovery in place
    /// ([`MicroBatchExecution::restart`]) and resumes — up to
    /// `policy.max_restarts` times. A failed recovery attempt consumes
    /// a restart too. Once exhausted, the query terminates and the last
    /// error is preserved in [`StreamingQuery::exception`] (suffixed
    /// with the restart count when any were attempted). A continuous
    /// trigger is rejected: it has no micro-batch schedule.
    pub fn start_supervised(
        engine: MicroBatchExecution,
        trigger: Trigger,
        policy: RestartPolicy,
    ) -> Result<StreamingQuery> {
        let interval = trigger.micro_batch_interval()?;
        let name = engine.name().to_string();
        // The stop flag *is* the engine's retry-backoff interrupt
        // flag: one store both ends the trigger loop and aborts any
        // in-flight backoff sleep, so `stop()` never waits out a long
        // retry schedule (the interrupted attempt fails with its
        // transient error at the commit boundary).
        let stop = engine.interrupt_handle();
        let engine = Arc::new(Mutex::new(engine));
        let error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let handle = {
            let engine = engine.clone();
            let stop = stop.clone();
            let error = error.clone();
            std::thread::spawn(move || {
                supervise(&engine, &stop, &error, interval, policy);
            })
        };
        Ok(StreamingQuery {
            name,
            inner: QueryInner::Background {
                engine,
                stop,
                handle: Some(handle),
                error,
            },
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    fn with_engine<R>(&self, f: impl FnOnce(&MicroBatchExecution) -> R) -> R {
        match &self.inner {
            QueryInner::Sync(e) => f(e),
            QueryInner::Background { engine, .. } => f(&engine.lock()),
        }
    }

    fn with_engine_mut<R>(&mut self, f: impl FnOnce(&mut MicroBatchExecution) -> R) -> R {
        match &mut self.inner {
            QueryInner::Sync(e) => f(e),
            QueryInner::Background { engine, .. } => f(&mut engine.lock()),
        }
    }

    /// Fire one trigger now (sync and background modes both allow
    /// manual firing; in background mode it interleaves with the
    /// scheduled trigger under the engine lock).
    pub fn run_epoch(&mut self) -> Result<EpochRun> {
        self.check_error()?;
        self.with_engine_mut(|e| e.run_epoch())
    }

    /// Drain everything currently available; returns epochs run.
    pub fn process_available(&mut self) -> Result<u64> {
        self.check_error()?;
        self.with_engine_mut(|e| e.process_available())
    }

    /// Latest progress record (§7.4).
    pub fn last_progress(&self) -> Option<QueryProgress> {
        self.with_engine(|e| e.progress().last().cloned())
    }

    /// Retained progress records, oldest first.
    pub fn recent_progress(&self) -> Vec<QueryProgress> {
        self.with_engine(|e| e.progress().all().cloned().collect())
    }

    /// The last epoch whose offsets are logged.
    pub fn current_epoch(&self) -> u64 {
        self.with_engine(|e| e.current_epoch())
    }

    /// The event-time watermark in force.
    pub fn watermark_us(&self) -> i64 {
        self.with_engine(|e| e.watermark_us())
    }

    /// Total stateful-operator keys.
    pub fn state_rows(&self) -> u64 {
        self.with_engine(|e| e.state_rows())
    }

    /// Supervisor restarts the query has survived so far (also carried
    /// on every [`QueryProgress`] record).
    pub fn restarts(&self) -> u64 {
        self.with_engine(|e| e.restarts())
    }

    /// High-availability role (`"leader"`, `"standby"`, `"fenced"`);
    /// `None` for queries without a lease.
    pub fn ha_role(&self) -> Option<String> {
        self.with_engine(|e| e.ha_role().map(|r| r.as_str().to_string()))
    }

    /// JSON snapshot of the HA machinery (role, fencing epoch,
    /// rejection/failover counters, replication lag) — the body served
    /// at `/query/<name>/ha`.
    pub fn ha_status_json(&self) -> String {
        self.with_engine(|e| e.ha_status_json())
    }

    /// Register a [`StreamingQueryListener`] (§7.4): `on_progress`
    /// fires after every non-idle epoch, `on_terminated` once when the
    /// query stops or fails.
    pub fn add_listener(&mut self, listener: Arc<dyn StreamingQueryListener>) {
        self.with_engine_mut(|e| e.add_listener(listener));
    }

    /// A handle to the query's metric registry; clones share the
    /// underlying series.
    pub fn metrics(&self) -> ss_common::MetricsRegistry {
        self.with_engine(|e| e.metrics().clone())
    }

    /// A handle to the query's trace log; clones share the buffer.
    pub fn trace(&self) -> ss_common::TraceLog {
        self.with_engine(|e| e.trace().clone())
    }

    /// The retained epochs' phase-tree profiles, oldest first: the
    /// progress history's own.
    pub fn profiles(&self) -> Vec<ss_common::EpochProfile> {
        self.with_engine(|e| {
            e.progress()
                .all()
                .filter_map(|p| p.profile.clone())
                .collect()
        })
    }

    /// The retained epoch profiles as a JSON array — what the
    /// introspection server serves at `/query/<name>/profile`.
    pub fn profile_json(&self) -> String {
        ss_common::to_json(&self.profiles())
    }

    /// The structured lifecycle event log rendered as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        self.with_engine(|e| e.events().to_jsonl())
    }

    /// The query's dead-letter queue rendered as JSON Lines, one
    /// quarantined record per line — what the introspection server
    /// serves at `/query/<name>/dlq`.
    pub fn dlq_jsonl(&self) -> String {
        self.with_engine(|e| e.dlq().to_jsonl())
    }

    /// Whether the engine is in record-isolation mode (probing each
    /// input row individually after a deterministic failure).
    pub fn isolation_active(&self) -> bool {
        self.with_engine(|e| e.isolation_active())
    }

    /// Manual rollback (§7.2): recompute from the chosen epoch.
    pub fn rollback_to(&mut self, epoch: u64) -> Result<()> {
        self.check_error()?;
        self.with_engine_mut(|e| e.rollback_to(epoch))
    }

    /// The background thread's failure, if it died.
    pub fn exception(&self) -> Option<String> {
        match &self.inner {
            QueryInner::Sync(_) => None,
            QueryInner::Background { error, .. } => error.lock().clone(),
        }
    }

    fn check_error(&self) -> Result<()> {
        if let Some(e) = self.exception() {
            return Err(SsError::Execution(format!(
                "query `{}` already failed: {e}",
                self.name
            )));
        }
        Ok(())
    }

    /// Wait until the query goes idle (all available input processed)
    /// or the timeout expires. Background mode only makes progress on
    /// its own; in sync mode this simply drains.
    pub fn await_idle(&mut self, timeout: Duration) -> Result<bool> {
        match &mut self.inner {
            QueryInner::Sync(_) => {
                self.process_available()?;
                Ok(true)
            }
            QueryInner::Background { engine, error, .. } => {
                // Deadline and polling sleep both run on the engine
                // clock, so the wait is virtual under simulation.
                let clock = engine.lock().clock();
                let deadline = clock.deadline_us(timeout);
                loop {
                    if let Some(e) = error.lock().clone() {
                        return Err(SsError::Execution(e));
                    }
                    {
                        let mut eng = engine.lock();
                        if matches!(eng.run_epoch()?, EpochRun::Idle) {
                            return Ok(true);
                        }
                    }
                    if clock.monotonic_us() >= deadline {
                        return Ok(false);
                    }
                    clock.sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Stop the query (§2.3). Always lands on an **epoch commit
    /// boundary**: the background stop flag is only examined between
    /// trigger firings, and each firing runs the full epoch protocol
    /// (offsets → execute → sink → commit → checkpoint) under the
    /// engine lock, so an in-flight epoch completes — or fails — whole.
    /// A later restart therefore never recomputes a committed epoch's
    /// sink output. Idempotent.
    pub fn stop(mut self) -> Result<()> {
        self.halt(false)
    }

    /// Graceful drain stop: stop at the next commit boundary like
    /// [`StreamingQuery::stop`], then **seal** the checkpoint manifest
    /// — recording that every defined epoch is committed with no
    /// in-flight work — so the checkpoint is a clean handoff point for
    /// [`StreamingQuery::restart_from_checkpoint`] or a new deployment.
    pub fn stop_graceful(mut self) -> Result<()> {
        self.halt(true)
    }

    /// Upgrade the query in place (§7.2 "updating a query's code"):
    /// gracefully stop, then build a fresh engine over the **same
    /// checkpoint, sources and sink** running `new_df`'s plan. The
    /// compatibility check classifies the edit against the sealed
    /// manifest before anything durable is touched — a compatible edit
    /// resumes from the retained state (migrating it if needed), an
    /// incompatible one ([`SsError::IncompatibleUpgrade`]) leaves the
    /// checkpoint intact for the old query or a rollback.
    ///
    /// The returned query is in synchronous mode; re-wrap it with a
    /// trigger to resume background execution.
    pub fn restart_from_checkpoint(mut self, new_df: &crate::DataFrame) -> Result<StreamingQuery> {
        self.halt(true)?;
        let plan = new_df.plan();
        let engine = match &self.inner {
            QueryInner::Sync(e) => e.rebuild_from_checkpoint(&plan)?,
            QueryInner::Background { engine, .. } => engine.lock().rebuild_from_checkpoint(&plan)?,
        };
        Ok(StreamingQuery::new_sync(engine))
    }

    /// Stop at the commit boundary: join the trigger thread and surface
    /// any failure. With `seal`, a query that drained cleanly also
    /// seals its manifest; a failed one did not drain, so its manifest
    /// stays unsealed and the next take-over re-runs the in-flight
    /// work.
    fn halt(&mut self, seal: bool) -> Result<()> {
        let finish = |eng: &mut MicroBatchExecution, err: Option<String>| match err {
            Some(e) => {
                // Idempotent: a no-op if the trigger thread already
                // fired it on failure.
                eng.notify_terminated(Some(&e));
                Err(SsError::Execution(e))
            }
            None => {
                if seal {
                    eng.seal_manifest()?;
                }
                eng.notify_terminated(None);
                Ok(())
            }
        };
        match &mut self.inner {
            QueryInner::Sync(e) => finish(e, None),
            QueryInner::Background {
                engine,
                stop,
                handle,
                error,
            } => {
                stop.store(true, Ordering::SeqCst);
                if let Some(h) = handle.take() {
                    h.thread().unpark();
                    h.join()
                        .map_err(|_| SsError::Execution("query thread panicked".into()))?;
                }
                // The trigger thread is gone; clear the shared flag so
                // an engine rebuilt over the same config (upgrades,
                // restart_from_checkpoint) starts uninterrupted.
                stop.store(false, Ordering::SeqCst);
                let err = error.lock().clone();
                finish(&mut engine.lock(), err)
            }
        }
    }
}

impl Drop for StreamingQuery {
    fn drop(&mut self) {
        let _ = self.halt(false);
    }
}

/// The supervisor loop: drive the trigger until it fails or a stop is
/// requested, then decide between restart and termination.
///
/// Every failure is fingerprinted (error category + message + epoch).
/// A restart that reproduces the *same* fingerprint proves the failure
/// is deterministic — replaying the same input through the same code
/// can never succeed — so the supervisor tells the engine
/// ([`MicroBatchExecution::note_deterministic`]), which switches into
/// record-isolation mode when the query's [`ss_common::ErrorPolicy`]
/// allows it. Under the default `Fail` policy the classification still
/// rides on the terminal error message so operators can tell a poison
/// record from an unlucky streak.
fn supervise(
    engine: &Arc<Mutex<MicroBatchExecution>>,
    stop: &Arc<AtomicBool>,
    error: &Arc<Mutex<Option<String>>>,
    interval: Option<Duration>,
    policy: RestartPolicy,
) {
    let mut restarts_done: u32 = 0;
    let mut delay = policy.backoff;
    let mut tracker = FailureTracker::new();
    let mut healthy_epochs: u32 = 0;
    let mut deterministic_fp: Option<u64> = None;
    // Trigger pacing and restart backoff run on the engine clock, so a
    // simulated clock drives the whole supervision schedule virtually.
    // `stop()` interrupts both kinds of wait: real waits via unpark,
    // virtual waits via the interrupted-poll below.
    let clock = engine.lock().clock();
    let wait = |d: Duration| {
        if clock.is_virtual() {
            clock.sleep_interruptible(d, ss_common::retry::BACKOFF_POLL, &|| {
                stop.load(Ordering::SeqCst)
            });
        } else {
            std::thread::park_timeout(d);
        }
    };
    'incarnation: loop {
        // Drive the trigger until it errors (Some) or finishes (None).
        let failure: Option<SsError> = match interval {
            None => engine.lock().process_available().err(),
            Some(interval) => {
                let mut failure = None;
                while !stop.load(Ordering::SeqCst) {
                    let started = clock.monotonic_us();
                    match engine.lock().run_epoch() {
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                        Ok(EpochRun::Ran(_)) if restarts_done > 0 => {
                            // A streak of healthy epochs after a restart
                            // replenishes the budget: the next failure
                            // is a fresh incident, not a continuation.
                            healthy_epochs += 1;
                            if policy
                                .healthy_epochs_to_reset
                                .is_some_and(|n| healthy_epochs >= n)
                            {
                                restarts_done = 0;
                                delay = policy.backoff;
                                healthy_epochs = 0;
                                tracker.reset();
                                deterministic_fp = None;
                            }
                        }
                        Ok(_) => {}
                    }
                    let elapsed =
                        Duration::from_micros(clock.monotonic_us().saturating_sub(started));
                    if elapsed < interval {
                        wait(interval - elapsed);
                    }
                }
                failure
            }
        };
        let Some(mut failure) = failure else {
            // Clean exit: `Once` drained, or `stop()` was requested.
            // Termination is notified by `halt`.
            return;
        };
        healthy_epochs = 0;

        // Restart-or-terminate. A restart whose own recovery fails
        // consumes an attempt and loops here with the new error.
        loop {
            let msg_raw = failure.to_string();
            let fp = {
                let mut eng = engine.lock();
                let fp = failure_fingerprint(failure.category(), &msg_raw, eng.current_epoch());
                if tracker.observe(fp) == 2 {
                    // The restart replayed the failure byte-identically:
                    // deterministic. Flip the engine into isolation mode
                    // (when its error policy allows) so the next replay
                    // quarantines the offending records instead of
                    // failing the same way a third time.
                    eng.note_deterministic(fp, &msg_raw);
                }
                fp
            };
            if tracker.is_deterministic(fp) {
                deterministic_fp = Some(fp);
            }
            // A fenced query must terminate, never restart: another
            // leader holds the lease, and a restart would only replay
            // the same rejection (or worse, race the new leader's
            // recovery for the checkpoint).
            let give_up = failure.is_user_error()
                || matches!(failure, SsError::Fenced(_))
                || restarts_done >= policy.max_restarts
                || stop.load(Ordering::SeqCst);
            if give_up {
                let mut msg = msg_raw;
                if restarts_done > 0 {
                    msg.push_str(&format!(" (after {restarts_done} restarts)"));
                }
                if let Some(fp) = deterministic_fp {
                    msg.push_str(&format!(" [deterministic failure, fingerprint {fp:016x}]"));
                }
                *error.lock() = Some(msg.clone());
                engine.lock().notify_terminated(Some(&msg));
                return;
            }
            // Exponential backoff; `stop()` unparks us early.
            if !delay.is_zero() {
                wait(delay);
            }
            delay = (delay * 2).min(policy.max_backoff.max(policy.backoff));
            restarts_done += 1;
            match engine.lock().restart() {
                Ok(()) => continue 'incarnation,
                Err(e) => failure = e,
            }
        }
    }
}

/// Owned point-in-time status of one managed query, returned by
/// [`StreamingQueryManager::get_query`] and listed by the
/// introspection server's `/queries`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuerySnapshot {
    pub name: String,
    pub epoch: u64,
    pub restarts: u64,
    pub state_rows: u64,
    /// `None` until data establishes a watermark.
    pub watermark_us: Option<i64>,
    pub ha_role: Option<String>,
    pub exception: Option<String>,
    /// The last progress record's one-line [`QueryProgress::summary`].
    pub summary: Option<String>,
    pub last_progress: Option<QueryProgress>,
}

impl QuerySnapshot {
    pub(crate) fn of(query: &StreamingQuery) -> QuerySnapshot {
        let last_progress = query.last_progress();
        QuerySnapshot {
            name: query.name().to_string(),
            epoch: query.current_epoch(),
            restarts: query.restarts(),
            state_rows: query.state_rows(),
            watermark_us: Some(query.watermark_us()).filter(|&wm| wm != i64::MIN),
            ha_role: query.ha_role(),
            exception: query.exception(),
            summary: last_progress.as_ref().map(QueryProgress::summary),
            last_progress,
        }
    }
}

/// Tracks every active query in an application.
#[derive(Default)]
pub struct StreamingQueryManager {
    queries: Mutex<HashMap<String, StreamingQuery>>,
}

impl StreamingQueryManager {
    pub fn new() -> StreamingQueryManager {
        StreamingQueryManager::default()
    }

    /// Register a query; rejects duplicate names.
    pub fn add(&self, query: StreamingQuery) -> Result<()> {
        let mut q = self.queries.lock();
        if q.contains_key(query.name()) {
            return Err(SsError::Plan(format!(
                "a query named `{}` is already active",
                query.name()
            )));
        }
        q.insert(query.name().to_string(), query);
        Ok(())
    }

    /// Names of active queries, sorted.
    pub fn active(&self) -> Vec<String> {
        let mut names: Vec<String> = self.queries.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Point-in-time status of one query by name. Unlike
    /// [`StreamingQueryManager::with_query`] this hands back an owned
    /// snapshot, so callers (e.g. the SQL service listing sessions)
    /// hold no lock while formatting it.
    pub fn get_query(&self, name: &str) -> Result<QuerySnapshot> {
        let q = self.queries.lock();
        q.get(name)
            .map(QuerySnapshot::of)
            .ok_or_else(|| SsError::Plan(format!("no active query `{name}`")))
    }

    /// Run a closure against one query.
    pub fn with_query<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut StreamingQuery) -> R,
    ) -> Result<R> {
        let mut q = self.queries.lock();
        let query = q
            .get_mut(name)
            .ok_or_else(|| SsError::Plan(format!("no active query `{name}`")))?;
        Ok(f(query))
    }

    /// Run a closure against every active query, sorted by name — how
    /// the introspection server assembles merged views (metrics,
    /// traces, per-query status) without taking ownership of handles.
    pub fn for_each_query<R>(&self, mut f: impl FnMut(&StreamingQuery) -> R) -> Vec<R> {
        let q = self.queries.lock();
        let mut names: Vec<&String> = q.keys().collect();
        names.sort();
        names.into_iter().map(|n| f(&q[n])).collect()
    }

    /// Stop and deregister one query.
    pub fn stop_query(&self, name: &str) -> Result<()> {
        let query = self
            .queries
            .lock()
            .remove(name)
            .ok_or_else(|| SsError::Plan(format!("no active query `{name}`")))?;
        query.stop()
    }

    /// Stop everything (application shutdown).
    pub fn stop_all(&self) -> Result<()> {
        let queries: Vec<StreamingQuery> = {
            let mut q = self.queries.lock();
            q.drain().map(|(_, v)| v).collect()
        };
        for q in queries {
            q.stop()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use crate::microbatch::{failpoints, MicroBatchConfig, MicroBatchExecution};
    use ss_bus::{GeneratorSource, MemorySink, Source};
    use ss_common::fault::{FaultMode, FaultTrigger};
    use ss_common::{row, DataType, Field, Schema, SchemaRef, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star};
    use ss_plan::{LogicalPlanBuilder, OutputMode};
    use ss_state::{CheckpointBackend, MemoryBackend};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
        ])
    }

    fn gen_source() -> Arc<GeneratorSource> {
        Arc::new(GeneratorSource::new(
            "events",
            schema(),
            1,
            Arc::new(|p, o| {
                let c = if (p as u64 + o).is_multiple_of(2) { "CA" } else { "US" };
                row![c, Value::Timestamp((o as i64) * 1_000_000)]
            }),
        ))
    }

    fn engine(
        source: Arc<GeneratorSource>,
        sink: Arc<MemorySink>,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
    ) -> MicroBatchExecution {
        let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
        sources.insert("events".into(), source);
        let plan = LogicalPlanBuilder::scan("events", schema(), true)
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        MicroBatchExecution::new(
            "q",
            &plan,
            sources,
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Complete,
            backend,
            config,
        )
        .unwrap()
    }

    /// Poll `cond` with a deadline; supervised queries make progress on
    /// their own thread.
    fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    fn fast_policy(max_restarts: u32) -> RestartPolicy {
        RestartPolicy {
            max_restarts,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            healthy_epochs_to_reset: None,
        }
    }

    #[test]
    fn supervisor_restarts_after_a_crash_and_the_query_continues() {
        let src = gen_source();
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig::default();
        // One injected crash between the sink write and the commit-log
        // write; the restart's recovery re-runs the epoch (the sink's
        // idempotence absorbs the duplicate).
        config.faults.configure(
            failpoints::AFTER_SINK_WRITE,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        let eng = engine(
            src.clone(),
            sink.clone(),
            Arc::new(MemoryBackend::new()),
            config,
        );
        src.advance(4);
        let query = StreamingQuery::start_supervised(
            eng,
            Trigger::ProcessingTime(Duration::from_millis(1)),
            fast_policy(3),
        )
        .unwrap();
        assert!(
            wait_for(|| sink.snapshot() == vec![row!["CA", 2i64], row!["US", 2i64]]),
            "query never produced output after the injected crash; exception={:?}",
            query.exception()
        );
        assert_eq!(query.restarts(), 1);
        assert!(query.exception().is_none());
        // The restart count rides on subsequent progress records.
        src.advance(2);
        assert!(wait_for(|| {
            query.last_progress().map(|p| p.restarts) == Some(1) && sink.snapshot().len() == 2
        }));
        query.stop().unwrap();
    }

    #[test]
    fn supervisor_terminates_with_preserved_exception_once_exhausted() {
        let src = gen_source();
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig::default();
        // Fires on every hit — including during each restart's recovery
        // replay — so every restart attempt fails too.
        config.faults.configure(
            failpoints::AFTER_SINK_WRITE,
            FaultTrigger::EveryNth { n: 1 },
            FaultMode::Error,
        );
        let eng = engine(
            src.clone(),
            sink.clone(),
            Arc::new(MemoryBackend::new()),
            config,
        );
        src.advance(4);
        let query = StreamingQuery::start_supervised(
            eng,
            Trigger::ProcessingTime(Duration::from_millis(1)),
            fast_policy(2),
        )
        .unwrap();
        assert!(wait_for(|| query.exception().is_some()));
        let msg = query.exception().unwrap();
        assert!(msg.contains("injected failure"), "got: {msg}");
        assert!(msg.contains("(after 2 restarts)"), "got: {msg}");
        assert_eq!(query.restarts(), 2);
        // The terminal error also surfaces through `stop`.
        assert!(query.stop().is_err());
    }

    #[test]
    fn healthy_epochs_replenish_the_restart_budget() {
        let src = gen_source();
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig::default();
        // Registry handles share state, so we can arm a second fault
        // after the first incident is resolved.
        let faults = config.faults.clone();
        faults.configure(
            failpoints::AFTER_SINK_WRITE,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        let eng = engine(
            src.clone(),
            sink.clone(),
            Arc::new(MemoryBackend::new()),
            config,
        );
        src.advance(4);
        let policy = RestartPolicy {
            max_restarts: 1,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            healthy_epochs_to_reset: Some(2),
        };
        let query = StreamingQuery::start_supervised(
            eng,
            Trigger::ProcessingTime(Duration::from_millis(1)),
            policy,
        )
        .unwrap();
        // The first crash consumes the entire budget (max_restarts = 1).
        assert!(
            wait_for(|| query.restarts() == 1),
            "first restart never happened; exception={:?}",
            query.exception()
        );
        // Two healthy non-idle epochs replenish it.
        let mut seen_epoch = query.current_epoch();
        for _ in 0..2 {
            src.advance(2);
            assert!(
                wait_for(|| {
                    query.exception().is_none() && query.current_epoch() > seen_epoch
                }),
                "healthy epoch never committed; exception={:?}",
                query.exception()
            );
            seen_epoch = query.current_epoch();
        }
        // A second crash now restarts again instead of terminating —
        // without the reset, the exhausted budget would kill the query.
        faults.configure(
            failpoints::AFTER_SINK_WRITE,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        src.advance(2);
        assert!(
            wait_for(|| query.restarts() == 2),
            "second restart never happened; exception={:?}",
            query.exception()
        );
        assert!(query.exception().is_none());
        query.stop().unwrap();
    }

    #[test]
    fn unsupervised_background_query_fails_fast_without_restarts() {
        let src = gen_source();
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig::default();
        config.faults.configure(
            failpoints::AFTER_SINK_WRITE,
            FaultTrigger::EveryNth { n: 1 },
            FaultMode::Error,
        );
        let eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        src.advance(2);
        let query = StreamingQuery::start_supervised(
            eng,
            Trigger::ProcessingTime(Duration::from_millis(1)),
            RestartPolicy::none(),
        )
        .unwrap();
        assert!(wait_for(|| query.exception().is_some()));
        let msg = query.exception().unwrap();
        assert!(!msg.contains("restarts"), "got: {msg}");
        assert_eq!(query.restarts(), 0);
        let _ = query.stop();
    }

    #[test]
    fn a_continuous_trigger_has_no_micro_batch_schedule() {
        let eng = engine(
            gen_source(),
            MemorySink::new("out"),
            Arc::new(MemoryBackend::new()),
            MicroBatchConfig::default(),
        );
        let err = StreamingQuery::start_supervised(
            eng,
            Trigger::Continuous(Duration::from_millis(1)),
            RestartPolicy::none(),
        )
        .err()
        .expect("a continuous trigger is rejected");
        assert!(err.to_string().contains("start_continuous"), "got: {err}");
    }

    #[test]
    fn manager_rejects_duplicate_names_and_snapshots_queries() {
        let manager = StreamingQueryManager::new();
        let src = gen_source();
        src.advance(8);
        let mk = |source: Arc<GeneratorSource>| {
            let eng = engine(
                source,
                MemorySink::new("out"),
                Arc::new(MemoryBackend::new()),
                MicroBatchConfig::default(),
            );
            StreamingQuery::new_sync(eng)
        };
        manager.add(mk(src)).unwrap();

        // A second registration under the same name must NOT silently
        // shadow the live handle — the original stays registered.
        let err = manager.add(mk(gen_source())).unwrap_err();
        assert!(
            err.to_string().contains("already active"),
            "got: {err}"
        );
        assert_eq!(manager.active(), vec!["q".to_string()]);

        // get_query hands back an owned snapshot of the live handle...
        manager
            .with_query("q", |q| q.process_available())
            .unwrap()
            .unwrap();
        let snap = manager.get_query("q").unwrap();
        assert_eq!(snap.name, "q");
        assert!(snap.epoch > 0);
        assert_eq!(snap.restarts, 0);
        assert_eq!(snap.exception, None);

        // ...and errors (not panics) for unknown names.
        let missing = manager.get_query("nope").unwrap_err();
        assert!(missing.to_string().contains("no active query"));
        manager.stop_all().unwrap();
    }
}
