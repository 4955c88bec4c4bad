//! The microbatch execution engine (§6.1–§6.2).
//!
//! Each trigger runs one **epoch** through the paper's protocol. Every
//! step is one function, named after the profile phase it is timed
//! under, and the steps are called in this order (`epoch.rs`). From
//! `log_offsets` to `commit_state` a step runs through one helper,
//! `phase`, that both opens the step's trace span and records its
//! profile phase, under the same name (`admit` and `finalize` are
//! timed around the `epoch` span):
//!
//! | §6.1 | function | profile phase | fail points fired, in order |
//! |---|---|---|---|
//! | 1: log offsets | `admit` | `admission` | the sources' own (`latest_offsets`, `earliest_offsets`) |
//! | | `log_offsets` | `wal` | `wal.offsets.append`, `microbatch.after_offset_write` |
//! | 2: execute | `read_sources` | `source-read` | `microbatch.source.read`, then the source's own (`bus.read`) |
//! | | `strip_poison` | `quarantine-probe` (isolation mode only) | `wal.commits.read` on replay; the live probe runs without fault injection |
//! | | `execute` | `execute` (+ `map` … `merge`) | the operators' and the scheduler's (`exec.record.eval`, `sched.*`) |
//! | 3: sink + commit | `commit_sink` | `sink-commit` | `microbatch.sink.commit`, `microbatch.after_sink_write`, `bus.dlq.write` |
//! | | `log_commit` | `wal` | `wal.commits.append`, `microbatch.after_commit_write` |
//! | 4: checkpoint | `commit_state` | `state-commit` | `state.checkpoint.write`, `microbatch.manifest.write` |
//! | — | `finalize` | `finalize` | none |
//!
//! An epoch writes two records and no others: its profile, which rides
//! on its [`QueryProgress`] into the one bounded history, and the
//! [`EventLog`]'s lifecycle events. The trace is derived from both (the
//! event log is built over it, so each event is also an instant).
//!
//! Two drivers call them. **Replay** recomputes a logged epoch's effect
//! on state and nothing else: read → strip → execute → advance the
//! watermark. **Commit** is replay's steps, then sink → log → state
//! (the checkpoint comes after the commit record, so every checkpoint
//! epoch is a committed epoch). A trigger is `admit` → `log_offsets` →
//! commit → `finalize`.
//!
//! **Three ways in, one take-over** (`recovery.rs`, §6.1 step 4).
//! Whoever comes to own a checkpoint — a fresh process
//! ([`MicroBatchExecution::new`]), an in-place
//! [`restart`](MicroBatchExecution::restart) or
//! [`rollback_to`](MicroBatchExecution::rollback_to), a standby's
//! [`promote`](MicroBatchExecution::promote) — runs the same
//! `take_over` from wherever its in-memory state stands: repair the
//! WAL, drop checkpoints past the commit line, `catch_up` (restore the
//! newest restorable state checkpoint once, then silently replay the
//! committed epochs after the engine's own epoch), and re-run the
//! epochs that were in flight through the commit driver, relying on
//! sink idempotence. A restart is a take-over by an engine reset to
//! epoch 0; a promotion is one by an engine that already caught up
//! read-only ([`standby_catch_up`](MicroBatchExecution::standby_catch_up)
//! is `catch_up` without ownership: it loads, never writes).
//!
//! **Adaptive batching** (§7.3): when the backlog exceeds the normal
//! batch size, epochs temporarily grow by `catchup_multiplier` so the
//! query catches up quickly, then return to small, low-latency epochs.
//!
//! **Manual rollback** (§7.2): [`MicroBatchExecution::rollback_to`]
//! truncates the WAL, the state checkpoints and (where supported) the
//! sink to an epoch chosen by the operator, then takes over from there.

mod config;
mod epoch;
mod quarantine;
mod recovery;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use ss_bus::{DeadLetterQueue, Sink, SinkMetrics, Source, SourceMetrics};
use ss_common::clock::ClockRef;
use ss_common::eventlog::{EVENT_CHECKPOINT_GC, EVENT_START, EVENT_TERMINATE};
use ss_common::{
    Counter, Deadline, EventLog, Histogram, MetricsRegistry, PartitionOffsets, Result, SchemaRef,
    SsError, TraceLog,
};
use ss_exec::executor::Catalog;
use ss_plan::{operator_signatures, plan_fingerprint, LogicalPlan, OperatorSignature, OutputMode};
use ss_state::{CheckpointBackend, ReplicatedBackend, StateStore};
use ss_wal::{FencedBackend, Manifest, WriteAheadLog, MANIFEST_VERSION};

use crate::admission::PidRateController;
use crate::incremental::{incrementalize, IncNode};
use crate::metrics::{ProgressHistory, QueryProgress, StreamingQueryListener};
use crate::parallel::{Exchange, TaskEnv};
use crate::upgrade::{self, StateMigration};
use crate::watermark::WatermarkTracker;

pub use config::{failpoints, MemoryBudget, MicroBatchConfig};

/// The result of one trigger firing.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Ran is the overwhelmingly common case
pub enum EpochRun {
    /// No new data and no pending timeouts.
    Idle,
    /// An epoch executed; progress attached.
    Ran(QueryProgress),
}

/// A running (or recoverable) microbatch query.
pub struct MicroBatchExecution {
    name: String,
    root: IncNode,
    output_schema: SchemaRef,
    sources: HashMap<String, Arc<dyn Source>>,
    statics: Arc<dyn Catalog + Send + Sync>,
    sink: Arc<dyn Sink>,
    output_mode: OutputMode,
    update_key_cols: Vec<usize>,
    wal: WriteAheadLog,
    store: StateStore,
    /// The backend every durable write goes through (`ha_backend`),
    /// kept for the manifest, which lives outside `wal/` and `state/`.
    backend: Arc<dyn CheckpointBackend>,
    /// The backend as given, which `rebuild_from_checkpoint` passes on.
    given_backend: Arc<dyn CheckpointBackend>,
    /// The mirror `ha_backend` built, for its counters.
    mirror: Option<Arc<ReplicatedBackend>>,
    /// Canonical signatures of this plan's stateful operators, recorded
    /// in every manifest write.
    signatures: Vec<OperatorSignature>,
    /// Canonical whole-plan fingerprint (informational).
    plan_fingerprint: String,
    /// `(fencing epoch, sealed)` of the manifest this run last wrote —
    /// the layout-bearing fields that can change within a run. `None`
    /// until its first checkpoint.
    manifest_written: Option<(Option<u64>, bool)>,
    /// State migrations owed to the checkpoint this engine resumed
    /// from, applied after every state restore. Empty when the plan is
    /// unchanged.
    migrations: Vec<StateMigration>,
    /// `ss_checkpoint_purged_total`: blobs/records removed by retention
    /// GC.
    purged_total: Counter,
    tracker: WatermarkTracker,
    /// Last epoch with offsets logged.
    epoch: u64,
    /// End offsets of the last defined epoch, per source.
    positions: HashMap<String, PartitionOffsets>,
    config: MicroBatchConfig,
    /// Every epoch that committed here, each with its profile: what
    /// `/queries` and `/query/<name>/profile` serve.
    progress: ProgressHistory,
    /// The query's metric registry (§7.4): operator, state, WAL, source
    /// and sink series all register here.
    registry: MetricsRegistry,
    /// The durability environment — fail points, retry policy, clock,
    /// interrupt flag — every durable step runs its I/O under.
    env: TaskEnv,
    /// Epoch-scoped trace spans, dumpable as chrome://tracing JSON; the
    /// event log mirrors its events into it as instants.
    trace: TraceLog,
    listeners: Vec<Arc<dyn StreamingQueryListener>>,
    source_metrics: HashMap<String, SourceMetrics>,
    sink_metrics: SinkMetrics,
    epoch_duration_us: Histogram,
    terminated: bool,
    /// Supervisor restarts survived so far (surfaced in progress).
    restarts: u64,
    /// PID admission controller (when configured).
    rate_controller: Option<PidRateController>,
    /// Duration of the previous non-idle epoch, for the scheduling
    /// delay of the next one (how late it starts vs. the trigger
    /// interval in the sequential trigger loop).
    last_epoch_duration_us: i64,
    /// The partition count the plan runs at and, above one, the worker
    /// pool its stages are scheduled on.
    exchange: Exchange,
    /// Structured lifecycle event log (start / progress / restart /
    /// spill / admission-limited / terminate / …), mirrored into the
    /// trace and optionally to the JSONL file named by `SS_EVENT_LOG`.
    events: EventLog,
    /// `ss_e2e_latency_us`: sink-commit wall time minus record ingest
    /// time, observed once each for the epoch's oldest and newest
    /// input record.
    e2e_latency_us: Histogram,
    /// The optimized logical plan, kept to build fresh single-row
    /// probe executors while isolation mode is active.
    optimized_plan: Arc<LogicalPlan>,
    /// Sticky isolation flag: set when a failure is classified as
    /// deterministic (by the supervisor's fingerprint tracker or a
    /// record-failure-shaped epoch error under an isolating policy).
    /// While set, every epoch probes its rows individually and strips
    /// the offenders. Survives in-place restarts by design.
    isolation: bool,
    /// The epoch watchdog; armed per epoch with
    /// [`MicroBatchConfig::epoch_deadline`] and shared with the fault
    /// registry so injected hangs break when it expires.
    watchdog: Deadline,
    /// Dead-letter queue: quarantined records with failure metadata,
    /// committed idempotently per epoch.
    dlq: Arc<DeadLetterQueue>,
    /// `ss_quarantined_records_total`.
    quarantined_total: Counter,
    /// `ss_deterministic_failures_total`.
    deterministic_failures: Counter,
    /// Progress of the last in-flight epoch a take-over re-ran. The
    /// isolation retry publishes it: that re-run *was* the trigger's
    /// epoch.
    last_inflight: Option<QueryProgress>,
    /// True for a warm standby: the engine tails the checkpoint
    /// read-only via [`MicroBatchExecution::standby_catch_up`] and
    /// refuses to run epochs until [`MicroBatchExecution::promote`].
    standby: bool,
    /// Whether a state checkpoint was already restored into the
    /// operator tree since the last reset (the restore happens once;
    /// later catch-up ticks replay the WAL).
    restored: bool,
}
impl MicroBatchExecution {
    /// Build the engine for an **analyzed and validated** plan, then
    /// take over any existing WAL/state in `backend`. When
    /// [`MicroBatchConfig::ha`] is set, the startup sequence also
    /// sweeps stale lease debris and **acquires the leadership lease**
    /// before recovery touches anything durable.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        plan: &Arc<LogicalPlan>,
        sources: HashMap<String, Arc<dyn Source>>,
        statics: Arc<dyn Catalog + Send + Sync>,
        sink: Arc<dyn Sink>,
        output_mode: OutputMode,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
    ) -> Result<MicroBatchExecution> {
        Self::build(
            name, plan, sources, statics, sink, output_mode, backend, config, false,
        )
    }

    /// Build a **warm standby** over the same (replicated) checkpoint:
    /// everything is set up like [`MicroBatchExecution::new`] except
    /// that the engine neither acquires the lease nor takes over —
    /// it stays read-only, tailing committed epochs via
    /// [`standby_catch_up`](Self::standby_catch_up) so its state is
    /// pre-loaded, and takes over within a bounded number of epochs via
    /// [`promote`](Self::promote) once the leader's lease lapses.
    /// Requires [`MicroBatchConfig::ha`].
    #[allow(clippy::too_many_arguments)]
    pub fn new_standby(
        name: impl Into<String>,
        plan: &Arc<LogicalPlan>,
        sources: HashMap<String, Arc<dyn Source>>,
        statics: Arc<dyn Catalog + Send + Sync>,
        sink: Arc<dyn Sink>,
        output_mode: OutputMode,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
    ) -> Result<MicroBatchExecution> {
        if config.ha.is_none() {
            return Err(SsError::Plan(
                "a standby query needs MicroBatchConfig::ha (a lease to watch)".into(),
            ));
        }
        Self::build(
            name, plan, sources, statics, sink, output_mode, backend, config, true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        name: impl Into<String>,
        plan: &Arc<LogicalPlan>,
        sources: HashMap<String, Arc<dyn Source>>,
        statics: Arc<dyn Catalog + Send + Sync>,
        sink: Arc<dyn Sink>,
        output_mode: OutputMode,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
        standby: bool,
    ) -> Result<MicroBatchExecution> {
        let analyzed = ss_plan::analyze(plan)?;
        ss_plan::validate_streaming(&analyzed, output_mode)?;
        let optimized = ss_plan::optimize(&analyzed)?;
        // Every streaming scan must have a bound source.
        for scan in optimized.streaming_scans() {
            if !sources.contains_key(&scan) {
                return Err(SsError::Plan(format!(
                    "no source bound for streaming scan `{scan}`"
                )));
            }
        }
        let mut counter = 0;
        let root = incrementalize(&optimized, &mut counter)?;
        let output_schema = root.schema();
        let update_key_cols = root.update_key_columns(&output_schema);
        let tracker = WatermarkTracker::new(&optimized.watermarks());
        // Upgrade safety: classify this plan against the checkpoint's
        // manifest *before* recovery touches anything durable. An
        // incompatible edit (changed grouping keys, window, join type)
        // fails here, leaving the checkpoint intact for the old query
        // or a rollback; a checkpoint without a manifest is the legacy
        // v0 layout and resumes unchecked, exactly as older builds did.
        let signatures = operator_signatures(&optimized)?;
        let plan_fp = plan_fingerprint(&optimized);
        let given_backend = backend;
        let (backend, mirror) = ha_backend(&given_backend, &config);
        let migrations = match Manifest::load_owned(&backend, "microbatch")? {
            Some(m) => upgrade::check_compatibility(&m.operators, &signatures)?,
            None => Vec::new(),
        };
        // The registry is created before the WAL/state store so even
        // recovery replays are captured in the metrics.
        let registry = MetricsRegistry::new();
        let trace = TraceLog::new();
        let mut wal = WriteAheadLog::new(backend.clone());
        wal.attach_metrics(&registry);
        wal.set_faults(config.faults.clone());
        let mut store = StateStore::new(backend.clone());
        store.attach_metrics(&registry);
        store.set_faults(config.faults.clone());
        store.set_budget(config.state_budget);
        registry.describe(
            "ss_retry_attempts_total",
            "Transient-failure re-attempts on the engine's durability paths.",
        );
        registry.describe(
            "ss_retries_exhausted_total",
            "Calls that still failed transiently after the retry policy ran out.",
        );
        let source_metrics: HashMap<String, SourceMetrics> = sources
            .keys()
            .map(|name| (name.clone(), SourceMetrics::new(&registry, name)))
            .collect();
        let sink_metrics = SinkMetrics::new(&registry, sink.name());
        registry.describe("ss_epoch_duration_us", "Wall-clock duration of each epoch.");
        registry.describe("ss_operator_rows_total", "Rows emitted per incremental operator.");
        registry.describe(
            "ss_operator_eval_us",
            "Inclusive per-operator evaluation time per epoch.",
        );
        registry.describe(
            "ss_scheduling_delay_us",
            "How late each epoch started versus the trigger interval.",
        );
        registry.describe(
            "ss_admitted_rows_total",
            "Rows admitted into epochs by the admission controller.",
        );
        registry.describe(
            "ss_admission_rate_limit",
            "Current admission rate limit (rows/second; -1 when uncapped).",
        );
        registry.describe(
            "ss_bus_shed_records",
            "Records shed by bounded bus topics feeding this query.",
        );
        registry.describe(
            "ss_checkpoint_purged_total",
            "Checkpoint blobs and WAL records removed by retention GC.",
        );
        registry.describe(
            "ss_phase_duration_us",
            "Wall time the epoch profiler attributes to each top-level phase.",
        );
        registry.describe(
            "ss_e2e_latency_us",
            "End-to-end event latency: sink-commit time minus source ingest time.",
        );
        registry.describe(
            "ss_trace_dropped_total",
            "Trace events dropped because the bounded trace buffer wrapped.",
        );
        registry.describe(
            "ss_quarantined_records_total",
            "Poison records diverted to the dead-letter queue (or dropped) \
             instead of failing the epoch.",
        );
        registry.describe(
            "ss_deterministic_failures_total",
            "Failures classified deterministic by fingerprint repetition.",
        );
        trace.attach_drop_counter(registry.counter("ss_trace_dropped_total", &[]));
        let purged_total = registry.counter("ss_checkpoint_purged_total", &[]);
        let epoch_duration_us = registry.histogram("ss_epoch_duration_us", &[]);
        let e2e_latency_us = registry.histogram("ss_e2e_latency_us", &[]);
        let events = EventLog::new(&trace);
        if let Some(path) = config::env_var::<PathBuf>("SS_EVENT_LOG") {
            // Best-effort: an unwritable path disables the file mirror
            // rather than failing the query (the in-memory buffer
            // still works).
            let _ = events.attach_file(&path);
        }
        let rate_controller = config.rate_controller.map(PidRateController::new);
        let env = TaskEnv::new(&config, &registry);
        let exchange = Exchange::for_plan(&root, &config, &env, &trace);
        // The watchdog is shared with the fault registry so injected
        // hangs release (as transient timeouts) when it expires. Both
        // run on the engine clock, so a simulated clock expires them
        // (and stalls through them) virtually.
        let watchdog = Deadline::with_clock(config.clock.clone());
        config.faults.set_clock(config.clock.clone());
        let dlq = config.dlq.clone().unwrap_or_default();
        config.faults.attach_deadline(&watchdog);
        if let Some(ha) = &config.ha {
            ha.lease.set_faults(config.faults.clone());
            ha.lease.attach_metrics(&registry);
        }
        if let Some(m) = &mirror {
            m.attach_metrics(&registry);
        }
        let quarantined_total = registry.counter("ss_quarantined_records_total", &[]);
        let deterministic_failures = registry.counter("ss_deterministic_failures_total", &[]);
        let mut engine = MicroBatchExecution {
            name: name.into(),
            root,
            output_schema,
            sources,
            statics,
            sink,
            output_mode,
            update_key_cols,
            wal,
            store,
            backend,
            given_backend,
            mirror,
            signatures,
            plan_fingerprint: plan_fp,
            manifest_written: None,
            migrations,
            purged_total,
            tracker,
            epoch: 0,
            positions: HashMap::new(),
            config,
            progress: ProgressHistory::default(),
            registry,
            env,
            trace,
            listeners: Vec::new(),
            source_metrics,
            sink_metrics,
            epoch_duration_us,
            terminated: false,
            restarts: 0,
            rate_controller,
            last_epoch_duration_us: 0,
            exchange,
            events,
            e2e_latency_us,
            optimized_plan: optimized,
            isolation: false,
            watchdog,
            dlq,
            quarantined_total,
            deterministic_failures,
            last_inflight: None,
            standby,
            restored: false,
        };
        if standby {
            // A standby never writes: no sweep, no lease acquisition,
            // no take-over (it repairs/truncates durable logs).
            engine.events.emit(
                &engine.name,
                EVENT_START,
                &[("engine", "microbatch".into()), ("role", "standby".into())],
            );
            return Ok(engine);
        }
        if let Some(ha) = engine.config.ha.clone() {
            // Startup hygiene first (orphaned `ha/` keys, torn lease),
            // then take leadership — the take-over below writes through
            // the fenced backend, so the lease must be held before it
            // runs.
            ha.lease.startup_sweep()?;
            ha.lease.try_acquire()?;
        }
        engine.take_over()?;
        engine.events.emit(
            &engine.name,
            EVENT_START,
            &[
                ("engine", "microbatch".into()),
                ("epoch", engine.epoch.into()),
            ],
        );
        Ok(engine)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine's retry-backoff interrupt flag
    /// ([`MicroBatchConfig::interrupt`]): raise it to make an in-flight
    /// durability retry give up within one backoff poll interval.
    /// `StreamingQuery::stop` raises it so stopping never waits out a
    /// long backoff.
    pub fn interrupt_handle(&self) -> Arc<std::sync::atomic::AtomicBool> {
        self.config.interrupt.clone()
    }

    /// The clock this engine observes time through
    /// ([`MicroBatchConfig::clock`]).
    pub fn clock(&self) -> ClockRef {
        self.config.clock.clone()
    }

    /// The checkpoint mirror built from [`HaConfig::replica`](crate::ha::HaConfig::replica).
    pub(crate) fn mirror(&self) -> Option<&ReplicatedBackend> {
        self.mirror.as_deref()
    }

    /// The schema of rows delivered to the sink.
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// Last epoch whose offsets are logged.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The event-time watermark currently in force.
    pub fn watermark_us(&self) -> i64 {
        self.tracker.current()
    }

    /// Progress history (§7.4): every epoch that committed here, each
    /// with its profile — including an in-flight epoch a take-over
    /// re-ran, which listeners are not told about.
    pub fn progress(&self) -> &ProgressHistory {
        &self.progress
    }

    /// Total keys across stateful operators.
    pub fn state_rows(&self) -> u64 {
        self.store.total_keys() as u64
    }

    /// The query's metric registry (§7.4). `render()` it for the
    /// Prometheus text exposition, `snapshot()` it for programmatic
    /// access.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The epoch trace-span log; dump with
    /// [`TraceLog::to_chrome_json`] and load in `chrome://tracing`.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The structured lifecycle event log (JSONL-renderable).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Register a listener; it receives `on_progress` after every
    /// non-idle epoch and `on_terminated` when the query stops.
    pub fn add_listener(&mut self, listener: Arc<dyn StreamingQueryListener>) {
        self.listeners.push(listener);
    }

    /// Fire `on_terminated` on every listener, once. Called by the
    /// query handle when the query stops or fails.
    pub fn notify_terminated(&mut self, error: Option<&str>) {
        if self.terminated {
            return;
        }
        self.terminated = true;
        self.events.emit(
            &self.name,
            EVENT_TERMINATE,
            &[("error", error.unwrap_or("none").into())],
        );
        for l in &self.listeners {
            l.on_terminated(&self.name, error);
        }
    }
    /// End offsets of the last defined epoch, per source — what a
    /// consumer tracking this query's progress (e.g. a retention
    /// trimmer) should consider consumed.
    pub fn positions(&self) -> &HashMap<String, PartitionOffsets> {
        &self.positions
    }

    /// Supervisor restarts survived so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    // ------------------------------------------------------------------
    // Checkpoint manifest & retention
    // ------------------------------------------------------------------

    /// Build the manifest describing the checkpoint as of the last
    /// defined epoch.
    fn manifest(&self, sealed: bool) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            query_name: self.name.clone(),
            engine: "microbatch".into(),
            last_epoch: self.epoch,
            sources: self
                .positions
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            watermark_us: self.tracker.current(),
            sealed,
            plan_fingerprint: self.plan_fingerprint.clone(),
            operators: self.signatures.clone(),
            state_partitions: Some(self.exchange.partitions() as u32),
            fencing_epoch: self.held_fencing_epoch(),
        }
    }

    /// Atomically (re)write the manifest, unless this run already wrote
    /// one with the same layout-bearing fields: recovery takes epoch,
    /// offsets and watermark from the WAL, so those three are only "as
    /// of the last manifest write" and do not force one per epoch.
    /// Deliberately **not** called at startup: until the first
    /// checkpoint of the current plan lands, the manifest must keep
    /// describing the previous plan's layout, or a
    /// crash-before-checkpoint would leave un-migrated state behind a
    /// manifest that claims the new layout.
    fn write_manifest(&mut self, sealed: bool) -> Result<()> {
        let layout = (self.held_fencing_epoch(), sealed);
        if self.manifest_written == Some(layout) {
            return Ok(());
        }
        let manifest = self.manifest(sealed);
        self.env.retried("manifest_write", || {
            self.env.faults.fire(failpoints::MANIFEST_WRITE)?;
            manifest.write(&self.backend)
        })?;
        self.manifest_written = Some(layout);
        Ok(())
    }

    /// Seal the manifest after a graceful drain: every defined epoch is
    /// committed and no in-flight work remains. Called by
    /// `StreamingQuery::stop_graceful`.
    pub fn seal_manifest(&mut self) -> Result<()> {
        if self.epoch == 0 {
            // Nothing was ever committed; an empty checkpoint needs no
            // manifest (and writing one would pin the plan's signatures
            // onto a directory that holds no state).
            return Ok(());
        }
        self.write_manifest(true)
    }

    /// Canonical signatures of this plan's stateful operators.
    pub fn operator_signatures(&self) -> &[OperatorSignature] {
        &self.signatures
    }

    /// Build a fresh engine over the **same checkpoint, sources and
    /// sink** but a new (edited) plan. The compatibility check and any
    /// state migrations run inside [`MicroBatchExecution::new`]; an
    /// incompatible edit errors before anything durable is touched.
    /// Used by `StreamingQuery::restart_from_checkpoint`.
    pub fn rebuild_from_checkpoint(
        &self,
        new_plan: &Arc<LogicalPlan>,
    ) -> Result<MicroBatchExecution> {
        MicroBatchExecution::new(
            self.name.clone(),
            new_plan,
            self.sources.clone(),
            self.statics.clone(),
            self.sink.clone(),
            self.output_mode,
            self.given_backend.clone(),
            self.config.clone(),
        )
    }

    /// Retention GC after a checkpoint at `epoch`: purge state
    /// generations below the horizon (snapped down to a full-snapshot
    /// boundary so every retained epoch stays restorable) and compact
    /// the WAL up to the new restore floor.
    fn maybe_gc(&mut self, epoch: u64) -> Result<()> {
        let Some(retain) = self.config.min_epochs_to_retain else {
            return Ok(());
        };
        let horizon = epoch.saturating_sub(retain);
        if horizon == 0 {
            return Ok(());
        }
        let mut purged = self.store.purge_before(horizon)?;
        if purged > 0 {
            if let Some(base) = self.store.earliest_full_epoch()? {
                purged += self.wal.compact_before(base)?;
            }
        }
        if purged > 0 {
            self.purged_total.add(purged as u64);
            self.events.emit(
                &self.name,
                EVENT_CHECKPOINT_GC,
                &[("purged", (purged as u64).into()), ("horizon", horizon.into())],
            );
        }
        Ok(())
    }
}

/// Under [`MicroBatchConfig::ha`], `backend` mirrored onto the replica
/// (if any), then fenced by the lease: no WAL, state or manifest
/// mutation skips the lease check. Also returns the mirror.
fn ha_backend(
    backend: &Arc<dyn CheckpointBackend>,
    config: &MicroBatchConfig,
) -> (Arc<dyn CheckpointBackend>, Option<Arc<ReplicatedBackend>>) {
    let Some(ha) = &config.ha else {
        return (backend.clone(), None);
    };
    let mirror = ha.replica.as_ref().map(|replica| {
        let mut mirror = ReplicatedBackend::new(backend.clone(), replica.clone());
        mirror.set_faults(config.faults.clone());
        Arc::new(mirror)
    });
    let inner = mirror.clone().map_or_else(|| backend.clone(), |m| m as _);
    (Arc::new(FencedBackend::new(inner, ha.lease.clone())), mirror)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RateControllerConfig;
    use ss_bus::{GeneratorSource, MemorySink};
    use ss_common::{row, DataType, Field, RetryPolicy, Schema, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star};
    use ss_plan::LogicalPlanBuilder;
    use ss_state::MemoryBackend;

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
        ])
    }

    fn gen_source(partitions: u32) -> Arc<GeneratorSource> {
        Arc::new(GeneratorSource::new(
            "events",
            schema(),
            partitions,
            Arc::new(|p, o| {
                let c = if (p as u64 + o).is_multiple_of(2) { "CA" } else { "US" };
                row![c, Value::Timestamp((o as i64) * 1_000_000)]
            }),
        ))
    }

    fn count_plan() -> Arc<LogicalPlan> {
        LogicalPlanBuilder::scan("events", schema(), true)
            .aggregate(vec![col("country")], vec![count_star()])
            .build()
    }

    /// A config whose registry fires `point` on every hit (matching the
    /// always-on semantics of the old `FailurePoint` enum).
    fn faulty_config(point: &str) -> MicroBatchConfig {
        use ss_common::fault::{FaultMode, FaultTrigger};
        let config = MicroBatchConfig::default();
        config
            .faults
            .configure(point, FaultTrigger::EveryNth { n: 1 }, FaultMode::Error);
        config
    }

    fn engine(
        source: Arc<GeneratorSource>,
        sink: Arc<MemorySink>,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
    ) -> MicroBatchExecution {
        let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
        sources.insert("events".into(), source);
        MicroBatchExecution::new(
            "q",
            &count_plan(),
            sources,
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Complete,
            backend,
            config,
        )
        .unwrap()
    }

    #[test]
    fn epochs_process_new_data_and_idle_otherwise() {
        let src = gen_source(2);
        let sink = MemorySink::new("out");
        let mut eng = engine(
            src.clone(),
            sink.clone(),
            Arc::new(MemoryBackend::new()),
            MicroBatchConfig::default(),
        );
        assert_eq!(eng.run_epoch().unwrap(), EpochRun::Idle);
        src.advance(3); // 3 per partition = 6 records
        match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => {
                assert_eq!(p.epoch, 1);
                assert_eq!(p.num_input_rows, 6);
            }
            EpochRun::Idle => panic!("expected an epoch"),
        }
        assert_eq!(sink.snapshot(), vec![row!["CA", 3i64], row!["US", 3i64]]);
        assert_eq!(eng.run_epoch().unwrap(), EpochRun::Idle);
    }

    #[test]
    fn batch_cap_and_adaptive_catchup() {
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            max_records_per_trigger: Some(10),
            adaptive_batching: true,
            catchup_multiplier: 4,
            ..Default::default()
        };
        let mut eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        // Small backlog: capped at 10.
        src.advance(5);
        if let EpochRun::Ran(p) = eng.run_epoch().unwrap() {
            assert_eq!(p.num_input_rows, 5);
        } else {
            panic!()
        }
        // Huge backlog: adaptive batching grows the epoch to 40.
        src.advance(100);
        if let EpochRun::Ran(p) = eng.run_epoch().unwrap() {
            assert_eq!(p.num_input_rows, 40);
            assert_eq!(p.backlog_rows, 60);
        } else {
            panic!()
        }
        // Draining processes everything.
        let epochs = eng.process_available().unwrap();
        assert!(epochs >= 2);
        assert_eq!(eng.progress().total_input_rows(), 105);
    }

    #[test]
    fn rate_controller_limits_admission_and_reports() {
        // A stepping clock: every reading advances 100ms, so each epoch
        // appears to take several hundred ms of processing time.
        let clock: ClockRef = ss_common::clock::StepClock::new(0, 100_000).handle();
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            rate_controller: Some(RateControllerConfig {
                min_rate: 1.0,
                batch_interval_us: 100_000,
            }),
            clock,
            ..Default::default()
        };
        let mut eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        // Epoch 1 seeds the controller (no limit in force yet).
        src.advance(50);
        let p1 = match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => p,
            EpochRun::Idle => panic!("expected an epoch"),
        };
        // No limit constrained admission yet; the record carries the
        // rate seeded from this epoch (now in force for the next one).
        assert_eq!(p1.admitted_rows, 50);
        assert_eq!(p1.scheduling_delay_us, 0);
        assert!(p1.rate_limit.is_some());
        // Epoch 2: the measured rate (50 rows over ~0.4s of fake time)
        // bounds admission to far less than the fresh 100-row backlog.
        src.advance(100);
        let p2 = match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => p,
            EpochRun::Idle => panic!("expected an epoch"),
        };
        let limit = p2.rate_limit.expect("controller seeded after one epoch");
        assert!(limit > 0.0);
        assert!(
            p2.admitted_rows < 100,
            "budget must hold rows back, admitted {}",
            p2.admitted_rows
        );
        assert_eq!(p2.backlog_rows, 100 - p2.admitted_rows);
        // The previous epoch overran the 100ms interval, so this one
        // started late.
        assert!(p2.scheduling_delay_us > 0);
        // Capped admission composes with draining: everything is
        // eventually processed exactly once.
        eng.process_available().unwrap();
        assert_eq!(eng.progress().total_input_rows(), 150);
        assert!(eng.metrics().render().contains("ss_admission_rate_limit"));
    }

    #[test]
    fn state_budget_spills_and_results_stay_correct() {
        use ss_common::MetricValue;
        use ss_state::MemoryBudget;

        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            // 1-byte soft limit: the aggregation state spills after
            // every checkpoint and transparently reloads next epoch.
            state_budget: MemoryBudget {
                soft_limit_bytes: Some(1),
                hard_limit_bytes: None,
            },
            ..Default::default()
        };
        let mut eng = engine(src.clone(), sink.clone(), Arc::new(MemoryBackend::new()), config);
        src.advance(4);
        eng.run_epoch().unwrap();
        src.advance(2);
        eng.run_epoch().unwrap();
        // Counts accumulated across the spill/reload cycle correctly.
        assert_eq!(sink.snapshot(), vec![row!["CA", 3i64], row!["US", 3i64]]);
        match eng.metrics().value("ss_state_spills_total", &[]) {
            Some(MetricValue::Counter(n)) => assert!(n >= 1, "expected spills, got {n}"),
            other => panic!("missing spill counter: {other:?}"),
        }
        let last = eng.progress().last().unwrap();
        assert!(last.spilled_bytes > 0, "progress must surface spill bytes");
    }

    #[test]
    fn hard_memory_limit_fails_epoch_before_commit() {
        use ss_state::MemoryBudget;

        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            state_budget: MemoryBudget {
                soft_limit_bytes: None,
                hard_limit_bytes: Some(16),
            },
            ..Default::default()
        };
        let mut eng = engine(src.clone(), sink.clone(), Arc::new(MemoryBackend::new()), config);
        src.advance(4);
        let err = eng.run_epoch().unwrap_err();
        assert_eq!(err.category(), "resource_exhausted");
        // The epoch aborted before the sink commit: nothing durable.
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn recovery_resumes_from_wal_and_checkpoint() {
        let src = gen_source(1);
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        {
            let mut eng = engine(
                src.clone(),
                sink.clone(),
                backend.clone(),
                MicroBatchConfig::default(),
            );
            src.advance(4);
            eng.process_available().unwrap();
        } // "crash": engine dropped
        src.advance(2);
        let mut eng2 = engine(src.clone(), sink.clone(), backend, MicroBatchConfig::default());
        assert_eq!(eng2.current_epoch(), 1);
        eng2.process_available().unwrap();
        // Counts continue from the restored state: 6 records total.
        assert_eq!(sink.snapshot(), vec![row!["CA", 3i64], row!["US", 3i64]]);
    }

    #[test]
    fn crash_between_sink_and_commit_is_exactly_once() {
        let src = gen_source(1);
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let config = faulty_config(failpoints::AFTER_SINK_WRITE);
        {
            let mut eng = engine(src.clone(), sink.clone(), backend.clone(), config);
            src.advance(4);
            // The sink got the data, the commit log write "crashed".
            assert!(eng.run_epoch().is_err());
        }
        // Restart without injection: the epoch re-runs; the sink's
        // idempotence leaves exactly one copy.
        let mut eng2 = engine(src.clone(), sink.clone(), backend, MicroBatchConfig::default());
        eng2.process_available().unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 2i64], row!["US", 2i64]]);
    }

    #[test]
    fn crash_after_offset_write_re_runs_same_offsets() {
        let src = gen_source(1);
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let config = faulty_config(failpoints::AFTER_OFFSET_WRITE);
        {
            let mut eng = engine(src.clone(), sink.clone(), backend.clone(), config);
            src.advance(4);
            assert!(eng.run_epoch().is_err());
        }
        // More data arrives before the restart; the in-flight epoch
        // must still cover exactly its logged range.
        src.advance(3);
        let mut eng2 = engine(src.clone(), sink.clone(), backend.clone(), MicroBatchConfig::default());
        eng2.process_available().unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 4i64], row!["US", 3i64]]);
        // The WAL shows epoch 1 with the pre-crash range (4 records).
        let wal = WriteAheadLog::new(backend);
        assert_eq!(
            wal.read_offsets(1).unwrap().unwrap().sources["events"].num_records(),
            4
        );
    }

    #[test]
    fn manual_rollback_recomputes_from_prefix() {
        let src = gen_source(1);
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let mut eng = engine(
            src.clone(),
            sink.clone(),
            backend,
            MicroBatchConfig::default(),
        );
        src.advance(2);
        eng.run_epoch().unwrap();
        src.advance(2);
        eng.run_epoch().unwrap();
        assert_eq!(eng.current_epoch(), 2);
        assert_eq!(sink.snapshot(), vec![row!["CA", 2i64], row!["US", 2i64]]);
        // Roll back to epoch 1 and reprocess.
        eng.rollback_to(1).unwrap();
        assert_eq!(eng.current_epoch(), 1);
        eng.process_available().unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 2i64], row!["US", 2i64]]);
    }

    #[test]
    fn zero_duration_epoch_keeps_rate_finite() {
        // A frozen clock makes `finished - started == 0`; the engine
        // must clamp the duration so rows/s never divides by zero.
        // Serial path only: parallel gather polls sleep on the clock,
        // which legitimately advances a StepClock past zero.
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            clock: ss_common::clock::StepClock::frozen(42).handle(),
            parallelism: 1,
            ..Default::default()
        };
        let mut eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        src.advance(5);
        match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => {
                assert_eq!(p.batch_duration_us, 1);
                assert!(p.input_rows_per_second.is_finite());
                assert!(p.input_rows_per_second > 0.0);
                // The summary renders without NaN/inf artifacts.
                assert!(!p.summary().contains("NaN"));
                assert!(!p.summary().contains("inf"));
            }
            EpochRun::Idle => panic!("expected an epoch"),
        }
    }

    #[test]
    fn epoch_produces_metrics_trace_and_listener_callbacks() {
        use parking_lot::Mutex;

        struct Collector {
            progress: Mutex<Vec<QueryProgress>>,
            terminated: Mutex<Vec<(String, Option<String>)>>,
        }
        impl StreamingQueryListener for Collector {
            fn on_progress(&self, p: &QueryProgress) {
                self.progress.lock().push(p.clone());
            }
            fn on_terminated(&self, name: &str, error: Option<&str>) {
                self.terminated
                    .lock()
                    .push((name.to_string(), error.map(str::to_string)));
            }
        }

        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let mut eng = engine(
            src.clone(),
            sink,
            Arc::new(MemoryBackend::new()),
            MicroBatchConfig::default(),
        );
        let collector = Arc::new(Collector {
            progress: Mutex::new(Vec::new()),
            terminated: Mutex::new(Vec::new()),
        });
        eng.add_listener(collector.clone());
        src.advance(4);
        eng.run_epoch().unwrap();
        src.advance(2);
        eng.run_epoch().unwrap();

        // One on_progress per epoch, each with per-operator durations.
        let progress = collector.progress.lock();
        assert_eq!(progress.len(), 2);
        for p in progress.iter() {
            assert!(!p.operator_durations.is_empty());
            assert!(p.operator_durations.iter().any(|d| d.op == "scan:events"));
            assert!(p.sink_commit_us >= 0);
        }
        drop(progress);

        // Registry holds operator, state, WAL, source and sink series.
        let text = eng.metrics().render();
        for series in [
            "ss_operator_rows_total",
            "ss_operator_eval_us",
            "ss_state_puts_total",
            "ss_wal_appends_total",
            "ss_source_rows_total",
            "ss_sink_commits_total",
            "ss_epoch_duration_us",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }

        // The trace has epoch spans and per-operator complete events.
        let events = eng.trace().events();
        assert!(events.iter().any(|e| e.name == "epoch" && e.ph == 'B'));
        assert!(events.iter().any(|e| e.name == "epoch" && e.ph == 'E'));
        assert!(events.iter().any(|e| e.name == "sink-commit"));
        assert!(events
            .iter()
            .any(|e| e.name == "op:scan:events" && e.ph == 'X'));

        // on_terminated fires exactly once, even if notified twice.
        eng.notify_terminated(None);
        eng.notify_terminated(Some("late"));
        let terminated = collector.terminated.lock();
        assert_eq!(terminated.len(), 1);
        assert_eq!(terminated[0], ("q".to_string(), None));
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        use ss_common::fault::{FaultMode, FaultTrigger};
        use ss_common::MetricValue;

        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            retry: RetryPolicy::immediate(4),
            ..Default::default()
        };
        let faults = config.faults.clone();
        // One transient sink flake, then success on the retry.
        faults.configure(
            failpoints::SINK_COMMIT,
            FaultTrigger::Once { skip: 0 },
            FaultMode::TransientError,
        );
        let mut eng = engine(src.clone(), sink.clone(), Arc::new(MemoryBackend::new()), config);
        src.advance(4);
        match eng.run_epoch().unwrap() {
            EpochRun::Ran(p) => assert_eq!(p.num_input_rows, 4),
            EpochRun::Idle => panic!("expected an epoch"),
        }
        assert_eq!(sink.snapshot(), vec![row!["CA", 2i64], row!["US", 2i64]]);
        assert_eq!(
            eng.metrics()
                .value("ss_retry_attempts_total", &[("op", "sink_commit")]),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            eng.metrics()
                .value("ss_retries_exhausted_total", &[("op", "sink_commit")]),
            None,
            "retry succeeded, nothing exhausted"
        );
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use ss_common::fault::{FaultMode, FaultTrigger};
        use ss_common::MetricValue;

        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            retry: RetryPolicy::immediate(3),
            ..Default::default()
        };
        let faults = config.faults.clone();
        faults.configure(
            failpoints::SOURCE_READ,
            FaultTrigger::EveryNth { n: 1 },
            FaultMode::TransientError,
        );
        let mut eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        src.advance(2);
        let err = eng.run_epoch().unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(
            eng.metrics()
                .value("ss_retries_exhausted_total", &[("op", "source_read")]),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(faults.hits(failpoints::SOURCE_READ), 3, "3 attempts");
    }

    #[test]
    fn restart_reruns_recovery_in_place_and_counts() {
        let src = gen_source(1);
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let config = faulty_config(failpoints::AFTER_SINK_WRITE);
        let faults = config.faults.clone();
        let mut eng = engine(src.clone(), sink.clone(), backend, config);
        src.advance(4);
        assert!(eng.run_epoch().is_err());
        // Clear the fault and restart the same engine instance — what
        // the supervisor does instead of rebuilding the process.
        faults.clear();
        eng.restart().unwrap();
        assert_eq!(eng.restarts(), 1);
        // Recovery already re-ran the in-flight epoch; fresh data after
        // the restart produces a progress record carrying the counter.
        assert_eq!(sink.snapshot(), vec![row!["CA", 2i64], row!["US", 2i64]]);
        src.advance(2);
        eng.process_available().unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 3i64], row!["US", 3i64]]);
        match eng.progress().last() {
            Some(p) => assert_eq!(p.restarts, 1),
            None => panic!("expected progress after restart"),
        }
    }

    #[test]
    fn the_epoch_a_restart_re_runs_joins_the_history_but_is_not_published() {
        struct Epochs(parking_lot::Mutex<Vec<u64>>);
        impl StreamingQueryListener for Epochs {
            fn on_progress(&self, p: &QueryProgress) {
                self.0.lock().push(p.epoch);
            }
        }
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = faulty_config(failpoints::AFTER_SINK_WRITE);
        let faults = config.faults.clone();
        let mut eng = engine(src.clone(), sink, Arc::new(MemoryBackend::new()), config);
        let listener = Arc::new(Epochs(parking_lot::Mutex::new(Vec::new())));
        eng.add_listener(listener.clone());
        src.advance(4);
        assert!(eng.run_epoch().is_err());
        faults.clear();
        eng.restart().unwrap();
        src.advance(2);
        eng.process_available().unwrap();
        // The re-run epoch 1 committed here: it is in the one history,
        // with its profile, and counts toward the totals.
        let history: Vec<(u64, Option<u64>)> = eng
            .progress()
            .all()
            .map(|p| (p.epoch, p.profile.as_ref().map(|pr| pr.epoch)))
            .collect();
        assert_eq!(history, vec![(1, Some(1)), (2, Some(2))]);
        assert_eq!(eng.progress().total_input_rows(), 6);
        // Listeners and progress events see only the triggered epoch.
        assert_eq!(*listener.0.lock(), vec![2]);
        let published = eng.events().events().into_iter().filter(|e| e.kind == "progress");
        assert_eq!(published.count(), 1);
    }

    #[test]
    fn corrupt_committed_wal_record_fails_engine_construction() {
        let src = gen_source(1);
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        {
            let mut eng = engine(
                src.clone(),
                sink.clone(),
                backend.clone(),
                MicroBatchConfig::default(),
            );
            src.advance(4);
            eng.process_available().unwrap();
            src.advance(2);
            eng.process_available().unwrap();
        }
        // Corrupt the *first* (committed) offsets record on disk.
        let key = "wal/offsets/epoch-00000000000000000001.json";
        backend.write_atomic(key, b"garbage").unwrap();
        let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
        sources.insert("events".into(), src);
        let err = MicroBatchExecution::new(
            "q",
            &count_plan(),
            sources,
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Complete,
            backend,
            MicroBatchConfig::default(),
        )
        .err()
        .expect("corrupt committed record must fail recovery");
        assert_eq!(err.category(), "corruption");
    }

    #[test]
    fn missing_source_binding_is_rejected() {
        let sink = MemorySink::new("out");
        let r = MicroBatchExecution::new(
            "q",
            &count_plan(),
            HashMap::new(),
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Complete,
            Arc::new(MemoryBackend::new()),
            MicroBatchConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn invalid_output_mode_rejected_at_start() {
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
        sources.insert("events".into(), src);
        let r = MicroBatchExecution::new(
            "q",
            &count_plan(),
            sources,
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Append, // count-by-country can't append (§4.2)
            Arc::new(MemoryBackend::new()),
            MicroBatchConfig::default(),
        );
        assert!(r.is_err());
    }
}
