//! The microbatch execution engine (§6.1–§6.2).
//!
//! Each trigger executes one **epoch** through the paper's protocol:
//!
//! 1. the master snapshots every source's latest offsets, caps them by
//!    the (adaptive) batch size, and writes the epoch's offset ranges
//!    durably to the WAL *before* execution (§6.1 step 1);
//! 2. the incremental plan runs over exactly that offset range;
//! 3. the sink receives the epoch's output (append / update / complete
//!    per the output mode) and the commit is recorded in the WAL
//!    (§6.1 step 3);
//! 4. operator state is checkpointed to the state store, tagged with
//!    the epoch (§6.1 step 2 — after the commit, so every checkpoint
//!    epoch is a committed epoch).
//!
//! **Recovery** (§6.1 step 4): restore the newest state checkpoint at
//! or below the last committed epoch, re-execute any newer committed
//! epochs with output disabled (the WAL has their exact offsets; the
//! sources are replayable), then re-run the epochs that were in flight
//! at the failure, relying on sink idempotence.
//!
//! **Adaptive batching** (§7.3): when the backlog exceeds the normal
//! batch size, epochs temporarily grow by `catchup_multiplier` so the
//! query catches up quickly, then return to small, low-latency epochs.
//!
//! **Manual rollback** (§7.2): [`MicroBatchExecution::rollback_to`]
//! truncates the WAL, the state checkpoints and (where supported) the
//! sink to an epoch chosen by the operator, then recovers from there.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_bus::json::row_to_json;
use ss_bus::{
    DeadLetterQueue, DeadLetterRecord, EpochOutput, Sink, SinkMetrics, Source, SourceMetrics,
};
use ss_common::eventlog::{
    EVENT_ADMISSION_LIMITED, EVENT_FAILOVER, EVENT_PROGRESS, EVENT_QUARANTINE, EVENT_RESTART,
    EVENT_SPILL, EVENT_START, EVENT_TERMINATE, EVENT_WATCHDOG,
};
use ss_common::isolate::panic_message;
use ss_common::profile::{
    PHASE_ADMISSION, PHASE_EXECUTE, PHASE_FINALIZE, PHASE_SINK_COMMIT, PHASE_SOURCE_READ,
    PHASE_STATE_COMMIT, PHASE_WAL,
};
use ss_common::clock::{system_clock, ClockRef};
use ss_common::time::now_us;
use ss_common::{
    failure_fingerprint, Counter, Deadline, EpochProfile, EpochProfiler, ErrorPolicy, EventLog,
    FaultRegistry, Histogram, MetricsRegistry, PartitionOffsets, RecordBatch, Result, RetryPolicy,
    SchemaRef, SsError, TraceLog,
};
use ss_exec::executor::Catalog;
use ss_plan::{operator_signatures, plan_fingerprint, LogicalPlan, OperatorSignature, OutputMode};
use ss_state::{CheckpointBackend, MemoryBackend, StateStore};
use ss_wal::{
    EpochCommit, EpochOffsets, HaRole, Manifest, OffsetRange, WriteAheadLog, MANIFEST_VERSION,
};

use crate::ha::HaConfig;

use crate::admission::{apportion, PidRateController, RateControllerConfig};
use crate::incremental::{incrementalize, EpochContext, IncNode, OpStat, OpStatsCollector};
use crate::metrics::{OpDuration, ProgressHistory, QueryProgress, StreamingQueryListener};
use crate::parallel::{repartition_family, state_families, Exchange, ExchangeStats};
use crate::upgrade::{self, StateMigration};
use crate::watermark::WatermarkTracker;

pub use ss_state::MemoryBudget;

/// A processing-time clock, injectable for deterministic tests.
///
/// Historically this was a bare `Arc<dyn Fn() -> i64>` private to the
/// engine; it is now the workspace-wide [`ss_common::clock::Clock`]
/// trait, so one injected clock drives processing-time stamps, retry
/// backoff, watchdog deadlines and fault stalls coherently (see
/// [`ss_common::clock::SimClock`] for fully virtual time and
/// [`ss_common::clock::StepClock`] for stepping/frozen test clocks).
pub type Clock = ClockRef;

/// Quarantined `(partition, offset)` pairs per source — the shape
/// recorded in an epoch's WAL commit so replay can strip poison rows
/// without re-probing.
type QuarantinedOffsets = BTreeMap<String, Vec<(u32, u64)>>;

/// Engine-level fail points, fired between the steps of the epoch
/// protocol. The layers below expose their own (see
/// `ss_wal::failpoints`, `ss_state::store::failpoints`,
/// `ss_state::backend::failpoints`, `ss_bus::source::failpoints`); all
/// fire through the [`FaultRegistry`] in [`MicroBatchConfig::faults`].
pub mod failpoints {
    /// Crash after the offset log write, before execution.
    pub const AFTER_OFFSET_WRITE: &str = "microbatch.after_offset_write";
    /// Crash after the sink accepted the epoch, before the commit log
    /// write.
    pub const AFTER_SINK_WRITE: &str = "microbatch.after_sink_write";
    /// Crash after the commit log write, before the state checkpoint.
    pub const AFTER_COMMIT_WRITE: &str = "microbatch.after_commit_write";
    /// Before reading an epoch's range from a source (fires regardless
    /// of the source implementation; retried under the engine policy).
    pub const SOURCE_READ: &str = "microbatch.source.read";
    /// Before handing an epoch's output to the sink (retried under the
    /// engine policy; sinks are idempotent per epoch).
    pub const SINK_COMMIT: &str = "microbatch.sink.commit";
    /// Before (re)writing the checkpoint manifest (retried under the
    /// engine policy; the write is atomic, so a failure leaves the
    /// previous manifest in place).
    pub const MANIFEST_WRITE: &str = "microbatch.manifest.write";
}

/// Engine tuning knobs.
#[derive(Clone)]
pub struct MicroBatchConfig {
    /// Target records per epoch across all sources (`None` =
    /// unbounded: every trigger drains the full backlog).
    pub max_records_per_trigger: Option<u64>,
    /// Grow epochs while backlogged (§7.3 adaptive batching).
    pub adaptive_batching: bool,
    /// Maximum growth factor during catch-up.
    pub catchup_multiplier: u64,
    /// Checkpoint operator state every N committed epochs.
    pub checkpoint_interval: u64,
    /// Progress records to retain (§7.4).
    pub progress_history: usize,
    /// Fail-point registry shared with the WAL, state store and (when
    /// wired by the caller) sources/backends. Empty by default.
    pub faults: FaultRegistry,
    /// Retry policy for transient failures on the durability paths
    /// (source read, sink commit, WAL append, checkpoint write).
    pub retry: RetryPolicy,
    /// Processing-time clock. Also drives retry backoff, the epoch
    /// watchdog, per-task deadlines and injected fault stalls, so a
    /// virtual clock ([`ss_common::clock::SimClock`]) makes the whole
    /// engine's sense of time simulated.
    pub clock: Clock,
    /// Cooperative interrupt for retry backoff: while a durability
    /// retry (source read, sink commit, WAL append, checkpoint write)
    /// is sleeping out its backoff, raising this flag aborts the sleep
    /// within one poll interval ([`ss_common::retry::BACKOFF_POLL`])
    /// and fails the attempt with its transient error. `stop()` on a
    /// background query raises it, so stopping never waits out a long
    /// backoff. Clones of this config share the flag.
    pub interrupt: Arc<std::sync::atomic::AtomicBool>,
    /// PID-based admission control (`None` = disabled): each epoch's
    /// row budget is steered toward the measured processing rate, with
    /// scheduling delay drained via the integral term. Composes with
    /// `max_records_per_trigger` (the hard cap still applies) and with
    /// WAL recovery (budgets only shape *new* epochs; logged offsets
    /// replay exactly).
    pub rate_controller: Option<RateControllerConfig>,
    /// Memory budget for the state store: soft limit spills cold
    /// operators to the checkpoint backend, hard limit fails the epoch
    /// with `ResourceExhausted` instead of OOMing.
    pub state_budget: MemoryBudget,
    /// Checkpoint retention (`None` = keep everything): after each
    /// checkpoint, purge state-checkpoint generations and compact the
    /// WAL so at least the last N epochs stay individually rollback-able
    /// (the actual horizon snaps down to a full-snapshot boundary).
    pub min_epochs_to_retain: Option<u64>,
    /// Worker threads for partitioned epoch execution. `1` (the
    /// default) runs every epoch at one partition: the exchange is the
    /// identity and operators run inline on the engine thread. `> 1`
    /// runs stateful operators (and stateless roots) as map / shuffle /
    /// reduce stages over `shuffle_partitions` partitions on a worker
    /// pool; plans that are not chunk-safe stay at one partition.
    /// Output is byte-identical at every setting. Defaults to
    /// `SS_PARALLELISM` when set.
    pub parallelism: usize,
    /// Partitions (= state shards per stateful operator) when
    /// `parallelism > 1`. `0` (the default) follows `parallelism`.
    /// The checkpoint manifest records the effective count;
    /// restarting with a different one repartitions restored state by
    /// shuffle hash.
    pub shuffle_partitions: usize,
    /// What to do with records that deterministically fail evaluation
    /// once isolation mode is active: fail the query (the default),
    /// quarantine them to the dead-letter queue, or drop them.
    /// Quarantined offsets are recorded in the epoch's commit record,
    /// so crash/replay reproduces the committed output byte for byte.
    pub error_policy: ErrorPolicy,
    /// Epoch watchdog: a hard wall-clock deadline per epoch. A wedged
    /// epoch (stuck source, hung task, runaway operator) fails
    /// restartably with [`SsError::Timeout`] instead of hanging the
    /// query forever. Defaults to `SS_EPOCH_DEADLINE_MS` when set.
    pub epoch_deadline: Option<Duration>,
    /// Soft per-task deadline for parallel execution: overrunning
    /// tasks are counted (`ss_task_deadline_exceeded_total`) and
    /// traced as stragglers, but keep running.
    pub task_soft_deadline: Option<Duration>,
    /// Hard per-task deadline for parallel execution: the pool
    /// abandons the stuck worker, replenishes itself and fails the
    /// stage with a transient [`SsError::Timeout`].
    pub task_hard_deadline: Option<Duration>,
    /// Dead-letter queue for quarantined records. `None` (the default)
    /// gives the engine a private queue that dies with it; pass a
    /// shared handle to model a durable DLQ topic that survives
    /// process restarts (the per-epoch commit is insert-replace, so
    /// re-running an in-flight epoch after a crash rewrites the same
    /// letters instead of duplicating them).
    pub dlq: Option<Arc<DeadLetterQueue>>,
    /// High availability (`None` = disabled): a leadership lease with
    /// fencing epochs, plus (optionally) a handle to the replicated
    /// checkpoint backend for replication-lag introspection. When set,
    /// the engine acquires the lease at startup, renews it at phase
    /// boundaries alongside the watchdog, stamps every WAL commit and
    /// manifest with the held fencing epoch, and fences sink/DLQ
    /// commits explicitly. Compose the checkpoint `backend` out of
    /// `ss_wal::FencedBackend` over `ss_state::ReplicatedBackend` to
    /// fence and mirror the WAL/state/manifest writes too.
    pub ha: Option<HaConfig>,
}

impl Default for MicroBatchConfig {
    fn default() -> Self {
        MicroBatchConfig {
            max_records_per_trigger: None,
            adaptive_batching: true,
            catchup_multiplier: 8,
            checkpoint_interval: 1,
            progress_history: 128,
            faults: FaultRegistry::new(),
            retry: RetryPolicy::default(),
            clock: system_clock(),
            interrupt: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            rate_controller: None,
            state_budget: MemoryBudget::default(),
            min_epochs_to_retain: None,
            parallelism: std::env::var("SS_PARALLELISM")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1),
            shuffle_partitions: 0,
            error_policy: ErrorPolicy::default(),
            epoch_deadline: std::env::var("SS_EPOCH_DEADLINE_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            task_soft_deadline: None,
            task_hard_deadline: None,
            dlq: None,
            ha: None,
        }
    }
}

/// Run `op` under `policy`, recording retry activity in the query's
/// metric registry (`ss_retry_attempts_total` counts re-attempts,
/// `ss_retries_exhausted_total` counts calls that failed transiently
/// after using up the policy, `ss_retry_interrupted_total` counts
/// backoffs cut short by the engine's interrupt flag). Backoff sleeps
/// run on `clock` and abort within one poll interval once `interrupt`
/// is raised (`stop()` on a background query raises it).
pub(crate) fn retried<T>(
    policy: &RetryPolicy,
    clock: &ClockRef,
    interrupt: &Arc<std::sync::atomic::AtomicBool>,
    registry: &MetricsRegistry,
    op: &str,
    f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let interrupted = || interrupt.load(std::sync::atomic::Ordering::SeqCst);
    let out = ss_common::retry::retry_with(policy, clock.as_ref(), &interrupted, f);
    if out.retries > 0 {
        registry
            .counter("ss_retry_attempts_total", &[("op", op)])
            .add(u64::from(out.retries));
    }
    if out.exhausted {
        registry
            .counter("ss_retries_exhausted_total", &[("op", op)])
            .inc();
    }
    if out.interrupted {
        registry
            .counter("ss_retry_interrupted_total", &[("op", op)])
            .inc();
    }
    out.result
}

/// The result of one trigger firing.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Ran is the overwhelmingly common case
pub enum EpochRun {
    /// No new data and no pending timeouts.
    Idle,
    /// An epoch executed; progress attached.
    Ran(QueryProgress),
}

/// What one call to `execute_epoch_offsets` produced (internal).
struct EpochExecution {
    out_rows: u64,
    ops: Vec<OpStat>,
    sink_commit_us: i64,
    /// Tasks the exchange scheduled this epoch (0 at one partition).
    tasks_launched: u64,
    /// Slowest task's wall-clock duration (µs; 0 at one partition).
    max_task_duration_us: u64,
    /// Poison records diverted (or dropped) by isolation mode.
    quarantined: u64,
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
    /// The checkpoint backend, kept for the manifest (which lives at
    /// the backend root, outside the `wal/` and `state/` prefixes) and
    /// for rebuilding the engine on `restart_from_checkpoint`.
    backend: Arc<dyn CheckpointBackend>,
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
    progress: ProgressHistory,
    /// The query's metric registry (§7.4): operator, state, WAL, source
    /// and sink series all register here.
    registry: MetricsRegistry,
    /// Epoch-scoped trace spans, dumpable as chrome://tracing JSON.
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
    /// Bounded history of per-epoch phase-tree profiles, served by the
    /// introspection server's `/query/<name>/profile` endpoint.
    profiler: EpochProfiler,
    /// Structured lifecycle event log (start / progress / restart /
    /// spill / admission-limited / terminate), optionally mirrored to
    /// the JSONL file named by `SS_EVENT_LOG`.
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
    /// The last in-flight epoch recovery re-ran with output enabled:
    /// `(epoch, input_rows, execution)`. Consumed by the isolation
    /// retry path to synthesize the epoch's progress record.
    last_inflight: Option<(u64, u64, EpochExecution)>,
    /// True for a warm standby: the engine tails the checkpoint
    /// read-only via [`MicroBatchExecution::standby_catch_up`] and
    /// refuses to run epochs until [`MicroBatchExecution::promote`].
    standby: bool,
    /// Whether the standby already restored a state checkpoint (the
    /// restore happens once; later catch-up ticks replay the WAL).
    standby_restored: bool,
}

impl MicroBatchExecution {
    /// Build the engine for an **analyzed and validated** plan, then
    /// recover from any existing WAL/state in `backend`. When
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
    /// that the engine neither acquires the lease nor runs recovery —
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
        let migrations = match Manifest::load(&backend)? {
            Some(m) if m.engine != "microbatch" => {
                return Err(SsError::IncompatibleUpgrade(format!(
                    "checkpoint was written by the `{}` engine; its state layout is \
                     not readable by the microbatch engine",
                    m.engine
                )));
            }
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
        let events = EventLog::new();
        if let Ok(path) = std::env::var("SS_EVENT_LOG") {
            if !path.is_empty() {
                // Best-effort: an unwritable path disables the file
                // mirror rather than failing the query (the in-memory
                // buffer still works).
                let _ = events.attach_file(std::path::Path::new(&path));
            }
        }
        let progress = ProgressHistory::new(config.progress_history);
        let rate_controller = config.rate_controller.map(PidRateController::new);
        let exchange = Exchange::for_plan(&root, &config, &registry, &trace);
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
            if let Some(r) = &ha.replication {
                r.attach_metrics(&registry);
            }
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
            signatures,
            plan_fingerprint: plan_fp,
            manifest_written: None,
            migrations,
            purged_total,
            tracker,
            epoch: 0,
            positions: HashMap::new(),
            config,
            progress,
            registry,
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
            profiler: EpochProfiler::default(),
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
            standby_restored: false,
        };
        if standby {
            // A standby never writes: no sweep, no lease acquisition,
            // no recovery (recovery repairs/truncates durable logs).
            engine.events.emit(
                &engine.name,
                EVENT_START,
                &[("engine", "microbatch"), ("role", "standby")],
            );
            return Ok(engine);
        }
        if let Some(ha) = engine.config.ha.clone() {
            // Startup hygiene first (orphaned `ha/` keys, torn lease),
            // then take leadership — recovery below writes through the
            // fenced backend, so the lease must be held before it runs.
            ha.lease.startup_sweep()?;
            ha.lease.try_acquire()?;
        }
        engine.recover()?;
        engine.events.emit(
            &engine.name,
            EVENT_START,
            &[
                ("engine", "microbatch"),
                ("epoch", &engine.epoch.to_string()),
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

    /// Progress history (§7.4).
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

    /// The epoch profiler: bounded history of per-epoch phase-tree
    /// wall-time breakdowns with task-skew and shuffle attribution.
    pub fn profiler(&self) -> &EpochProfiler {
        &self.profiler
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
        self.trace.instant(
            "terminated",
            &[("error", error.unwrap_or("none"))],
        );
        self.events.emit(
            &self.name,
            EVENT_TERMINATE,
            &[("error", error.unwrap_or("none"))],
        );
        for l in &self.listeners {
            l.on_terminated(&self.name, error);
        }
    }

    // ------------------------------------------------------------------
    // The epoch protocol
    // ------------------------------------------------------------------

    /// Execute one trigger (§6.1). Returns [`EpochRun::Idle`] when
    /// there is nothing to do.
    ///
    /// The epoch runs under the watchdog deadline
    /// ([`MicroBatchConfig::epoch_deadline`]): a wedged epoch fails
    /// restartably with [`SsError::Timeout`]. On a record-shaped
    /// failure under an isolating [`ErrorPolicy`], the engine flips
    /// into isolation mode and re-runs the epoch once with per-record
    /// probing, quarantining the offenders instead of failing.
    pub fn run_epoch(&mut self) -> Result<EpochRun> {
        if self.standby {
            return Err(SsError::Execution(format!(
                "query `{}` is a warm standby; promote it before running epochs",
                self.name
            )));
        }
        self.last_inflight = None;
        self.watchdog.arm(self.config.epoch_deadline);
        let result = self.run_epoch_inner();
        let expired = self.watchdog.expired();
        self.watchdog.disarm();
        let err = match result {
            Ok(run) => return Ok(run),
            Err(err) => err,
        };
        // Release workers parked on injected hangs: the epoch already
        // failed, nobody will collect their results.
        self.config.faults.cancel_hangs();
        if expired {
            self.trace.instant("watchdog", &[("error", &err.to_string())]);
            self.events.emit(
                &self.name,
                EVENT_WATCHDOG,
                &[
                    ("epoch", &self.epoch.to_string()),
                    ("error", &err.to_string()),
                ],
            );
        }
        if self.config.error_policy.isolates() && !self.isolation && is_record_failure(&err) {
            // First record-shaped failure under an isolating policy:
            // enter isolation and re-run the epoch with probing. The
            // failed epoch's offsets are already in the WAL, so
            // recovery re-runs it in-flight — now stripping poison.
            self.enter_isolation(&err);
            self.reset_and_recover()?;
            if let Some((epoch, in_rows, exec)) = self.last_inflight.take() {
                let progress = self.synthesize_progress(epoch, in_rows, exec);
                self.progress.push(progress.clone());
                self.events.emit(
                    &self.name,
                    EVENT_PROGRESS,
                    &[
                        ("epoch", &epoch.to_string()),
                        ("rows_in", &progress.num_input_rows.to_string()),
                        ("rows_out", &progress.num_output_rows.to_string()),
                        ("quarantined", &progress.quarantined_records.to_string()),
                    ],
                );
                for l in &self.listeners {
                    l.on_progress(&progress);
                }
                return Ok(EpochRun::Ran(progress));
            }
            // The failure predated the offset write; nothing ran.
            return Ok(EpochRun::Idle);
        }
        Err(err)
    }

    fn run_epoch_inner(&mut self) -> Result<EpochRun> {
        let started = self.config.clock.wall_us();
        // Wall-clock phase attribution runs on the monotonic clock, so
        // profiles stay meaningful even under a frozen test clock.
        let epoch_wall = Instant::now();
        // In the sequential trigger loop, this epoch starts late by
        // however much the previous one overran the trigger interval.
        let interval_us = self
            .rate_controller
            .as_ref()
            .map(|rc| rc.config().batch_interval_us as i64)
            .unwrap_or(0);
        let scheduling_delay_us = if interval_us > 0 {
            (self.last_epoch_duration_us - interval_us).max(0) as u64
        } else {
            0
        };

        // Step 1 (admission): measure each source's backlog, derive the
        // epoch's total row budget — the batch cap (with adaptive
        // catch-up) further bounded by the PID rate controller — and
        // apportion it across sources proportionally to backlog.
        let mut latests: std::collections::BTreeMap<String, PartitionOffsets> =
            std::collections::BTreeMap::new();
        let mut starts: std::collections::BTreeMap<String, PartitionOffsets> =
            std::collections::BTreeMap::new();
        let mut backlogs: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for (name, source) in &self.sources {
            let latest = source.latest_offsets()?;
            let earliest = source.earliest_offsets()?;
            let pos = self
                .positions
                .entry(name.clone())
                .or_insert_with(|| latest.keys().map(|&p| (p, 0)).collect());
            // A bounded topic with a DropOldest policy may have shed
            // records this query never read. Skip forward to the
            // retention horizon: the data is gone by declared policy,
            // and the clamped position is what gets logged to the WAL,
            // so recovery replays a range that still exists.
            for (&p, &e) in &earliest {
                let slot = pos.entry(p).or_insert(0);
                if *slot < e {
                    *slot = e;
                }
            }
            let start = pos.clone();
            let backlog: u64 = latest
                .iter()
                .map(|(p, e)| e.saturating_sub(*start.get(p).unwrap_or(&0)))
                .sum();
            latests.insert(name.clone(), latest);
            starts.insert(name.clone(), start);
            backlogs.insert(name.clone(), backlog);
        }
        let total_backlog: u64 = backlogs.values().sum();
        let mut admit = self.effective_cap(total_backlog);
        let mut rate_limit = None;
        if let Some(rc) = &self.rate_controller {
            if let (Some(rate), Some(budget)) = (rc.rate(), rc.budget_rows()) {
                admit = admit.min(budget);
                rate_limit = Some(rate);
            }
        }
        let shares = apportion(admit, &backlogs);

        let mut ranges: std::collections::BTreeMap<String, OffsetRange> =
            std::collections::BTreeMap::new();
        let mut new_records: u64 = 0;
        let mut backlog_after: u64 = 0;
        for (name, start) in starts {
            let latest = &latests[&name];
            let backlog = backlogs[&name];
            let take = shares.get(&name).copied().unwrap_or(0);
            let mut end = PartitionOffsets::new();
            if take >= backlog {
                // Uncapped: take everything available.
                end = latest.clone();
            } else {
                // Spread the source's share across partitions, giving
                // each of the remaining partitions a proportional cut.
                let mut remaining = take;
                let n_parts = latest.len() as u64;
                for (i, (&p, &lat)) in latest.iter().enumerate() {
                    let s = *start.get(&p).unwrap_or(&0);
                    let avail = lat.saturating_sub(s);
                    let parts_left = n_parts - i as u64;
                    let share = remaining.div_ceil(parts_left);
                    let n = avail.min(share).min(remaining);
                    end.insert(p, s + n);
                    remaining -= n;
                }
            }
            let range = OffsetRange {
                start,
                end: end.clone(),
            };
            new_records += range.num_records();
            let source_backlog = backlog.saturating_sub(range.num_records());
            backlog_after += source_backlog;
            if let Some(m) = self.source_metrics.get(&name) {
                m.backlog.set(source_backlog as i64);
            }
            ranges.insert(name, range);
        }

        let pt = self.config.clock.wall_us();
        if new_records == 0 && !self.root.has_pending_timeouts(&mut self.store, pt) {
            // Caught up: the next epoch starts on time.
            self.last_epoch_duration_us = 0;
            return Ok(EpochRun::Idle);
        }

        self.registry
            .histogram("ss_scheduling_delay_us", &[])
            .observe(scheduling_delay_us);
        self.registry
            .counter("ss_admitted_rows_total", &[])
            .add(new_records);
        self.registry
            .gauge("ss_admission_rate_limit", &[])
            .set(rate_limit.map_or(-1, |r| r as i64));
        if rate_limit.is_some() && admit < total_backlog {
            // The controller is actively holding rows back.
            self.trace.instant(
                "overload",
                &[
                    ("phase", "admission-limited"),
                    ("admitted", &new_records.to_string()),
                    ("backlog", &total_backlog.to_string()),
                ],
            );
            self.events.emit(
                &self.name,
                EVENT_ADMISSION_LIMITED,
                &[
                    ("admitted", &new_records.to_string()),
                    ("backlog", &total_backlog.to_string()),
                ],
            );
        }

        let epoch = self.epoch + 1;
        let mut profile = EpochProfile::new(epoch);
        // Everything since the trigger fired was backlog accounting and
        // budget apportionment.
        profile.record(PHASE_ADMISSION, None, epoch_wall.elapsed().as_micros() as u64);
        let epoch_label = epoch.to_string();
        let epoch_span = self
            .trace
            .span("epoch", &[("epoch", epoch_label.as_str())]);
        let offsets = EpochOffsets {
            epoch,
            sources: ranges,
            watermark_us: self.tracker.current(),
            defined_at_us: started,
        };
        {
            let _span = self.trace.span("write-offsets", &[]);
            let t_wal = Instant::now();
            retried(&self.config.retry, &self.config.clock, &self.config.interrupt, &self.registry, "wal_offsets_append", || {
                self.wal.write_offsets(&offsets)
            })?;
            profile.record(PHASE_WAL, None, t_wal.elapsed().as_micros() as u64);
        }
        self.epoch = epoch;
        for (name, r) in &offsets.sources {
            self.positions.insert(name.clone(), r.end.clone());
        }
        self.config.faults.fire(failpoints::AFTER_OFFSET_WRITE)?;

        // Steps 2–3: execute and commit.
        let exec = self.execute_epoch_offsets(&offsets, true, &mut profile)?;
        drop(epoch_span);

        let t_finalize = Instant::now();
        let finished = self.config.clock.wall_us();
        // Clamp: with a coarse (or frozen test) clock an epoch can
        // complete in 0 µs, and the rows/s division must stay finite.
        let duration = (finished - started).max(1);
        self.epoch_duration_us.observe(duration as u64);
        self.last_epoch_duration_us = duration;
        // Feed the controller this epoch's observations; the rate it
        // produces shapes the *next* epoch's admission budget.
        if let Some(rc) = &mut self.rate_controller {
            rc.update(finished, new_records, duration as u64, scheduling_delay_us);
            self.registry
                .gauge("ss_admission_rate_limit", &[])
                .set(rc.rate().map_or(-1, |r| r as i64));
        }
        let shed_records = self.shed_records_total();
        self.registry
            .gauge("ss_bus_shed_records", &[])
            .set(shed_records as i64);
        let watermark_lag_us = match self.tracker.current() {
            i64::MIN => None,
            wm => self.tracker.max_observed().map(|m| (m - wm).max(0)),
        };
        // The controller update, shedding accounting and watermark
        // arithmetic above are the epoch's tail; attribute it so the
        // top-level phases sum to (almost all of) the measured total.
        profile.record(PHASE_FINALIZE, None, t_finalize.elapsed().as_micros() as u64);
        profile.total_us = epoch_wall.elapsed().as_micros() as u64;
        for p in &profile.phases {
            if p.parent.is_none() {
                self.registry
                    .histogram("ss_phase_duration_us", &[("phase", &p.name)])
                    .observe(p.duration_us);
            }
        }
        self.profiler.push(profile.clone());
        let progress = QueryProgress {
            epoch,
            num_input_rows: new_records,
            num_output_rows: exec.out_rows,
            batch_duration_us: duration,
            input_rows_per_second: new_records as f64 / (duration as f64 / 1e6),
            watermark_us: self.tracker.current(),
            watermark_lag_us,
            state_rows: self.state_rows(),
            backlog_rows: backlog_after,
            operator_durations: exec
                .ops
                .iter()
                .map(|s| OpDuration {
                    op: s.op.clone(),
                    rows_out: s.rows_out,
                    duration_us: s.duration_us,
                })
                .collect(),
            sink_commit_us: exec.sink_commit_us,
            restarts: self.restarts,
            scheduling_delay_us,
            admitted_rows: new_records,
            rate_limit: self.rate_controller.as_ref().and_then(|rc| rc.rate()),
            state_bytes: self.store.memory_bytes() as u64,
            spilled_bytes: self.store.spilled_bytes(),
            shed_records,
            tasks_launched: exec.tasks_launched,
            max_task_duration_us: exec.max_task_duration_us,
            quarantined_records: exec.quarantined,
            profile: Some(profile),
            ha_role: self.ha_role().map(|r| r.as_str().to_string()),
        };
        self.progress.push(progress.clone());
        self.events.emit(
            &self.name,
            EVENT_PROGRESS,
            &[
                ("epoch", &epoch.to_string()),
                ("rows_in", &new_records.to_string()),
                ("rows_out", &progress.num_output_rows.to_string()),
                ("duration_us", &duration.to_string()),
            ],
        );
        for l in &self.listeners {
            l.on_progress(&progress);
        }
        Ok(EpochRun::Ran(progress))
    }

    /// Drain all currently-available input: run epochs until idle.
    /// This is also what the run-once trigger uses (§7.3).
    pub fn process_available(&mut self) -> Result<u64> {
        let mut epochs = 0;
        while let EpochRun::Ran(_) = self.run_epoch()? {
            epochs += 1;
        }
        Ok(epochs)
    }

    /// The epoch's row budget from the static cap: `max_records_per_
    /// trigger` across all sources, grown by the catch-up multiplier
    /// while backlogged (§7.3).
    fn effective_cap(&self, backlog: u64) -> u64 {
        match self.config.max_records_per_trigger {
            None => backlog,
            Some(cap) => {
                if self.config.adaptive_batching && backlog > cap {
                    backlog.min(cap.saturating_mul(self.config.catchup_multiplier))
                } else {
                    backlog.min(cap)
                }
            }
        }
    }

    /// Records shed so far by bounded bus topics feeding this query's
    /// sources (0 for sources not bound to a bus topic).
    fn shed_records_total(&self) -> u64 {
        self.sources
            .values()
            .filter_map(|s| s.bus_binding())
            .filter_map(|(bus, topic)| bus.shed_records(&topic).ok())
            .sum()
    }

    /// End offsets of the last defined epoch, per source — what a
    /// consumer tracking this query's progress (e.g. a retention
    /// trimmer) should consider consumed.
    pub fn positions(&self) -> &HashMap<String, PartitionOffsets> {
        &self.positions
    }

    /// Execute the epoch described by `offsets`; commit output when
    /// `with_output` (recovery replays with output disabled). Returns
    /// the epoch's output row count, per-operator stats and sink
    /// commit time; phase wall times accumulate into `profile`
    /// (recovery replays pass a throwaway).
    fn execute_epoch_offsets(
        &mut self,
        offsets: &EpochOffsets,
        with_output: bool,
        profile: &mut EpochProfile,
    ) -> Result<EpochExecution> {
        let trace = self.trace.clone();
        let retry_policy = self.config.retry;
        let clock = self.config.clock.clone();
        let interrupt = self.config.interrupt.clone();
        let faults = self.config.faults.clone();
        let registry = self.registry.clone();
        // Read exactly the logged ranges (replayable sources), with
        // the plan's scan projections pushed into the read (§5.3).
        let projections = self.root.scan_projections();
        let mut inputs: HashMap<String, RecordBatch> = HashMap::new();
        // Ingest-time bounds across the epoch's input records, for the
        // end-to-end latency observed at sink commit.
        let mut ingest_min = i64::MAX;
        let mut ingest_max = i64::MIN;
        {
            let _span = trace.span("read-sources", &[]);
            let t_sources = Instant::now();
            for (name, range) in &offsets.sources {
                let source = self.sources.get(name).ok_or_else(|| {
                    SsError::Plan(format!("no source bound for `{name}` during execution"))
                })?;
                let projection = projections.get(name).cloned().flatten();
                let t_read = Instant::now();
                let batch = retried(&retry_policy, &clock, &interrupt, &registry, "source_read", || {
                    faults.fire(failpoints::SOURCE_READ)?;
                    source.read_all_projected(range, projection.as_deref())
                })?;
                if let Some((lo, hi)) = source.ingest_bounds(range)? {
                    ingest_min = ingest_min.min(lo);
                    ingest_max = ingest_max.max(hi);
                }
                if let Some(m) = self.source_metrics.get(name) {
                    m.rows_read.add(batch.num_rows() as u64);
                    m.read_us.observe(t_read.elapsed().as_micros() as u64);
                }
                inputs.insert(name.clone(), batch);
            }
            profile.record(PHASE_SOURCE_READ, None, t_sources.elapsed().as_micros() as u64);
        }
        self.heartbeat("source-read")?;

        // Poison-record isolation. Live epochs in isolation mode probe
        // every input row alone through a scratch copy of the plan and
        // strip the offenders before real execution; the stripped
        // offsets go into the epoch's commit record. Recovery replays
        // (`!with_output`) never re-probe: they strip exactly the
        // offsets the commit recorded, so the replayed output is byte
        // for byte the committed output at any parallelism.
        let mut quarantined: QuarantinedOffsets = BTreeMap::new();
        let mut letters: Vec<DeadLetterRecord> = Vec::new();
        if !with_output {
            if let Some(commit) = self.wal.read_commit(offsets.epoch)? {
                if !commit.quarantined.is_empty() {
                    // Evidence the query was already isolating poison:
                    // resume in isolation mode so new epochs keep
                    // probing instead of re-failing.
                    self.isolation = true;
                    quarantined = commit.quarantined;
                }
            }
        } else if self.isolation && self.config.error_policy.isolates() {
            let _span = trace.span("quarantine-probe", &[]);
            (quarantined, letters) = self.probe_poison_rows(offsets, &inputs)?;
            if let ErrorPolicy::Quarantine { max_per_epoch } = self.config.error_policy {
                let n: u64 = quarantined.values().map(|v| v.len() as u64).sum();
                if n > max_per_epoch {
                    return Err(SsError::Execution(format!(
                        "quarantine limit exceeded: {n} poison records in epoch {} \
                         (max_per_epoch is {max_per_epoch})",
                        offsets.epoch
                    )));
                }
            }
        }
        if !quarantined.is_empty() {
            strip_quarantined(&mut inputs, offsets, &quarantined)?;
        }
        self.heartbeat("quarantine-probe")?;

        // The logged watermark is authoritative (recovery reproduces
        // the original epoch's output exactly).
        self.tracker.set_current(offsets.watermark_us);
        let pt = self.config.clock.wall_us();
        let mut ops = OpStatsCollector::new();
        let exec_started = trace.now_us();
        let t_exec = Instant::now();
        let (out, run) = {
            let _span = trace.span("execute", &[]);
            // Panics inside operators (UDFs, injected faults) fail the
            // epoch restartably instead of killing the query thread;
            // the restart path clears any half-updated in-memory state.
            let outcome = catch_unwind(AssertUnwindSafe(
                || -> Result<(RecordBatch, ExchangeStats)> {
                let mut ctx = EpochContext {
                    epoch: offsets.epoch,
                    inputs: &mut inputs,
                    statics: self.statics.as_ref(),
                    store: &mut self.store,
                    watermark_us: offsets.watermark_us,
                    processing_time_us: pt,
                    output_mode: self.output_mode,
                    tracker: &mut self.tracker,
                    ops: &mut ops,
                    faults: &faults,
                    exchange: &self.exchange,
                    run: ExchangeStats::default(),
                };
                let out = self.root.execute_epoch(&mut ctx)?;
                Ok((out, ctx.run))
            },
            ));
            match outcome {
                Ok(result) => result?,
                Err(payload) => {
                    return Err(SsError::Execution(format!(
                        "panic during epoch execution: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            }
        };
        self.heartbeat("execute")?;
        // Surface overload failures before anything becomes durable: a
        // spill reload that failed mid-execution (the operator saw
        // empty state) or an epoch that blew the hard memory limit.
        self.store.check_health()?;
        self.store.check_hard_limit()?;
        let ops = ops.take();
        for s in &ops {
            self.registry
                .counter("ss_operator_rows_total", &[("op", &s.op)])
                .add(s.rows_out);
            self.registry
                .histogram("ss_operator_eval_us", &[("op", &s.op)])
                .observe(s.duration_us);
            trace.complete(
                &format!("op:{}", s.op),
                exec_started + s.started_rel_us,
                s.duration_us,
                &[("rows_out", &s.rows_out.to_string())],
            );
        }
        // The execute phase covers the plan run plus its bookkeeping
        // (health checks, operator metric export).
        profile.record(PHASE_EXECUTE, None, t_exec.elapsed().as_micros() as u64);
        for (name, us) in &run.phases {
            profile.record(name, Some(PHASE_EXECUTE), *us);
        }
        profile.tasks = run.scatter.skew();
        profile.shuffle = run.shuffle;
        let out_rows = out.num_rows() as u64;

        let mut sink_commit_us = 0i64;
        if with_output {
            let output = match self.output_mode {
                OutputMode::Append => EpochOutput::Append(out),
                OutputMode::Update => EpochOutput::Update {
                    batch: out,
                    key_cols: self.update_key_cols.clone(),
                },
                OutputMode::Complete => EpochOutput::Complete(out),
            };
            let t_commit = Instant::now();
            {
                let _span = trace.span("sink-commit", &[]);
                // Sinks commit idempotently per epoch, so a retry after
                // a partial delivery rewrites the same output in place.
                // The sink lives outside the checkpoint backend, so the
                // fencing check is explicit here: a zombie leader is
                // rejected before any output becomes visible.
                retried(&retry_policy, &clock, &interrupt, &registry, "sink_commit", || {
                    if let Some(ha) = &self.config.ha {
                        ha.lease.check_fenced("sink-commit")?;
                    }
                    faults.fire(failpoints::SINK_COMMIT)?;
                    self.sink.commit_epoch(offsets.epoch, &output)
                })?;
            }
            sink_commit_us = t_commit.elapsed().as_micros() as i64;
            profile.record(PHASE_SINK_COMMIT, None, sink_commit_us as u64);
            self.sink_metrics
                .observe_commit(out_rows, sink_commit_us as u64);
            // End-to-end latency: the epoch's output just became
            // visible, so every input record's journey ends here.
            // Measured on the real clock — ingest stamps come from the
            // bus's wall clock, not the engine's injectable one.
            if ingest_min <= ingest_max {
                let commit_at = now_us();
                let lat_min = (commit_at - ingest_max).max(0) as u64;
                let lat_max = (commit_at - ingest_min).max(0) as u64;
                self.e2e_latency_us.observe(lat_min);
                self.e2e_latency_us.observe(lat_max);
                profile.e2e_latency_us = Some((lat_min, lat_max));
            }
            faults.fire(failpoints::AFTER_SINK_WRITE)?;
            let n_quarantined: u64 = quarantined.values().map(|v| v.len() as u64).sum();
            if n_quarantined > 0 {
                // Divert the offenders to the dead-letter queue (with
                // failure metadata) before the commit record makes the
                // quarantine durable. The DLQ commit is idempotent per
                // epoch, so a crash/replay rewrites the same records in
                // place — exactly-once dead letters. `Drop` keeps the
                // offsets (for replay determinism) but no letters.
                if matches!(self.config.error_policy, ErrorPolicy::Quarantine { .. }) {
                    let dlq = self.dlq.clone();
                    let epoch = offsets.epoch;
                    let to_commit = letters.clone();
                    let ha = self.config.ha.as_ref();
                    retried(&retry_policy, &clock, &interrupt, &registry, "dlq_write", || {
                        if let Some(ha) = ha {
                            ha.lease.check_fenced("dlq-commit")?;
                        }
                        faults.fire(ss_bus::dlq::failpoints::DLQ_WRITE)?;
                        dlq.commit_epoch(epoch, to_commit.clone());
                        Ok(())
                    })?;
                }
                self.quarantined_total.add(n_quarantined);
                self.events.emit(
                    &self.name,
                    EVENT_QUARANTINE,
                    &[
                        ("epoch", &offsets.epoch.to_string()),
                        ("records", &n_quarantined.to_string()),
                        (
                            "action",
                            if matches!(self.config.error_policy, ErrorPolicy::Drop) {
                                "dropped"
                            } else {
                                "quarantined"
                            },
                        ),
                    ],
                );
            }
            let commit = EpochCommit {
                epoch: offsets.epoch,
                rows_written: out_rows,
                committed_at_us: self.config.clock.wall_us(),
                quarantined: quarantined.clone(),
                fencing_epoch: self.held_fencing_epoch(),
            };
            let t_wal = Instant::now();
            retried(&retry_policy, &clock, &interrupt, &registry, "wal_commits_append", || {
                self.wal.write_commit(&commit)
            })?;
            profile.record(PHASE_WAL, None, t_wal.elapsed().as_micros() as u64);
            faults.fire(failpoints::AFTER_COMMIT_WRITE)?;
        }

        // Watermark advances at the epoch boundary (§4.3.1).
        self.tracker.advance();

        // Step 4: checkpoint state (tagged with the epoch). Only for
        // committed epochs, so checkpoints never run ahead of the
        // commit log.
        if with_output && offsets.epoch.is_multiple_of(self.config.checkpoint_interval) {
            let _span = trace.span("checkpoint", &[]);
            let t_state = Instant::now();
            self.tracker.save(&mut self.store);
            let store = &mut self.store;
            retried(&retry_policy, &clock, &interrupt, &registry, "checkpoint_write", || {
                store.checkpoint(offsets.epoch)
            })?;
            // Right after a checkpoint every operator is clean, so the
            // soft memory limit can spill the cold ones.
            let report = self.store.enforce_budget()?;
            if report.ops_spilled > 0 {
                trace.instant(
                    "overload",
                    &[
                        ("phase", "state-spill"),
                        ("ops_spilled", &report.ops_spilled.to_string()),
                        ("memory_bytes", &report.memory_bytes.to_string()),
                        ("spilled_bytes", &report.spilled_bytes.to_string()),
                    ],
                );
                self.events.emit(
                    &self.name,
                    EVENT_SPILL,
                    &[
                        ("epoch", &offsets.epoch.to_string()),
                        ("ops_spilled", &report.ops_spilled.to_string()),
                        ("spilled_bytes", &report.spilled_bytes.to_string()),
                    ],
                );
            }
            // The manifest rides along with the checkpoint — it must
            // only ever describe a state layout that exists on disk, so
            // it is never written ahead of the first checkpoint of the
            // current plan.
            self.write_manifest(false)?;
            self.maybe_gc(offsets.epoch)?;
            profile.record(PHASE_STATE_COMMIT, None, t_state.elapsed().as_micros() as u64);
        }
        Ok(EpochExecution {
            out_rows,
            ops,
            sink_commit_us,
            tasks_launched: run.scatter.tasks,
            max_task_duration_us: run.scatter.max_task_duration_us,
            quarantined: quarantined.values().map(|v| v.len() as u64).sum(),
        })
    }

    /// Probe each input row alone through a fresh scratch copy of the
    /// plan (in-memory state, scratch tracker, **no** fault injection:
    /// the probe detects failures carried by the data itself, not
    /// injected chaos) and collect the rows that deterministically
    /// fail, as `(partition, offset)` pairs per source plus their
    /// dead-letter records.
    fn probe_poison_rows(
        &self,
        offsets: &EpochOffsets,
        inputs: &HashMap<String, RecordBatch>,
    ) -> Result<(QuarantinedOffsets, Vec<DeadLetterRecord>)> {
        let pt = self.config.clock.wall_us();
        let probe_faults = FaultRegistry::new();
        let probe_exchange = Exchange::identity();
        let mut quarantined: QuarantinedOffsets = BTreeMap::new();
        let mut letters = Vec::new();
        for (source, range) in &offsets.sources {
            let Some(batch) = inputs.get(source) else {
                continue;
            };
            if batch.num_rows() == 0 {
                continue;
            }
            // Row index ↔ (partition, offset): sources concatenate
            // partitions in ascending order, offsets in range order.
            let rows = row_offsets(range);
            for i in 0..batch.num_rows() {
                let single = batch.slice(i, 1)?;
                let mut probe_inputs: HashMap<String, RecordBatch> = HashMap::new();
                probe_inputs.insert(source.clone(), single);
                let mut counter = 0;
                let mut probe = incrementalize(&self.optimized_plan, &mut counter)?;
                let mut store = StateStore::new(Arc::new(MemoryBackend::new()));
                let mut tracker = WatermarkTracker::new(&self.tracker.clone_config());
                let mut probe_ops = OpStatsCollector::new();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = EpochContext {
                        epoch: offsets.epoch,
                        inputs: &mut probe_inputs,
                        statics: self.statics.as_ref(),
                        store: &mut store,
                        watermark_us: offsets.watermark_us,
                        processing_time_us: pt,
                        output_mode: self.output_mode,
                        tracker: &mut tracker,
                        ops: &mut probe_ops,
                        faults: &probe_faults,
                        exchange: &probe_exchange,
                        run: ExchangeStats::default(),
                    };
                    probe.execute_epoch(&mut ctx)
                }));
                let error = match outcome {
                    Ok(Ok(_)) => None,
                    Ok(Err(e)) => Some(e),
                    Err(payload) => Some(SsError::Execution(format!(
                        "panic during record probe: {}",
                        panic_message(payload.as_ref())
                    ))),
                };
                if let Some(e) = error {
                    let (partition, offset) = rows.get(i).copied().unwrap_or((0, i as u64));
                    let msg = e.to_string();
                    quarantined
                        .entry(source.clone())
                        .or_default()
                        .push((partition, offset));
                    letters.push(DeadLetterRecord {
                        epoch: offsets.epoch,
                        source: source.clone(),
                        partition,
                        offset,
                        fingerprint: failure_fingerprint(e.category(), &msg, offsets.epoch),
                        error: msg,
                        row_json: row_to_json(batch.schema(), &batch.row(i))
                            .unwrap_or_else(|_| "null".into()),
                    });
                }
            }
        }
        Ok((quarantined, letters))
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
        let (manifest, config) = (self.manifest(sealed), &self.config);
        retried(&config.retry, &config.clock, &config.interrupt, &self.registry, "manifest_write", || {
            config.faults.fire(failpoints::MANIFEST_WRITE)?;
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
            self.backend.clone(),
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
            self.trace.instant(
                "checkpoint-gc",
                &[
                    ("purged", &purged.to_string()),
                    ("horizon", &horizon.to_string()),
                ],
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery and rollback
    // ------------------------------------------------------------------

    /// §6.1 step 4: bring state and sink back to a consistent point
    /// after a restart.
    ///
    /// Hardened against bad durable data: the WAL is scanned first
    /// ([`WriteAheadLog::verify_and_repair`] — torn records past the
    /// last commit become uncommitted work, corruption inside committed
    /// history fails loudly), and state restore falls back to older
    /// checkpoints when the newest is unreadable
    /// ([`StateStore::restore_best`] — the WAL replays the gap).
    fn recover(&mut self) -> Result<()> {
        match self.recover_inner() {
            Err(err)
                if self.config.error_policy.isolates()
                    && !self.isolation
                    && is_record_failure(&err) =>
            {
                // An in-flight epoch re-ran into a deterministic record
                // failure: flip isolation on and recover again — the
                // probe strips the offenders this time. The sticky flag
                // bounds this to a single retry.
                self.enter_isolation(&err);
                self.reset_and_recover()
            }
            other => other,
        }
    }

    fn recover_inner(&mut self) -> Result<()> {
        let repair = self.wal.verify_and_repair()?;
        if !repair.is_clean() {
            self.trace.instant(
                "wal-repair",
                &[
                    ("dropped_offsets", &format!("{:?}", repair.dropped_offsets)),
                    ("dropped_commits", &format!("{:?}", repair.dropped_commits)),
                ],
            );
        }
        let rp = self.wal.recovery_point()?;
        let Some(last_committed) = rp.last_committed else {
            // Nothing committed: any state checkpoint is stale (they
            // are only written for committed epochs).
            self.store.truncate_after(0)?;
            // Re-run any epoch that was in flight.
            for e in rp.uncommitted_epochs {
                let offsets = self.wal.read_offsets(e)?.ok_or_else(|| {
                    SsError::Internal(format!("offset log lists epoch {e} but read failed"))
                })?;
                self.apply_positions(&offsets);
                self.epoch = e;
                let in_rows: u64 = offsets.sources.values().map(|r| r.num_records()).sum();
                let exec = self.execute_epoch_offsets(&offsets, true, &mut EpochProfile::new(e))?;
                self.last_inflight = Some((e, in_rows, exec));
            }
            return Ok(());
        };

        // Checkpoints newer than the commit line describe state the
        // engine is about to recompute (e.g. the commit record was a
        // torn tail); a delta written against them could corrupt a
        // future restore chain, so drop them first.
        self.store.truncate_after(last_committed)?;
        // Restore the newest *restorable* checkpoint ≤ the commit point
        // (corrupt chains are skipped; the WAL replays the difference).
        let chk = self.store.restore_best(Some(last_committed))?;
        let mut replay_from = 1;
        if let Some(c) = chk {
            if !self.migrations.is_empty() {
                // The checkpoint predates the current plan: rewrite each
                // migratable operator's rows to the new layout *before*
                // operators load them. Idempotent — rows already in the
                // new arity are left alone. Migrations address operators
                // by their serial (unsharded) namespace, so collapse any
                // sharded layout first; the repartition below re-shards.
                for (base, suffix) in state_families(&self.root) {
                    repartition_family(&mut self.store, &base, suffix, 1)?;
                }
                upgrade::apply_migrations(&mut self.store, &self.migrations);
                self.trace.instant(
                    "state-migration",
                    &[("operators", &self.migrations.len().to_string())],
                );
            }
            // Re-shard restored stateful-operator families to this
            // run's partition layout (layout-agnostic and idempotent:
            // a checkpoint already in the target layout is untouched,
            // whatever partition count the manifest declares).
            let target = self.exchange.partitions();
            for (base, suffix) in state_families(&self.root) {
                repartition_family(&mut self.store, &base, suffix, target)?;
            }
            self.root.restore_state(&mut self.store, target)?;
            self.tracker.load(&self.store)?;
            replay_from = c + 1;
        }

        // Re-execute committed epochs newer than the checkpoint with
        // output disabled: state is rebuilt, the sink already has
        // their output.
        for e in replay_from..=last_committed {
            let offsets = self.wal.read_offsets(e)?.ok_or_else(|| {
                SsError::Execution(format!(
                    "cannot recover: offset log is missing committed epoch {e}"
                ))
            })?;
            self.apply_positions(&offsets);
            self.epoch = e;
            // Replays profile into a throwaway: the profiler history
            // describes live epochs, not recovery.
            self.execute_epoch_offsets(&offsets, false, &mut EpochProfile::new(e))?;
        }
        if replay_from > last_committed && chk.is_some() {
            // State came wholly from the checkpoint; synchronize the
            // positions from the last committed epoch's offsets.
            if let Some(offsets) = self.wal.read_offsets(last_committed)? {
                self.apply_positions(&offsets);
                self.epoch = last_committed;
            }
        }
        self.epoch = self.epoch.max(last_committed);

        // Re-run the in-flight epochs, output enabled: the sink's
        // idempotence absorbs any partial writes from the crash.
        for e in rp.uncommitted_epochs {
            let offsets = self.wal.read_offsets(e)?.ok_or_else(|| {
                SsError::Internal(format!("offset log lists epoch {e} but read failed"))
            })?;
            self.apply_positions(&offsets);
            self.epoch = e;
            let in_rows: u64 = offsets.sources.values().map(|r| r.num_records()).sum();
            let exec = self.execute_epoch_offsets(&offsets, true, &mut EpochProfile::new(e))?;
            self.last_inflight = Some((e, in_rows, exec));
        }
        Ok(())
    }

    fn apply_positions(&mut self, offsets: &EpochOffsets) {
        for (name, r) in &offsets.sources {
            self.positions.insert(name.clone(), r.end.clone());
        }
    }

    /// Manual rollback (§7.2): truncate the WAL, state checkpoints and
    /// sink output to `epoch`, then recover. Subsequent triggers
    /// recompute everything after `epoch` from the (retained) source
    /// data.
    /// Both validations below run **before** any truncation, so a
    /// refused rollback leaves the checkpoint untouched.
    pub fn rollback_to(&mut self, epoch: u64) -> Result<()> {
        // Retention horizon: if GC compacted the WAL prefix, epochs
        // below the earliest retained full snapshot cannot be rebuilt.
        let epochs = self.wal.offset_epochs()?;
        if let Some(&first) = epochs.first() {
            if first > 1 {
                let floor = self.store.earliest_full_epoch()?.unwrap_or(first);
                if epoch < floor {
                    return Err(SsError::Execution(format!(
                        "cannot roll back to epoch {epoch}: checkpoint retention \
                         horizon is epoch {floor} (earlier checkpoints and WAL \
                         records were purged)"
                    )));
                }
            }
        }
        // Source retention: replaying from `epoch` re-reads every source
        // from its position at that epoch; refuse if a source has
        // already aged that data out.
        let resume: HashMap<String, PartitionOffsets> = if epoch == 0 {
            self.sources.keys().map(|n| (n.clone(), PartitionOffsets::new())).collect()
        } else {
            let offsets = self.wal.read_offsets(epoch)?.ok_or_else(|| {
                SsError::Execution(format!(
                    "cannot roll back to epoch {epoch}: its offset record is missing"
                ))
            })?;
            offsets
                .sources
                .iter()
                .map(|(n, r)| (n.clone(), r.end.clone()))
                .collect()
        };
        for (name, source) in &self.sources {
            let earliest = source.earliest_offsets()?;
            let positions = resume.get(name).cloned().unwrap_or_default();
            for (partition, avail) in &earliest {
                let have = positions.get(partition).copied().unwrap_or(0);
                if *avail > have {
                    return Err(SsError::Execution(format!(
                        "cannot roll back to epoch {epoch}: source `{name}` \
                         partition {partition} has aged out data before offset \
                         {avail} (replay would need offset {have})"
                    )));
                }
            }
        }
        self.wal.truncate_after(epoch)?;
        self.store.truncate_after(epoch)?;
        self.sink.truncate_after(epoch)?;
        self.dlq.truncate_after(epoch);
        self.reset_and_recover()
    }

    /// In-place restart after a failure (used by the query supervisor):
    /// throw away all in-memory execution state and re-run WAL recovery
    /// against the durable logs, exactly as a fresh process would.
    /// Increments the restart counter surfaced in [`QueryProgress`].
    pub fn restart(&mut self) -> Result<()> {
        self.restarts += 1;
        self.trace
            .instant("restart", &[("count", &self.restarts.to_string())]);
        self.events.emit(
            &self.name,
            EVENT_RESTART,
            &[("count", &self.restarts.to_string())],
        );
        self.reset_and_recover()
    }

    /// Supervisor restarts survived so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Phase-boundary liveness check: enforce the epoch watchdog
    /// deadline and, when HA is configured, piggyback a lease renewal
    /// on the same boundary. Renewal I/O errors are swallowed — the
    /// lease simply keeps its remaining TTL and the next boundary
    /// retries — but a discovered usurper ([`SsError::Fenced`]) is
    /// fatal and aborts the epoch immediately.
    fn heartbeat(&self, phase: &str) -> Result<()> {
        self.watchdog.check(phase)?;
        if let Some(ha) = &self.config.ha {
            if let Err(SsError::Fenced(m)) = ha.lease.maybe_renew() {
                return Err(SsError::Fenced(format!("at phase `{phase}`: {m}")));
            }
        }
        Ok(())
    }

    /// The HA configuration, when this query runs under a lease.
    pub fn ha(&self) -> Option<&HaConfig> {
        self.config.ha.as_ref()
    }

    /// This query's high-availability role, `None` without a lease.
    pub fn ha_role(&self) -> Option<HaRole> {
        let role = self.config.ha.as_ref().map(|h| h.lease.role())?;
        // A warm standby reports Standby until promoted (or fenced),
        // whatever its lease manager last observed.
        if self.standby && role != HaRole::Fenced {
            return Some(HaRole::Standby);
        }
        Some(role)
    }

    /// The fencing epoch stamped into durable records, `None` when the
    /// query is not currently the fenced leader.
    fn held_fencing_epoch(&self) -> Option<u64> {
        self.config.ha.as_ref().and_then(|h| h.lease.fencing_epoch())
    }

    /// True for a warm standby that has not yet been promoted.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// One-line JSON snapshot of the HA machinery for the
    /// introspection server's `/query/<name>/ha` endpoint.
    pub fn ha_status_json(&self) -> String {
        use ss_common::trace::escape_json;
        let Some(ha) = &self.config.ha else {
            return "{\"configured\":false}".to_string();
        };
        let lease = &ha.lease;
        let role = self
            .ha_role()
            .map_or("unknown", |r| r.as_str())
            .to_string();
        let fencing = lease
            .fencing_epoch()
            .map_or("null".to_string(), |e| e.to_string());
        let replication = match &ha.replication {
            None => "null".to_string(),
            Some(r) => {
                let mode = match r.mode() {
                    ss_state::ReplicationMode::Sync => "sync".to_string(),
                    ss_state::ReplicationMode::Async { max_lag } => {
                        format!("async(max_lag={max_lag})")
                    }
                };
                format!(
                    "{{\"mode\":\"{}\",\"mirrored_ops\":{},\"replica_errors\":{},\
                     \"replication_lag_us\":{}}}",
                    mode,
                    r.mirrored_ops(),
                    r.replica_errors(),
                    r.last_lag_us()
                )
            }
        };
        format!(
            "{{\"configured\":true,\"role\":\"{}\",\"holder\":\"{}\",\
             \"fencing_epoch\":{},\"fencing_rejections\":{},\"failovers\":{},\
             \"standby\":{},\"epoch\":{},\"replication\":{}}}",
            escape_json(&role),
            escape_json(lease.holder()),
            fencing,
            lease.fencing_rejections(),
            lease.failovers(),
            self.standby,
            self.epoch,
            replication
        )
    }

    /// Tail the (replicated) checkpoint **read-only**: restore the
    /// newest restorable state checkpoint once, then replay every
    /// newly *committed* epoch with output disabled — the sink already
    /// holds their output, so a standby produces no writes at all.
    /// Torn tails and in-flight epochs are deliberately left alone;
    /// repairing them requires the lease and happens in
    /// [`promote`](Self::promote). Returns the number of committed
    /// epochs applied this call.
    ///
    /// The standby must be configured with the same plan and partition
    /// layout as the leader: catch-up performs no state migrations and
    /// no repartitioning (both would write to the shared checkpoint).
    pub fn standby_catch_up(&mut self) -> Result<u64> {
        let rp = self.wal.recovery_point()?;
        let Some(last_committed) = rp.last_committed else {
            return Ok(0);
        };
        if !self.standby_restored {
            if let Some(c) = self.store.restore_best(Some(last_committed))? {
                self.root
                    .restore_state(&mut self.store, self.exchange.partitions())?;
                self.tracker.load(&self.store)?;
                if let Some(offsets) = self.wal.read_offsets(c)? {
                    self.apply_positions(&offsets);
                }
                self.epoch = c;
            }
            self.standby_restored = true;
        }
        let mut applied = 0;
        for e in (self.epoch + 1)..=last_committed {
            let Some(offsets) = self.wal.read_offsets(e)? else {
                // The leader is mid-write (or left a torn tail):
                // stop here and let the next tick — or promotion's
                // repair — pick it up.
                break;
            };
            // Execute before advancing positions so a failed replay
            // (e.g. a torn commit record the leader left behind)
            // leaves the standby consistent at the previous epoch.
            self.execute_epoch_offsets(&offsets, false, &mut EpochProfile::new(e))?;
            self.apply_positions(&offsets);
            self.epoch = e;
            applied += 1;
        }
        Ok(applied)
    }

    /// Warm takeover: acquire the lease — bumping the fencing epoch,
    /// so every durable write the previous leader still attempts is
    /// rejected with [`SsError::Fenced`] — then repair the WAL tail,
    /// finish the read-only committed catch-up, and re-run any epoch
    /// that was in flight at the failure with output enabled (the
    /// sink's idempotence absorbs the dead leader's partial writes).
    /// Promotion work is bounded by the epochs committed since the
    /// last [`standby_catch_up`](Self::standby_catch_up) tick plus the
    /// in-flight tail. Returns the fencing epoch now held.
    pub fn promote(&mut self) -> Result<u64> {
        let Some(ha) = self.config.ha.clone() else {
            return Err(SsError::Plan(
                "promote: query has no HA configuration (MicroBatchConfig::ha)".into(),
            ));
        };
        let fencing = ha.lease.try_acquire()?;
        self.standby = false;
        // We own the checkpoint now: torn tails the dead leader left
        // behind can be repaired, exactly as leader recovery does.
        let repair = self.wal.verify_and_repair()?;
        if !repair.is_clean() {
            self.trace.instant(
                "wal-repair",
                &[
                    ("dropped_offsets", &format!("{:?}", repair.dropped_offsets)),
                    ("dropped_commits", &format!("{:?}", repair.dropped_commits)),
                ],
            );
        }
        let rp = self.wal.recovery_point()?;
        // Checkpoints past the commit line describe state about to be
        // recomputed (e.g. the commit record was a torn tail we just
        // dropped); writing deltas against them would corrupt a future
        // restore chain.
        self.store.truncate_after(rp.last_committed.unwrap_or(0))?;
        self.standby_catch_up()?;
        for e in rp.uncommitted_epochs {
            let offsets = self.wal.read_offsets(e)?.ok_or_else(|| {
                SsError::Internal(format!("offset log lists epoch {e} but read failed"))
            })?;
            self.apply_positions(&offsets);
            self.epoch = e;
            let in_rows: u64 = offsets.sources.values().map(|r| r.num_records()).sum();
            let exec = self.execute_epoch_offsets(&offsets, true, &mut EpochProfile::new(e))?;
            self.last_inflight = Some((e, in_rows, exec));
        }
        self.events.emit(
            &self.name,
            EVENT_FAILOVER,
            &[
                ("holder", ha.lease.holder()),
                ("fencing_epoch", &fencing.to_string()),
                ("epoch", &self.epoch.to_string()),
            ],
        );
        self.trace.instant(
            "failover",
            &[("fencing_epoch", &fencing.to_string())],
        );
        Ok(fencing)
    }

    /// The dead-letter queue holding quarantined poison records.
    pub fn dlq(&self) -> &Arc<DeadLetterQueue> {
        &self.dlq
    }

    /// True while the engine probes rows individually and quarantines
    /// deterministic failures.
    pub fn isolation_active(&self) -> bool {
        self.isolation
    }

    /// Called by the supervisor when a failure fingerprint repeated
    /// across a restart — i.e. the failure is deterministic and
    /// replaying it again cannot succeed. Counts the classification
    /// and, when the error policy allows, switches the engine into
    /// isolation mode so the next restart quarantines the offending
    /// records instead of replaying the failure forever.
    pub fn note_deterministic(&mut self, fingerprint: u64, message: &str) {
        self.deterministic_failures.inc();
        let fp = format!("{fingerprint:016x}");
        self.events.emit(
            &self.name,
            EVENT_QUARANTINE,
            &[
                ("action", "deterministic-failure"),
                ("fingerprint", &fp),
                ("error", message),
            ],
        );
        if self.config.error_policy.isolates() && !self.isolation {
            self.isolation = true;
            self.trace
                .instant("isolation", &[("fingerprint", fp.as_str())]);
        }
    }

    /// Flip isolation mode on after a record-shaped failure.
    fn enter_isolation(&mut self, err: &SsError) {
        if self.isolation {
            return;
        }
        self.isolation = true;
        let msg = err.to_string();
        self.trace.instant("isolation", &[("error", &msg)]);
        self.events.emit(
            &self.name,
            EVENT_QUARANTINE,
            &[("action", "isolation-on"), ("error", &msg)],
        );
    }

    /// Progress record for an epoch that completed via the isolation
    /// retry path (recovery re-ran it with probing; the usual trigger
    /// bookkeeping was skipped).
    fn synthesize_progress(
        &mut self,
        epoch: u64,
        in_rows: u64,
        exec: EpochExecution,
    ) -> QueryProgress {
        let duration = self.last_epoch_duration_us.max(1);
        let watermark_lag_us = match self.tracker.current() {
            i64::MIN => None,
            wm => self.tracker.max_observed().map(|m| (m - wm).max(0)),
        };
        QueryProgress {
            epoch,
            num_input_rows: in_rows,
            num_output_rows: exec.out_rows,
            batch_duration_us: duration,
            input_rows_per_second: in_rows as f64 / (duration as f64 / 1e6),
            watermark_us: self.tracker.current(),
            watermark_lag_us,
            state_rows: self.state_rows(),
            backlog_rows: 0,
            operator_durations: exec
                .ops
                .iter()
                .map(|s| OpDuration {
                    op: s.op.clone(),
                    rows_out: s.rows_out,
                    duration_us: s.duration_us,
                })
                .collect(),
            sink_commit_us: exec.sink_commit_us,
            restarts: self.restarts,
            scheduling_delay_us: 0,
            admitted_rows: in_rows,
            rate_limit: None,
            state_bytes: self.store.memory_bytes() as u64,
            spilled_bytes: self.store.spilled_bytes(),
            shed_records: self.shed_records_total(),
            tasks_launched: exec.tasks_launched,
            max_task_duration_us: exec.max_task_duration_us,
            quarantined_records: exec.quarantined,
            profile: None,
            ha_role: self.ha_role().map(|r| r.as_str().to_string()),
        }
    }

    fn reset_and_recover(&mut self) -> Result<()> {
        self.store.clear_memory();
        self.tracker = WatermarkTracker::new(&current_watermarks(&self.tracker));
        self.epoch = 0;
        self.positions.clear();
        // Clears operators (the store is empty).
        self.root
            .restore_state(&mut self.store, self.exchange.partitions())?;
        self.recover()
    }
}

/// Rebuild the tracker's (column, delay) config; observations are
/// dropped on rollback and recomputed during replay.
fn current_watermarks(t: &WatermarkTracker) -> Vec<(String, i64)> {
    // WatermarkTracker doesn't expose its delays publicly; rebuilding
    // from scratch with the same config requires keeping it around.
    // `clone_config` below provides it.
    t.clone_config()
}

/// True for failures a single record can deterministically cause:
/// evaluation type errors, operator panics (caught and rendered), and
/// the `exec.record.eval` fail point. Everything else (I/O, torn
/// writes, timeouts) stays on the transient restart path.
fn is_record_failure(err: &SsError) -> bool {
    match err {
        SsError::Type(_) => true,
        SsError::Execution(m) => {
            m.contains("panic during") || m.contains(ss_exec::ops::failpoints::RECORD_EVAL)
        }
        _ => false,
    }
}

/// The `(partition, offset)` of each row in a source batch read from
/// `range`, in row order: partitions ascend (sources read them in
/// `BTreeMap` order), offsets ascend within a partition.
fn row_offsets(range: &OffsetRange) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for (&p, &end) in &range.end {
        let start = range.start.get(&p).copied().unwrap_or(0);
        for o in start..end {
            out.push((p, o));
        }
    }
    out
}

/// Remove the quarantined offsets from each source's epoch batch.
fn strip_quarantined(
    inputs: &mut HashMap<String, RecordBatch>,
    offsets: &EpochOffsets,
    quarantined: &QuarantinedOffsets,
) -> Result<()> {
    for (source, bad) in quarantined {
        let Some(batch) = inputs.get(source) else {
            continue;
        };
        let Some(range) = offsets.sources.get(source) else {
            continue;
        };
        let rows = row_offsets(range);
        let bad: BTreeSet<(u32, u64)> = bad.iter().copied().collect();
        let mask: Vec<bool> = (0..batch.num_rows())
            .map(|i| rows.get(i).is_none_or(|ro| !bad.contains(ro)))
            .collect();
        let filtered = batch.filter(&mask)?;
        inputs.insert(source.clone(), filtered);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_bus::{GeneratorSource, MemorySink};
    use ss_common::{row, DataType, Field, Schema, Value};
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
        let clock: Clock = ss_common::clock::StepClock::new(0, 100_000).handle();
        let src = gen_source(1);
        let sink = MemorySink::new("out");
        let config = MicroBatchConfig {
            rate_controller: Some(RateControllerConfig {
                min_rate: 1.0,
                batch_interval_us: 100_000,
                ..RateControllerConfig::default()
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
