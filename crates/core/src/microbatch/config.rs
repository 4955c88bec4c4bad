//! Engine configuration: the tuning knobs, the engine-level fail
//! points and the process environment the defaults come from.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use ss_bus::DeadLetterQueue;
use ss_common::clock::{system_clock, ClockRef};
use ss_common::{ErrorPolicy, FaultRegistry, RetryPolicy};

use crate::admission::RateControllerConfig;
use crate::ha::HaConfig;

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
            faults: FaultRegistry::new(),
            retry: RetryPolicy::default(),
            clock: system_clock(),
            interrupt: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            rate_controller: None,
            state_budget: MemoryBudget::default(),
            min_epochs_to_retain: None,
            parallelism: env_var("SS_PARALLELISM").filter(|&n| n >= 1).unwrap_or(1),
            shuffle_partitions: 0,
            error_policy: ErrorPolicy::default(),
            epoch_deadline: env_var("SS_EPOCH_DEADLINE_MS")
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            task_soft_deadline: None,
            task_hard_deadline: None,
            dlq: None,
            ha: None,
        }
    }
}

/// The engine's one read of the process environment (`SS_PARALLELISM`,
/// `SS_EPOCH_DEADLINE_MS`, `SS_EVENT_LOG`): `name` parsed as `T`, or
/// `None` when unset, empty or unparsable.
pub(super) fn env_var<T: FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    if value.is_empty() {
        return None;
    }
    value.parse().ok()
}
