//! The exchange: how a stateful operator (or a stateless root) obtains
//! its input and runs its kernel at a given partition count.
//!
//! There is one epoch executor — `IncNode::execute_epoch` — and
//! partitioning is a property of the [`Exchange`] handed to it through
//! `EpochContext`. At **one partition** the exchange is the identity:
//! input comes from the engine thread (the recursive walk, or the
//! chain runner fused into an aggregate's ingest), kernels run inline
//! against the unsharded `{op_id}` namespaces, no pool exists and
//! nothing here is called. At **N partitions** the same operators run
//! as two stages on a worker pool (`ss-sched`):
//!
//! 1. **Map stage** ([`map_stage`]) — the operator's input, a stateless
//!    chain over one scan, is lifted out of the tree
//!    ([`Chain::lift`]); tasks share it and run the chain runner
//!    ([`ChainRun`]) over their own row range of the scan, a vector at
//!    a time or whole as their consumer wants. [`shuffle`] extends the
//!    map task with keying (an aggregate folds its vectors into one
//!    *partial* per group, a join chunk becomes keyed delta rows) and
//!    hash-buckets the result by [`ss_common::shuffle_partition`], so
//!    every key is **owned by exactly one reduce partition**.
//! 2. **Reduce stage** ([`reduce`]) — each partition runs the operator's
//!    one kernel against its own state namespace ([`shard_ns`]:
//!    `{op_id}/p{r}`, joins `{op_id}/p{r}-left/-right`).
//!
//! ## Determinism
//!
//! The merged epoch output is **byte-identical at every partition
//! count**, regardless of worker count or OS interleaving:
//!
//! * an aggregate runs partitioned only when it is *combinable*
//!   (`COUNT`, `MIN`, `MAX`, `SUM` over `Int64`): merging partials is
//!   then order-free, so a shard ends with the bytes one `update_batch`
//!   over the whole input would leave, and the same groups marked
//!   changed. Anything else (`AVG`, `SUM` over `Float64`) runs at one
//!   partition;
//! * join map outputs are concatenated in chunk order, so shuffled rows
//!   reach their owning partition in original arrival order;
//! * aggregate shards emit key-sorted rows and keys never span shards,
//!   so concat-then-sort reproduces the one-partition (key-sorted)
//!   emission order; join shards emit `TaggedRow`s whose `(phase, idx,
//!   key, seq)` sort key reconstructs the one-partition sequence;
//! * the worker pool itself returns results in task-index order and
//!   resolves failures lowest-index-first.
//!
//! Plans that are not provably chunk-safe (non-combinable aggregates,
//! shared scans, stateful UDFs, dedup, right-outer static joins, …; see
//! [`chunk_safe`]) run at one partition whatever parallelism was
//! requested.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ss_common::clock::ClockRef;
use ss_common::profile::{
    ShuffleProfile, PHASE_MAP, PHASE_REDUCE, PHASE_SHUFFLE_READ, PHASE_SHUFFLE_WRITE,
};
use ss_common::{
    shuffle_partition, FaultRegistry, MetricsRegistry, Result, RetryPolicy, Row, SsError, TraceLog,
};
use ss_sched::{failpoints, ScatterStats, WorkerPool};
use ss_state::StateEntry;

use crate::incremental::{chain_kind, Chain, ChainRun, EpochContext, IncNode, OpRun};
use crate::microbatch::MicroBatchConfig;
use crate::upgrade::StateMigration;

/// The partition count an epoch's plan runs at, plus — above one — the
/// worker pool its stages are scheduled on.
pub struct Exchange {
    partitions: usize,
    /// `None` at one partition: nothing is ever scheduled.
    workers: Option<Workers>,
}

struct Workers {
    pool: WorkerPool,
    env: TaskEnv,
}

impl Exchange {
    /// The one-partition exchange: everything runs inline.
    pub fn identity() -> Exchange {
        Exchange {
            partitions: 1,
            workers: None,
        }
    }

    /// The exchange `root` runs through under `config`:
    /// `shuffle_partitions` partitions (following `parallelism` when
    /// unset) on a `parallelism`-worker pool, or the identity when
    /// that is one partition, one worker, or the plan is not
    /// [`chunk_safe`].
    pub(crate) fn for_plan(
        root: &IncNode,
        config: &MicroBatchConfig,
        env: &TaskEnv,
        trace: &TraceLog,
    ) -> Exchange {
        let registry = &env.registry;
        let partitions = match config.shuffle_partitions {
            0 => config.parallelism,
            n => n,
        };
        if config.parallelism <= 1 || partitions <= 1 || !chunk_safe(root) {
            return Exchange::identity();
        }
        registry.describe(
            "ss_exchange_input_rows_total",
            "Rows entering the exchange's map side; over ss_shuffle_rows_total, the combine ratio.",
        );
        registry.describe(
            "ss_shuffle_rows_total",
            "Items moved through the shuffle exchange: aggregate partials or join rows.",
        );
        registry.describe(
            "ss_shuffle_bytes_total",
            "Approximate bytes of the items moved through the shuffle exchange.",
        );
        registry.describe(
            "ss_shuffle_key_skew_x1000",
            "Hottest reduce partition's items over the mean, x1000 (last epoch).",
        );
        let pool = WorkerPool::new(
            config.parallelism,
            Some(registry.clone()),
            Some(trace.clone()),
        )
        .with_deadline(config.task_hard_deadline)
        .with_clock(config.clock.clone());
        let env = env.clone();
        Exchange {
            partitions,
            workers: Some(Workers { pool, env }),
        }
    }

    /// Number of partitions (= state shards per stateful operator);
    /// recorded in the checkpoint manifest.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    fn workers(&self) -> Result<&Workers> {
        self.workers
            .as_ref()
            .ok_or_else(|| SsError::Internal("exchange stage scheduled at one partition".into()))
    }
}

/// Profiling facts the exchange records while an epoch runs at N
/// partitions; empty at one.
#[derive(Debug, Clone, Default)]
pub struct ExchangeStats {
    /// Aggregate task stats across the epoch's scatters.
    pub scatter: ScatterStats,
    /// `(phase, µs)` for the children of the `execute` phase:
    /// map / shuffle-write / shuffle-read / reduce / merge. All are
    /// engine-thread wall time except shuffle-write, which is CPU time
    /// summed across map tasks (it runs inside them) and may therefore
    /// exceed sibling wall durations on multi-core runs.
    pub phases: Vec<(&'static str, u64)>,
    /// Per-partition shuffle rows/bytes and the key-skew ratio; `None`
    /// when the plan has no shuffle (stateless map plans).
    pub shuffle: Option<ShuffleProfile>,
}

impl ExchangeStats {
    /// Attribute the wall time since `started` to `phase`.
    pub(crate) fn phase(&mut self, phase: &'static str, started: Instant) {
        self.phases
            .push((phase, started.elapsed().as_micros() as u64));
    }
}

/// The durability environment: fail points, retry policy (with the
/// clock its backoffs sleep on and the interrupt flag that cuts them
/// short) and the metric registry the retries report into. The engine
/// holds one for its own durability paths and every task closure
/// captures a clone.
#[derive(Clone)]
pub(crate) struct TaskEnv {
    pub(crate) faults: FaultRegistry,
    retry: RetryPolicy,
    clock: ClockRef,
    interrupt: Arc<AtomicBool>,
    pub(crate) registry: MetricsRegistry,
}

impl TaskEnv {
    pub(crate) fn new(config: &MicroBatchConfig, registry: &MetricsRegistry) -> TaskEnv {
        TaskEnv {
            faults: config.faults.clone(),
            retry: config.retry,
            clock: config.clock.clone(),
            interrupt: config.interrupt.clone(),
            registry: registry.clone(),
        }
    }

    /// Run `f` under the retry policy, recording retry activity in the
    /// registry (`ss_retry_attempts_total` counts re-attempts,
    /// `ss_retries_exhausted_total` counts calls that failed
    /// transiently after using up the policy,
    /// `ss_retry_interrupted_total` counts backoffs cut short by the
    /// interrupt flag). Backoff sleeps run on the clock and abort
    /// within one poll interval once the interrupt is raised (`stop()`
    /// on a background query raises it).
    pub(crate) fn retried<T>(&self, op: &str, f: impl FnMut() -> Result<T>) -> Result<T> {
        let interrupted = || self.interrupt.load(std::sync::atomic::Ordering::SeqCst);
        let out = ss_common::retry::retry_with(&self.retry, self.clock.as_ref(), &interrupted, f);
        for (metric, n) in [
            ("ss_retry_attempts_total", u64::from(out.retries)),
            ("ss_retries_exhausted_total", u64::from(out.exhausted)),
            ("ss_retry_interrupted_total", u64::from(out.interrupted)),
        ] {
            if n > 0 {
                self.registry.counter(metric, &[("op", op)]).add(n);
            }
        }
        out.result
    }

    /// The preamble of every task body: the (retried) task-run fail
    /// point, then the hang fail point.
    fn enter(&self) -> Result<()> {
        self.retried("sched_task_run", || self.faults.fire(failpoints::TASK_RUN))?;
        self.faults.fire(failpoints::TASK_HANG)
    }
}

type Task<R> = Box<dyn FnOnce() -> Result<R> + Send>;

/// Run one stage's task bodies on the pool, each behind the task
/// preamble; the stage's wall time and task stats go to `ctx.run`.
fn scatter<R: Send + 'static>(
    ctx: &mut EpochContext<'_>,
    stage: &'static str,
    bodies: Vec<Task<R>>,
) -> Result<Vec<R>> {
    let workers = ctx.exchange.workers()?;
    let tasks: Vec<Task<R>> = bodies
        .into_iter()
        .map(|body| {
            let env = workers.env.clone();
            Box::new(move || {
                env.enter()?;
                body()
            }) as Task<R>
        })
        .collect();
    let started = Instant::now();
    let out = workers.pool.scatter(stage, tasks)?;
    ctx.run.phase(stage, started);
    ctx.run.scatter.absorb(out.stats);
    Ok(out.results)
}

/// Map stage over one or more chunk-safe inputs ("sides"): split each
/// side's scan into at most `partitions` row chunks and, per chunk on
/// the pool, hand `then(side, chunk index, run)` the side's stateless
/// chain poised over the chunk's rows — to run a vector at a time or
/// whole, as its consumer wants. Returns the `then` outputs as
/// `[side][chunk]`; the runs' per-operator stats and event-time maxima
/// are recorded on the engine thread.
pub(crate) fn map_stage<R: Send + 'static>(
    ctx: &mut EpochContext<'_>,
    inputs: &mut [&mut IncNode],
    then: impl Fn(usize, usize, &mut ChainRun<'_>) -> Result<R> + Send + Sync + 'static,
) -> Result<Vec<Vec<R>>> {
    let partitions = ctx.exchange.partitions();
    let faults = ctx.exchange.workers()?.env.faults.clone();
    let watermark_us = ctx.watermark_us;
    let then = Arc::new(then);
    let mut bodies: Vec<Task<(R, Vec<OpRun>)>> = Vec::new();
    let mut sides = Vec::with_capacity(inputs.len());
    for (side, input) in inputs.iter_mut().enumerate() {
        // Tasks share the chain and read their own rows of its scan in
        // place: the engine thread does no per-row work before they
        // start.
        let chain = Arc::new(Chain::lift(input, ctx)?);
        // An empty batch still produces one (empty) chunk so stateful
        // reduce stages run (watermark-driven eviction happens on
        // empty epochs too).
        let rows = chain.scan.num_rows();
        let chunk_rows = rows.div_ceil(partitions).max(1);
        let chunks = rows.div_ceil(chunk_rows).max(1);
        for i in 0..chunks {
            let (chain, then, faults) = (chain.clone(), then.clone(), faults.clone());
            bodies.push(Box::new(move || {
                let range = i * chunk_rows..rows.min((i + 1) * chunk_rows);
                let mut run = chain.run(range, watermark_us, &faults);
                let out = then(side, i, &mut run)?;
                Ok((out, run.stats))
            }));
        }
        sides.push((chain, chunks));
    }
    let mut results = scatter(ctx, PHASE_MAP, bodies)?.into_iter();
    Ok(sides
        .into_iter()
        .map(|(chain, chunks)| {
            let outs = results.by_ref().take(chunks);
            outs.map(|(out, stats)| {
                chain.record(ctx, &stats);
                out
            })
            .collect()
        })
        .collect())
}

/// Map → shuffle: a [`map_stage`] whose tasks turn their chunk into
/// keyed items (`keyed(side, chunk index, run)`) and bucket them by
/// `partition(item, partitions)`. Returns the items as
/// `[side][partition]`, each list in original arrival order, and
/// records the exchange's volume and skew under `op_id`.
pub(crate) fn shuffle<T: Send + 'static>(
    ctx: &mut EpochContext<'_>,
    op_id: &str,
    inputs: &mut [&mut IncNode],
    keyed: impl Fn(usize, usize, &mut ChainRun<'_>) -> Result<Vec<T>> + Send + Sync + 'static,
    partition: impl Fn(&T, usize) -> usize + Send + Sync + 'static,
    approx_bytes: fn(&T) -> usize,
) -> Result<Vec<Vec<Vec<T>>>> {
    let parts = ctx.exchange.partitions();
    let env = ctx.exchange.workers()?.env.clone();
    let registry = env.registry.clone();
    let mapped = map_stage(ctx, inputs, move |side, i, run| {
        let items = keyed(side, i, run)?;
        env.retried("sched_shuffle_write", || {
            env.faults.fire(failpoints::SHUFFLE_WRITE)
        })?;
        let write = Instant::now();
        let mut buckets: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        for item in items {
            buckets[partition(&item, parts)].push(item);
        }
        Ok((buckets, write.elapsed().as_micros() as u64, run.rows_out))
    })?;
    // Shuffle read: concatenate per-chunk buckets in chunk order so
    // each partition receives its keys' items in the original global
    // arrival order.
    let read = Instant::now();
    let mut write_us = 0u64;
    let mut input_rows = 0u64;
    let mut part_rows = vec![0u64; parts];
    let mut part_bytes = vec![0u64; parts];
    let shuffled: Vec<Vec<Vec<T>>> = mapped
        .into_iter()
        .map(|chunks| {
            let mut side: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
            for (buckets, us, rows_in) in chunks {
                write_us += us;
                input_rows += rows_in;
                for (r, bucket) in buckets.into_iter().enumerate() {
                    side[r].extend(bucket);
                }
            }
            for (r, items) in side.iter().enumerate() {
                part_rows[r] += items.len() as u64;
                part_bytes[r] += items.iter().map(|t| approx_bytes(t) as u64).sum::<u64>();
            }
            side
        })
        .collect();
    ctx.run.phases.push((PHASE_SHUFFLE_WRITE, write_us));
    ctx.run.phase(PHASE_SHUFFLE_READ, read);
    let prof = ShuffleProfile::new(part_rows, part_bytes);
    registry
        .counter("ss_exchange_input_rows_total", &[("op", op_id)])
        .add(input_rows);
    registry
        .counter("ss_shuffle_rows_total", &[("op", op_id)])
        .add(prof.total_rows());
    registry
        .counter("ss_shuffle_bytes_total", &[("op", op_id)])
        .add(prof.total_bytes());
    registry
        .gauge("ss_shuffle_key_skew_x1000", &[("op", op_id)])
        .set((prof.key_skew * 1000.0) as i64);
    ctx.run.shuffle = Some(prof);
    Ok(shuffled)
}

/// Reduce stage: run `kernel` once per partition's work item on the
/// pool; results come back in partition order.
pub(crate) fn reduce<S: Send + 'static, R: Send + 'static>(
    ctx: &mut EpochContext<'_>,
    work: Vec<S>,
    kernel: impl Fn(S) -> Result<R> + Send + Sync + 'static,
) -> Result<Vec<R>> {
    let kernel = Arc::new(kernel);
    let bodies = work
        .into_iter()
        .map(|item| {
            let kernel = kernel.clone();
            Box::new(move || kernel(item)) as Task<R>
        })
        .collect();
    scatter(ctx, PHASE_REDUCE, bodies)
}

/// The state-store namespace of partition `r` of a stateful operator
/// family: `{base}{suffix}` at one partition, `{base}/p{r}{suffix}`
/// at N.
pub(crate) fn shard_ns(base: &str, r: usize, partitions: usize, suffix: &str) -> String {
    if partitions <= 1 {
        format!("{base}{suffix}")
    } else {
        format!("{base}/p{r}{suffix}")
    }
}

/// Can the whole plan run partitioned? True for a stateless chain, a
/// combinable aggregate over one, or a stream–stream join of two —
/// optionally under the Complete-mode `Sort`/`Limit` suffix of an
/// aggregate (which runs on the merged output).
fn chunk_safe(root: &IncNode) -> bool {
    let mut node = root;
    let mut suffix = false;
    while let IncNode::Sort { input, .. } | IncNode::Limit { input, .. } = node {
        node = input;
        suffix = true;
    }
    match node {
        // Shards merge map-side partials in no fixed order: byte-exact
        // only when every aggregate is combinable.
        IncNode::Aggregate { input, agg, .. } => agg.is_combinable() && chunk_safe_chain(input),
        IncNode::StreamJoin { left, right, .. } => {
            !suffix && chunk_safe_chain(left) && chunk_safe_chain(right)
        }
        _ => !suffix && chunk_safe_chain(node),
    }
}

/// A chain of chunk-safe stateless operators over an unshared scan.
fn chunk_safe_chain(node: &IncNode) -> bool {
    chain_kind(node) == Some(true)
}

/// The owner's route for the restore
/// ([`restore_best_routed`](ss_state::StateStore::restore_best_routed)):
/// an entry of one of the plan's state `families` (`(namespace base,
/// suffix)`, as [`IncNode::declare_state`] lists them), in whatever
/// layout it was checkpointed (`{base}{suffix}` or any
/// `{base}/p{r}{suffix}`), is rewritten by the family's migration if it
/// has the old arity, then goes to its shard under `to` partitions,
/// [`shuffle_partition`]`(key, to)`. A checkpoint in that layout and
/// version moves nothing; other namespaces stay.
pub fn relayout<'a>(
    families: Vec<(String, &'static str)>,
    migrations: &'a [StateMigration],
    to: usize,
) -> impl FnMut(&str, &Row, &mut StateEntry) -> Option<String> + 'a {
    let to = to.max(1);
    let families: Vec<_> = families
        .into_iter()
        .map(|(base, suffix)| {
            let flat = shard_ns(&base, 0, 1, suffix);
            let migration = migrations.iter().find(|m| m.op_id == flat);
            let targets: Vec<String> = (0..to).map(|r| shard_ns(&base, r, to, suffix)).collect();
            (base, suffix, migration, targets)
        })
        .collect();
    let in_family = |ns: &str, (base, suffix): (&str, &str)| {
        let shard = ns.strip_prefix(base).and_then(|rest| rest.strip_suffix(suffix));
        let digits = |n: &str| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit());
        shard.is_some_and(|s| s.is_empty() || s.strip_prefix("/p").is_some_and(digits))
    };
    // Entries arrive namespace by namespace: look each one's family up once.
    let mut last: (String, Option<usize>) = (String::new(), None);
    move |ns, key, entry| {
        if last.0 != ns {
            let family = families.iter().position(|(b, s, ..)| in_family(ns, (b, s)));
            last = (ns.to_string(), family);
        }
        let (_, _, migration, targets) = &families[last.1?];
        let rewritten = migration.is_some_and(|m| m.apply(entry));
        let target = &targets[if to == 1 { 0 } else { shuffle_partition(key, to) }];
        (rewritten || target != ns).then(|| target.clone())
    }
}
