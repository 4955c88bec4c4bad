//! # ss-sched — data-parallel task scheduler
//!
//! A fixed-size worker pool that runs an epoch's per-partition tasks in
//! parallel, in the role Spark's task scheduler plays for the paper's
//! engine (§4.2): each microbatch compiles to *stages* of independent
//! tasks, a shuffle exchange moves rows between stages by key, and the
//! results are collected so downstream code observes a deterministic
//! order no matter how the OS interleaved the workers.
//!
//! The pool itself is deliberately small and policy-free:
//!
//! * [`WorkerPool::scatter`] fans a vector of closures out to the
//!   workers and gathers their results **in task-index order** — the
//!   caller's submission order fully determines the observed order, so
//!   merges built on top of it stay byte-identical run to run.
//! * Task panics are caught on the worker, shipped back, and re-raised
//!   on the *calling* thread only after every task has finished, so a
//!   crashing task never leaves the pool holding half an epoch. When
//!   several tasks fail, the lowest-index failure wins — again for
//!   determinism under chaos schedules.
//! * Per-task metrics (`ss_task_duration_us` histogram per stage,
//!   `ss_task_queue_wait_us` gauge) and a trace span per task make the
//!   parallel schedule observable with the same tooling as the rest of
//!   the engine.
//!
//! What runs *inside* the tasks — operator kernels, shuffle bucketing,
//! sharded state updates — lives in `ss-core::parallel`; this crate
//! only promises "run these, give them back in order, lose nothing."

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ss_common::clock::{system_clock, ClockRef};
use ss_common::metrics::MetricsRegistry;
use ss_common::profile::TaskSkew;
use ss_common::trace::TraceLog;
use ss_common::{Result, SsError};

/// Fail points inside worker tasks, used by the chaos suite to crash
/// parallel schedules mid-flight (see `ss_common::fault`).
pub mod failpoints {
    /// Fires at the start of every scheduled task body.
    pub const TASK_RUN: &str = "sched.task.run";
    /// Fires while a map task writes rows into shuffle buckets.
    pub const SHUFFLE_WRITE: &str = "sched.shuffle.write";
    /// Fires at the start of a task body with `FaultMode::Hang` to
    /// simulate a task that never returns (watchdog chaos suite).
    pub const TASK_HANG: &str = "sched.task.hang";
}

/// How often `gather` wakes to check its deadlines while waiting for
/// task reports.
const GATHER_POLL: Duration = Duration::from_millis(2);

/// A unit of work scheduled onto the pool: run on a worker thread,
/// result delivered back through a channel.
type Job = Box<dyn FnOnce() + Send>;

/// Aggregate timing facts from one [`WorkerPool::scatter`] call,
/// surfaced on `QueryProgress` when running parallel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScatterStats {
    /// Longest time any task sat queued before a worker picked it up.
    pub max_queue_wait_us: u64,
    /// Raw wall-clock duration of every task, in completion order: one
    /// per task launched. The profile summarizes these into the task
    /// count and min/p50/p99/max skew stats.
    pub task_durations_us: Vec<u64>,
}

impl ScatterStats {
    /// Fold another scatter's stats into this one (an epoch runs
    /// several stages; progress reports the epoch-wide totals).
    pub fn absorb(&mut self, other: ScatterStats) {
        self.max_queue_wait_us = self.max_queue_wait_us.max(other.max_queue_wait_us);
        self.task_durations_us.extend(other.task_durations_us);
    }

    /// Per-task skew summary (min/p50/p99/max); `None` when no tasks
    /// ran.
    pub fn skew(&self) -> Option<TaskSkew> {
        TaskSkew::from_durations(&self.task_durations_us)
    }
}

/// Results of a scatter: per-task outputs in task-index order.
#[derive(Debug)]
pub struct ScatterResult<R> {
    pub results: Vec<R>,
    pub stats: ScatterStats,
}

enum TaskOutcome<R> {
    Ok(R),
    Err(SsError),
    Panic(Box<dyn std::any::Any + Send>),
}

struct TaskReport<R> {
    index: usize,
    outcome: TaskOutcome<R>,
    queue_wait_us: u64,
    duration_us: u64,
}

/// The replaceable part of the pool: the job queue and the worker
/// generation currently serving it. Swapped wholesale when a hard
/// deadline abandons a stuck worker.
struct PoolCore {
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

/// A fixed-size pool of persistent worker threads.
///
/// Workers are spawned once (per query) and fed through a shared queue;
/// dropping the pool closes the queue and joins every worker.
///
/// Deadlines (both off by default, see [`with_deadlines`]):
/// * **soft** — a stage running past it is noted once as a straggler
///   (`ss_task_deadline_exceeded_total{kind="soft"}` + a trace mark)
///   but keeps running;
/// * **hard** — the stage fails with a transient [`SsError::Timeout`].
///   The stuck worker cannot be killed, so it is *abandoned*: the whole
///   worker generation is detached and a fresh one spawned, leaving the
///   pool immediately usable. Idle abandoned workers exit on their own
///   (their queue is gone); the stuck one leaks until whatever wedged
///   it returns.
///
/// [`with_deadlines`]: WorkerPool::with_deadlines
pub struct WorkerPool {
    size: usize,
    core: Mutex<PoolCore>,
    metrics: Option<MetricsRegistry>,
    trace: Option<TraceLog>,
    soft_deadline: Option<Duration>,
    hard_deadline: Option<Duration>,
    /// The clock stage deadlines are measured on. Virtual under
    /// simulation, so a hung stage's hard deadline fires in virtual
    /// time instead of stalling the suite.
    clock: ClockRef,
}

impl WorkerPool {
    /// Spawn `size` worker threads (clamped to at least 1).
    pub fn new(size: usize, metrics: Option<MetricsRegistry>, trace: Option<TraceLog>) -> WorkerPool {
        let size = size.max(1);
        let (tx, workers) = Self::spawn_workers(size);
        if let Some(m) = &metrics {
            m.describe(
                "ss_task_duration_us",
                "Wall-clock duration of scheduled per-partition tasks",
            );
            m.describe(
                "ss_task_queue_wait_us",
                "Longest queue wait of any task in the most recent stage",
            );
            m.describe(
                "ss_task_deadline_exceeded_total",
                "Stages that overran a task deadline, by kind (soft|hard)",
            );
        }
        WorkerPool {
            size,
            core: Mutex::new(PoolCore { queue: Some(tx), workers }),
            metrics,
            trace,
            soft_deadline: None,
            hard_deadline: None,
            clock: system_clock(),
        }
    }

    /// Set the per-stage straggler (`soft`) and abandonment (`hard`)
    /// deadlines; `None` disables either.
    pub fn with_deadlines(
        mut self,
        soft: Option<Duration>,
        hard: Option<Duration>,
    ) -> WorkerPool {
        self.soft_deadline = soft;
        self.hard_deadline = hard;
        self
    }

    /// Measure stage deadlines on `clock` instead of the system clock.
    pub fn with_clock(mut self, clock: ClockRef) -> WorkerPool {
        self.clock = clock;
        self
    }

    fn spawn_workers(size: usize) -> (Sender<Job>, Vec<JoinHandle<()>>) {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..size)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("ss-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn worker thread")
            })
            .collect();
        (tx, workers)
    }

    /// Abandon the current worker generation (one of them is stuck) and
    /// spawn a fresh one so the pool stays usable. The old handles are
    /// detached, not joined — joining would block on the stuck worker;
    /// the healthy ones exit as soon as they see their queue is gone.
    fn replenish(&self) {
        let mut core = self.core.lock().unwrap_or_else(|p| p.into_inner());
        core.queue = None;
        core.workers.clear();
        let (tx, workers) = Self::spawn_workers(self.size);
        core.queue = Some(tx);
        core.workers = workers;
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `tasks` on the pool and return their results **in task-index
    /// order**, together with timing stats.
    ///
    /// All tasks are always driven to completion before this returns,
    /// even when some fail: a task owns state moved into its closure,
    /// and abandoning in-flight siblings would tear the epoch. Failure
    /// resolution is deterministic — if any task panicked, the panic of
    /// the lowest-index panicking task is re-raised here; otherwise if
    /// any task errored, the lowest-index error is returned.
    pub fn scatter<R: Send + 'static>(
        &self,
        stage: &str,
        tasks: Vec<Box<dyn FnOnce() -> Result<R> + Send>>,
    ) -> Result<ScatterResult<R>> {
        let n = tasks.len();
        if n == 0 {
            return Ok(ScatterResult { results: Vec::new(), stats: ScatterStats::default() });
        }
        let queue = {
            let core = self.core.lock().unwrap_or_else(|p| p.into_inner());
            core.queue.clone().expect("pool is live until dropped")
        };
        let (report_tx, report_rx) = channel::<TaskReport<R>>();
        let hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("ss_task_duration_us", &[("stage", stage)]));
        for (index, task) in tasks.into_iter().enumerate() {
            let report_tx = report_tx.clone();
            let hist = hist.clone();
            let trace = self.trace.clone();
            let stage = stage.to_string();
            let enqueued = Instant::now();
            // Under a virtual clock the task must count as runnable
            // from enqueue to completion, or the simulation would
            // fast-forward past deadlines while the task computes: the
            // pin covers the queue wait, the scope covers execution.
            let clock = self.clock.clone();
            let pin = self.clock.pin();
            let job: Job = Box::new(move || {
                let _scope = clock.enter_scope();
                drop(pin);
                let queue_wait_us = enqueued.elapsed().as_micros() as u64;
                let span = trace.as_ref().map(|t| {
                    t.span(
                        &format!("task:{stage}"),
                        &[("task", index.to_string().as_str())],
                    )
                });
                let started = Instant::now();
                let outcome = match panic::catch_unwind(AssertUnwindSafe(task)) {
                    Ok(Ok(r)) => TaskOutcome::Ok(r),
                    Ok(Err(e)) => TaskOutcome::Err(e),
                    Err(payload) => TaskOutcome::Panic(payload),
                };
                let duration_us = started.elapsed().as_micros() as u64;
                drop(span);
                if let Some(h) = &hist {
                    h.observe(duration_us);
                }
                // The receiver only disappears if the scattering thread
                // itself died; nothing left to report to.
                let _ = report_tx.send(TaskReport { index, outcome, queue_wait_us, duration_us });
            });
            queue
                .send(job)
                .map_err(|_| SsError::Internal("worker pool queue closed".into()))?;
        }
        drop(report_tx);
        self.gather(n, &report_rx, stage)
    }

    fn gather<R>(
        &self,
        n: usize,
        report_rx: &Receiver<TaskReport<R>>,
        stage: &str,
    ) -> Result<ScatterResult<R>> {
        let mut slots: Vec<Option<TaskOutcome<R>>> = (0..n).map(|_| None).collect();
        let mut stats = ScatterStats::default();
        let started_us = self.clock.monotonic_us();
        let mut soft_noted = false;
        for done in 0..n {
            let report = loop {
                // Under a virtual clock the channel timeout cannot see
                // virtual time, so poll with a clock sleep instead —
                // the sleep is what lets a simulated stage deadline
                // advance and fire.
                let next = if self.clock.is_virtual() {
                    match report_rx.try_recv() {
                        Ok(report) => Some(report),
                        Err(TryRecvError::Disconnected) => {
                            return Err(SsError::Internal(format!(
                                "worker pool lost a task report in stage {stage}"
                            )))
                        }
                        Err(TryRecvError::Empty) => {
                            self.clock.sleep(GATHER_POLL);
                            None
                        }
                    }
                } else {
                    match report_rx.recv_timeout(GATHER_POLL) {
                        Ok(report) => Some(report),
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(SsError::Internal(format!(
                                "worker pool lost a task report in stage {stage}"
                            )))
                        }
                        Err(RecvTimeoutError::Timeout) => None,
                    }
                };
                match next {
                    Some(report) => break report,
                    None => {
                        let elapsed = Duration::from_micros(
                            self.clock.monotonic_us().saturating_sub(started_us),
                        );
                        if !soft_noted
                            && self.soft_deadline.is_some_and(|soft| elapsed >= soft)
                        {
                            soft_noted = true;
                            self.note_deadline(stage, "soft");
                        }
                        if self.hard_deadline.is_some_and(|hard| elapsed >= hard) {
                            self.note_deadline(stage, "hard");
                            self.replenish();
                            return Err(SsError::Timeout(format!(
                                "stage {stage}: {} of {n} task(s) still running after \
                                 hard deadline of {:?}; stuck worker abandoned",
                                n - done,
                                self.hard_deadline.expect("checked above"),
                            )));
                        }
                    }
                }
            };
            stats.max_queue_wait_us = stats.max_queue_wait_us.max(report.queue_wait_us);
            stats.task_durations_us.push(report.duration_us);
            slots[report.index] = Some(report.outcome);
        }
        if let Some(m) = &self.metrics {
            m.gauge("ss_task_queue_wait_us", &[("stage", stage)])
                .set(stats.max_queue_wait_us as i64);
        }
        // Every task has finished; resolve failures deterministically.
        let mut first_err: Option<SsError> = None;
        let mut results = Vec::with_capacity(n);
        for slot in slots {
            match slot.expect("every index reported exactly once") {
                TaskOutcome::Panic(payload) => panic::resume_unwind(payload),
                TaskOutcome::Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                TaskOutcome::Ok(r) => results.push(r),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(ScatterResult { results, stats }),
        }
    }

    /// Record a deadline crossing: metric counter plus a zero-duration
    /// trace mark so the schedule shows *when* the straggler was noted.
    fn note_deadline(&self, stage: &str, kind: &str) {
        if let Some(m) = &self.metrics {
            m.counter(
                "ss_task_deadline_exceeded_total",
                &[("stage", stage), ("kind", kind)],
            )
            .inc();
        }
        if let Some(t) = &self.trace {
            drop(t.span(&format!("deadline-{kind}:{stage}"), &[("kind", kind)]));
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // queue closed: pool dropped
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut core = self.core.lock().unwrap_or_else(|p| p.into_inner());
        drop(core.queue.take()); // close the queue so workers exit
        for w in core.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<R: Send + 'static>(
        f: impl FnOnce() -> Result<R> + Send + 'static,
    ) -> Box<dyn FnOnce() -> Result<R> + Send> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_task_index_order() {
        let pool = WorkerPool::new(4, None, None);
        for _ in 0..20 {
            let tasks: Vec<_> = (0..16u64)
                .map(|i| {
                    boxed(move || {
                        // Stagger completion so out-of-order finish is likely.
                        std::thread::sleep(std::time::Duration::from_micros(
                            (16 - i) * 50,
                        ));
                        Ok(i * 10)
                    })
                })
                .collect();
            let out = pool.scatter("test", tasks).unwrap();
            assert_eq!(out.results, (0..16u64).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(out.stats.task_durations_us.len(), 16);
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let pool = WorkerPool::new(4, None, None);
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                boxed(move || -> Result<()> {
                    if i >= 3 {
                        Err(SsError::Execution(format!("task {i} failed")))
                    } else {
                        Ok(())
                    }
                })
            })
            .collect();
        let err = pool.scatter("test", tasks).unwrap_err();
        assert!(matches!(&err, SsError::Execution(m) if m == "task 3 failed"), "{err:?}");
    }

    #[test]
    fn all_tasks_run_even_when_one_errors() {
        let pool = WorkerPool::new(2, None, None);
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..6)
            .map(|i| {
                let ran = Arc::clone(&ran);
                boxed(move || -> Result<()> {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        Err(SsError::Execution("boom".into()))
                    } else {
                        Ok(())
                    }
                })
            })
            .collect();
        assert!(pool.scatter("test", tasks).is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2, None, None);
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                boxed(move || -> Result<()> {
                    if i == 2 {
                        panic!("injected task panic");
                    }
                    Ok(())
                })
            })
            .collect();
        let caught =
            panic::catch_unwind(AssertUnwindSafe(|| pool.scatter("test", tasks).map(|_| ())));
        let payload = caught.expect_err("scatter should re-raise the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "injected task panic");
        // Pool must still be usable after a panic.
        let out = pool
            .scatter("test", vec![boxed(|| Ok(7u64))])
            .unwrap();
        assert_eq!(out.results, vec![7]);
    }

    #[test]
    fn empty_scatter_is_a_noop() {
        let pool = WorkerPool::new(2, None, None);
        let out = pool
            .scatter("test", Vec::<Box<dyn FnOnce() -> Result<u64> + Send>>::new())
            .unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats, ScatterStats::default());
    }

    #[test]
    fn metrics_record_task_durations() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, Some(registry.clone()), None);
        let tasks: Vec<_> = (0..5).map(|i| boxed(move || Ok(i))).collect();
        pool.scatter("map", tasks).unwrap();
        let hist = registry.histogram("ss_task_duration_us", &[("stage", "map")]);
        assert_eq!(hist.count(), 5);
    }

    #[test]
    fn soft_deadline_notes_straggler_without_failing() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, Some(registry.clone()), None)
            .with_deadlines(Some(Duration::from_millis(10)), None);
        let tasks: Vec<_> = (0..2u64)
            .map(|i| {
                boxed(move || {
                    std::thread::sleep(Duration::from_millis(30 * i));
                    Ok(i)
                })
            })
            .collect();
        let out = pool.scatter("slow", tasks).unwrap();
        assert_eq!(out.results, vec![0, 1]);
        let soft = registry.counter(
            "ss_task_deadline_exceeded_total",
            &[("stage", "slow"), ("kind", "soft")],
        );
        assert_eq!(soft.get(), 1, "straggler noted exactly once");
    }

    #[test]
    fn hard_deadline_abandons_stuck_worker_and_replenishes() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, Some(registry.clone()), None)
            .with_deadlines(None, Some(Duration::from_millis(50)));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stuck = Arc::clone(&release);
        let started = Instant::now();
        let tasks: Vec<Box<dyn FnOnce() -> Result<u64> + Send>> = vec![
            boxed(move || {
                // Simulates a wedged task: spins until released at the
                // end of the test (never within the deadline).
                while !stuck.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(1)
            }),
            boxed(|| Ok(2)),
        ];
        let err = pool.scatter("wedge", tasks).unwrap_err();
        assert!(matches!(err, SsError::Timeout(_)), "{err:?}");
        assert!(err.is_transient(), "hard-deadline failures are retryable");
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "must fail near the deadline, not hang"
        );
        let hard = registry.counter(
            "ss_task_deadline_exceeded_total",
            &[("stage", "wedge"), ("kind", "hard")],
        );
        assert_eq!(hard.get(), 1);
        // The pool replenished: immediately usable at full size.
        let out = pool
            .scatter("after", (0..4u64).map(|i| boxed(move || Ok(i))).collect())
            .unwrap();
        assert_eq!(out.results, vec![0, 1, 2, 3]);
        release.store(true, Ordering::SeqCst); // let the stuck thread die
    }

    #[test]
    fn hard_deadline_fires_on_virtual_time() {
        // A 60s hard deadline measured on a SimClock: the wedge is
        // simulated (the task stalls on the virtual clock, as injected
        // Hang faults do), so the deadline passes in milliseconds of
        // wall time and the worker is abandoned without really waiting.
        // Tasks register as simulation participants while they run, so
        // virtual time only moves through their own clock calls.
        let sim = ss_common::clock::SimClock::new(0);
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, Some(registry.clone()), None)
            .with_deadlines(Some(Duration::from_secs(10)), Some(Duration::from_secs(60)))
            .with_clock(sim.handle());
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stuck = Arc::clone(&release);
        let task_clock = sim.handle();
        let wall = Instant::now();
        let tasks: Vec<Box<dyn FnOnce() -> Result<u64> + Send>> = vec![boxed(move || {
            while !stuck.load(Ordering::SeqCst) {
                task_clock.sleep(Duration::from_millis(5));
            }
            Ok(1)
        })];
        let err = pool.scatter("virtual-wedge", tasks).unwrap_err();
        assert!(matches!(err, SsError::Timeout(_)), "{err:?}");
        assert!(
            wall.elapsed() < Duration::from_secs(30),
            "a 60s virtual deadline must not take 60s of wall time"
        );
        let soft = registry.counter(
            "ss_task_deadline_exceeded_total",
            &[("stage", "virtual-wedge"), ("kind", "soft")],
        );
        assert_eq!(soft.get(), 1, "the 10s soft deadline fired on the way");
        release.store(true, Ordering::SeqCst);
    }

    #[test]
    fn stats_absorb_takes_max_and_appends_durations() {
        let mut a = ScatterStats {
            max_queue_wait_us: 3,
            task_durations_us: vec![4, 10],
        };
        a.absorb(ScatterStats {
            max_queue_wait_us: 9,
            task_durations_us: vec![7, 2, 1],
        });
        assert_eq!(
            a,
            ScatterStats {
                max_queue_wait_us: 9,
                task_durations_us: vec![4, 10, 7, 2, 1],
            }
        );
    }

    #[test]
    fn scatter_collects_per_task_durations_for_skew() {
        let pool = WorkerPool::new(4, None, None);
        let tasks: Vec<_> = (0..8u64)
            .map(|i| {
                boxed(move || {
                    std::thread::sleep(std::time::Duration::from_micros(i * 100));
                    Ok(i)
                })
            })
            .collect();
        let out = pool.scatter("test", tasks).unwrap();
        assert_eq!(out.stats.task_durations_us.len(), 8);
        let skew = out.stats.skew().expect("skew stats for 8 tasks");
        assert_eq!(skew.count, 8);
        assert!(skew.min_us <= skew.p50_us);
        assert!(skew.p50_us <= skew.p99_us);
        assert!(skew.p99_us <= skew.max_us);
        assert_eq!(Some(&skew.max_us), out.stats.task_durations_us.iter().max());
    }
}
