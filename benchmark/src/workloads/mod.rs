//! The six workloads and what they share: the run environment (seed,
//! scale, optional span recorder), the per-epoch progress log, the
//! closed-loop drain, the open-loop generator, and the report each
//! workload hands back.

pub mod continuous;
pub mod fleet;
pub mod sessions;
pub mod yahoo;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ss_bus::{MessageBus, Sink, Source};
use ss_common::{Result, Row, SsError};
use ss_core::microbatch::EpochRun;
use ss_core::{QueryProgress, StreamingQuery, StreamingQueryListener};
use ss_state::CheckpointBackend;

use crate::clock::now_us;
use crate::stats;
use crate::trace::{self, Recorder, TracedBackend, TracedSink, TracedSource};

/// How much of the full-size workload to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the timed section.
    pub seconds: f64,
    /// ≈ 1 % of the records: the unit tests' scale.
    pub smoke: bool,
}

impl Scale {
    pub fn records(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }
}

/// One run's environment. `rec` is `Some` only in the traced run,
/// which is the only place the wrappers get installed.
pub struct Env {
    pub seed: u64,
    pub scale: Scale,
    pub rec: Option<Arc<Recorder>>,
}

impl Env {
    pub fn traced(&self) -> bool {
        self.rec.is_some()
    }

    pub fn source(&self, inner: Arc<dyn Source>) -> Arc<dyn Source> {
        match &self.rec {
            Some(rec) => TracedSource::new(inner, rec.clone()),
            None => inner,
        }
    }

    pub fn sink(&self, inner: Arc<dyn Sink>) -> Arc<dyn Sink> {
        match &self.rec {
            Some(rec) => TracedSink::new(inner, rec.clone()),
            None => inner,
        }
    }

    pub fn backend(&self, inner: Arc<dyn CheckpointBackend>) -> Arc<dyn CheckpointBackend> {
        match &self.rec {
            Some(rec) => TracedBackend::new(inner, rec.clone()),
            None => inner,
        }
    }

    /// Run `f`, as a container span when traced.
    pub fn span<R>(
        &self,
        name: &'static str,
        epoch: u64,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        match &self.rec {
            Some(rec) => rec.time(name, epoch, || Ok((f()?, 0, 0))),
            None => f(),
        }
    }
}

/// Per-layer metric values by name; names not set read 0.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every sink matched its oracle.
    pub correct: bool,
    /// Input records the workload was due to process, and how many of
    /// them the engine committed by the deadline.
    pub attempted: u64,
    pub delivered: u64,
    /// One sample per repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// One sample per drain (closed loop) or one for the stage (open).
    pub throughput_rps: Vec<f64>,
    /// Closed loop: one sample per epoch (admission → commit). Open
    /// loop: one per emitted row or record (due time → emission).
    pub latency_ms: Vec<f64>,
    pub layers: Layers,
    /// Human-readable findings: sample counts, warnings, mismatches.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report that has not failed an oracle yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("ORACLE MISMATCH: {why}"));
    }

    /// Records due but not committed by the deadline; every record
    /// when an oracle disagrees.
    pub fn failed(&self) -> u64 {
        if self.correct {
            self.attempted.saturating_sub(self.delivered)
        } else {
            self.attempted
        }
    }

    pub fn delivered_ratio(&self) -> f64 {
        self.delivered as f64 / self.attempted.max(1) as f64
    }
}

/// Collects what the engine reports after every epoch (the public
/// `StreamingQueryListener` surface): sizes and durations always, the
/// profiler's phase tree for the traced run's cross-check.
#[derive(Default)]
pub struct EpochLog {
    /// Input rows of all epochs committed so far; read by the
    /// open-loop generator to trim the topic and sample the backlog.
    pub committed_rows: AtomicU64,
    inner: Mutex<EpochLogInner>,
}

#[derive(Default, Clone)]
pub struct EpochLogInner {
    pub epochs: Vec<EpochSample>,
    /// Profiler phase → µs summed over epochs; children of `execute`
    /// are keyed `execute-<child>`.
    pub phase_us: BTreeMap<String, u64>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSample {
    pub end_us: i64,
    pub duration_us: i64,
    pub input_rows: u64,
    pub state_rows: u64,
    pub state_bytes: u64,
    pub tasks: u64,
    pub task_p50_us: u64,
    pub task_max_us: u64,
    /// Rows the watermark operator dropped (scan rows − rows out).
    pub late_dropped: u64,
}

impl EpochLog {
    pub fn new() -> Arc<EpochLog> {
        Arc::new(EpochLog::default())
    }

    pub fn snapshot(&self) -> EpochLogInner {
        self.inner.lock().expect("epoch log lock").clone()
    }
}

impl StreamingQueryListener for EpochLog {
    fn on_progress(&self, p: &QueryProgress) {
        let rows_out = |prefix: &str| {
            p.operator_durations
                .iter()
                .find(|d| d.op.starts_with(prefix))
                .map(|d| d.rows_out)
        };
        let late_dropped = match (rows_out("scan:"), rows_out("watermark:")) {
            (Some(scan), Some(kept)) => scan.saturating_sub(kept),
            _ => 0,
        };
        let tasks = p.profile.as_ref().and_then(|pr| pr.tasks);
        let mut inner = self.inner.lock().expect("epoch log lock");
        inner.epochs.push(EpochSample {
            end_us: now_us(),
            duration_us: p.batch_duration_us,
            input_rows: p.num_input_rows,
            state_rows: p.state_rows,
            state_bytes: p.state_bytes,
            tasks: p.tasks_launched,
            task_p50_us: tasks.map_or(0, |t| t.p50_us),
            task_max_us: p.max_task_duration_us,
            late_dropped,
        });
        if let Some(profile) = &p.profile {
            for phase in &profile.phases {
                let key = match &phase.parent {
                    Some(parent) => format!("{parent}-{}", phase.name),
                    None => phase.name.clone(),
                };
                *inner.phase_us.entry(key).or_insert(0) += phase.duration_us;
            }
        }
        drop(inner);
        self.committed_rows
            .fetch_add(p.num_input_rows, Ordering::Release);
    }
}

/// One closed-loop drain: epochs back to back until the topic is dry.
pub struct Drain {
    pub seconds: f64,
    pub rows: u64,
    pub epoch_ms: Vec<f64>,
}

pub fn drain(env: &Env, query: &mut StreamingQuery) -> Result<Drain> {
    let started = Instant::now();
    let (mut rows, mut epoch_ms) = (0, Vec::new());
    loop {
        let epoch_start = now_us();
        match query.run_epoch()? {
            EpochRun::Idle => break,
            EpochRun::Ran(p) => {
                if let Some(rec) = &env.rec {
                    rec.record(trace::EPOCH, p.epoch, epoch_start, p.num_input_rows, 0);
                }
                epoch_ms.push((now_us() - epoch_start) as f64 / 1e3);
                rows += p.num_input_rows;
            }
        }
    }
    Ok(Drain {
        seconds: started.elapsed().as_secs_f64(),
        rows,
        epoch_ms,
    })
}

/// Repeat `setup` until two samples and 0.3 s are in hand — at most 200
/// times — then once more to keep. Only `setup` is timed: `prepare`
/// (the harness's own groundwork, such as an empty directory) runs
/// before the clock starts, `teardown` after it has stopped. The traced
/// run sets up once.
pub fn timed_setups<P, T>(
    env: &Env,
    samples: &mut Vec<f64>,
    mut prepare: impl FnMut() -> Result<P>,
    mut setup: impl FnMut(P) -> Result<T>,
    mut teardown: impl FnMut(T) -> Result<()>,
) -> Result<T> {
    let mut spent = 0.0;
    while !env.traced()
        && !env.scale.smoke
        && samples.len() < 200
        && (samples.len() < 2 || spent < 0.3)
    {
        let prepared = prepare()?;
        let started = Instant::now();
        let built = setup(prepared)?;
        let s = started.elapsed().as_secs_f64();
        teardown(built)?; // not part of setting up
        spent += s;
        samples.push(s);
    }
    let prepared = prepare()?;
    let started = Instant::now();
    let kept = setup(prepared)?;
    samples.push(started.elapsed().as_secs_f64());
    Ok(kept)
}

/// The `teardown` of a set-up whose parts stop themselves when dropped.
pub fn discard<T>(built: T) -> Result<()> {
    drop(built);
    Ok(())
}

/// Preload `partitions × per_partition` generated rows into a topic,
/// in chunks so the rows in flight stay small.
pub fn preload(
    bus: &MessageBus,
    topic: &str,
    partitions: u32,
    per_partition: u64,
    row: impl Fn(u32, u64) -> Row,
) -> Result<()> {
    bus.create_topic(topic, partitions)?;
    for p in 0..partitions {
        let mut start = 0;
        while start < per_partition {
            let end = (start + 65_536).min(per_partition);
            bus.append_at(topic, p, 0, (start..end).map(|o| row(p, o)))?;
            start = end;
        }
    }
    Ok(())
}

/// The open-loop generator's fixed schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub partitions: u32,
    /// Records appended to each partition every tick.
    pub per_tick: u64,
    pub tick_us: i64,
    pub settle_ticks: u64,
    pub measure_ticks: u64,
}

impl Pace {
    /// `rate` records/s over `partitions`, rounded down to a whole
    /// number of records per partition per tick.
    pub fn new(rate: u64, partitions: u32, tick_us: i64, settle_s: f64, measure_s: f64) -> Pace {
        let per_tick = (rate * tick_us as u64 / 1_000_000 / u64::from(partitions)).max(1);
        let ticks = |s: f64| ((s * 1e6) as i64 / tick_us).max(1) as u64;
        Pace {
            partitions,
            per_tick,
            tick_us,
            settle_ticks: ticks(settle_s),
            measure_ticks: ticks(measure_s),
        }
    }

    pub fn ticks(&self) -> u64 {
        self.settle_ticks + self.measure_ticks
    }

    pub fn per_partition(&self) -> u64 {
        self.ticks() * self.per_tick
    }

    pub fn total(&self) -> u64 {
        self.per_partition() * u64::from(self.partitions)
    }

    /// The stamp of the event at `offset` of any partition: the time
    /// its tick was due.
    pub fn created_us(&self, t0_us: i64, offset: u64) -> i64 {
        t0_us + (offset / self.per_tick) as i64 * self.tick_us
    }
}

/// What the generator thread observed about itself and the backlog.
pub struct Paced {
    /// When tick 0 was due.
    pub t0_us: i64,
    /// When the first measured tick was due.
    pub measure_from_us: i64,
    /// Records committed during the measured stage, over its length.
    pub committed_rps: f64,
    pub lag_ms: Vec<f64>,
    pub backlog_rows: Vec<f64>,
}

/// Append on the schedule, never slowing down for the engine: each
/// tick's events carry the tick's due time as `created_us`, whenever
/// the append actually happens. Every tick the topic is trimmed behind
/// what the engine has committed (less `keep` records per partition; a
/// tick's worth at a time, so the partition lock is never held long),
/// and every 20 ticks the backlog is sampled.
pub fn run_pacer(
    bus: &MessageBus,
    topic: &str,
    pace: Pace,
    keep: u64,
    row: impl Fn(u32, u64, i64) -> Row,
    committed: impl Fn() -> u64,
) -> Result<Paced> {
    let t0_us = now_us() + 2 * pace.tick_us;
    let mut out = Paced {
        t0_us,
        measure_from_us: t0_us + pace.settle_ticks as i64 * pace.tick_us,
        committed_rps: 0.0,
        lag_ms: Vec::with_capacity(pace.measure_ticks as usize),
        backlog_rows: Vec::with_capacity(pace.ticks() as usize / 20 + 1),
    };
    let mut committed_at_start = (0, t0_us);
    for tick in 0..pace.ticks() {
        let due_us = t0_us + tick as i64 * pace.tick_us;
        // Build the tick's rows ahead of its due time, so that the
        // generator's own work is not part of any event's latency.
        let first = tick * pace.per_tick;
        let batches: Vec<Vec<Row>> = (0..pace.partitions)
            .map(|p| {
                (first..first + pace.per_tick)
                    .map(|o| row(p, o, due_us))
                    .collect()
            })
            .collect();
        let wait = due_us - now_us();
        if wait > 0 {
            std::thread::sleep(Duration::from_micros(wait as u64));
        }
        if tick >= pace.settle_ticks {
            out.lag_ms.push((now_us() - due_us).max(0) as f64 / 1e3);
        }
        if tick == pace.settle_ticks {
            committed_at_start = (committed(), now_us());
        }
        for (p, rows) in batches.into_iter().enumerate() {
            bus.append_at(topic, p as u32, due_us, rows)?;
        }
        let done = committed();
        let safe = (done / u64::from(pace.partitions)).saturating_sub(keep);
        for p in 0..pace.partitions {
            bus.truncate_before(topic, p, safe)?;
        }
        if tick % 20 == 19 {
            let appended = (tick + 1) * pace.per_tick * u64::from(pace.partitions);
            out.backlog_rows.push(appended.saturating_sub(done) as f64);
        }
    }
    let (rows, since_us) = committed_at_start;
    out.committed_rps = (committed() - rows) as f64 * 1e6 / (now_us() - since_us).max(1) as f64;
    Ok(out)
}

/// Wait (polling every millisecond) until `done()` or the time is up.
pub fn wait_until(limit: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// The number in one line of `/proc/self/status`.
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process still alive: 1 once a workload has stopped
/// everything it started.
pub fn live_threads() -> u64 {
    proc_status("Threads:").map_or(1, |n| n as u64)
}

/// Where the harness may write: next to its own executable, inside
/// the build directory.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable has a directory")
        .join("benchmark-work")
}

/// A directory under [`work_dir`] removed again on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work_dir().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compare a sink's table with the oracle's, naming the first few keys
/// that differ.
pub fn diff_tables<K, V>(what: &str, got: &BTreeMap<K, V>, want: &BTreeMap<K, V>) -> Option<String>
where
    K: Ord + std::fmt::Debug,
    V: PartialEq + std::fmt::Debug,
{
    if got == want {
        return None;
    }
    let mut diffs: Vec<String> = Vec::new();
    for (k, v) in want {
        match got.get(k) {
            Some(g) if g == v => {}
            Some(g) => diffs.push(format!("{k:?}: got {g:?}, want {v:?}")),
            None => diffs.push(format!("{k:?}: missing, want {v:?}")),
        }
    }
    diffs.extend(
        got.iter()
            .filter(|(k, _)| !want.contains_key(k))
            .map(|(k, g)| format!("{k:?}: unexpected {g:?}")),
    );
    let shown: Vec<&str> = diffs.iter().take(3).map(String::as_str).collect();
    Some(format!(
        "{what}: {} of {} keys differ ({} in sink), e.g. {}",
        diffs.len(),
        want.len(),
        got.len(),
        shown.join("; ")
    ))
}

/// End the traced run's recording: resolve the spans into a tree and
/// write them next to the executable. `None` in the untraced run.
pub fn finish_trace(env: &Env, workload: &str) -> Result<Option<trace::Trace>> {
    finish_trace_with(env, workload, |_| Vec::new())
}

/// [`finish_trace`] for a query whose epochs the driver does not call
/// itself: `containers` derives their spans from the boundary spans.
pub fn finish_trace_with(
    env: &Env,
    workload: &str,
    containers: impl FnOnce(&[trace::Span]) -> Vec<trace::Span>,
) -> Result<Option<trace::Trace>> {
    let Some(rec) = &env.rec else {
        return Ok(None);
    };
    let mut spans = rec.take();
    let extra = containers(&spans);
    spans.extend(extra);
    let trace = trace::Trace::resolve(spans);
    trace.write_json(&work_dir().join(format!("trace-{workload}.json")))?;
    Ok(Some(trace))
}

pub fn invalid(msg: impl Into<String>) -> SsError {
    SsError::Execution(msg.into())
}

/// Epoch spans for a query running on its own trigger thread, from the
/// progress log: each ends when its progress record arrived and starts
/// `batch_duration_us` earlier — or at its first boundary span, if
/// that is earlier still.
pub fn background_epochs(log: &EpochLogInner, boundary: &[trace::Span]) -> Vec<trace::Span> {
    let mut prev_end = i64::MIN;
    let mut epochs = Vec::with_capacity(log.epochs.len());
    for (i, e) in log.epochs.iter().enumerate() {
        let first_child = boundary
            .iter()
            .filter(|s| s.start_us > prev_end && s.end_us <= e.end_us)
            .map(|s| s.start_us)
            .min();
        epochs.push(trace::Span {
            id: 0,
            parent: None,
            epoch: i as u64 + 1,
            name: trace::EPOCH,
            start_us: (e.end_us - e.duration_us).min(first_child.unwrap_or(i64::MAX)),
            end_us: e.end_us,
            rows: e.input_rows,
            bytes: 0,
        });
        prev_end = e.end_us;
    }
    epochs
}

/// The per-layer numbers of an open-loop run: how late the generator
/// ran, how far the engine lagged behind it, and how long the engine
/// sat between epochs.
pub fn paced_layers(layers: &mut Layers, paced: &Paced, trace: &trace::Trace) {
    let p95 = |v: &[f64]| {
        let mut v = v.to_vec();
        stats::sort(&mut v);
        stats::quantile(&v, 0.95)
    };
    layers.set("driver.generator_lag_ms_p95", p95(&paced.lag_ms));
    layers.set("bus.backlog_rows_p95", p95(&paced.backlog_rows));
    let mut epochs: Vec<&trace::Span> = trace.named(trace::EPOCH).collect();
    epochs.sort_by_key(|s| s.start_us);
    let gaps: Vec<f64> = epochs
        .windows(2)
        .map(|w| (w[1].start_us - w[0].end_us) as f64)
        .collect();
    layers.set("core.trigger_gap_us_p50", stats::median(&gaps));
}

/// What the wrappers' spans say about the bus, the sink, the state
/// checkpoints and the WAL, per call and per each of `epochs` epochs.
pub fn boundary_layers(layers: &mut Layers, trace: &trace::Trace, epochs: f64) {
    let p50 = |v: Vec<f64>| stats::median(&v);
    let n = epochs.max(1.0);
    let reads = trace.total_rows(trace::SOURCE_READ);
    layers.set(
        "bus.read_calls",
        trace.named(trace::SOURCE_READ).count() as f64,
    );
    layers.set("bus.read_rows", reads as f64);
    layers.set(
        "bus.read_decode_ns_per_row",
        trace.total_us(trace::SOURCE_READ) * 1e3 / reads.max(1) as f64,
    );
    layers.set(
        "bus.sink_commit_us_p50",
        p50(trace.durations_us(trace::SINK_COMMIT)),
    );
    layers.set("bus.sink_rows", trace.total_rows(trace::SINK_COMMIT) as f64);
    layers.set(
        "state.checkpoint_us_p50",
        p50(trace.durations_us(trace::STATE_WRITE)),
    );
    layers.set(
        "state.checkpoint_bytes_per_epoch",
        trace.total_bytes(trace::STATE_WRITE) as f64 / n,
    );
    layers.set(
        "wal.write_offsets_us_p50",
        p50(trace.durations_us(trace::WAL_OFFSETS_WRITE)),
    );
    layers.set(
        "wal.write_commit_us_p50",
        p50(trace.durations_us(trace::WAL_COMMIT_WRITE)),
    );
    layers.set(
        "wal.bytes_per_epoch",
        (trace.total_bytes(trace::WAL_OFFSETS_WRITE) + trace.total_bytes(trace::WAL_COMMIT_WRITE))
            as f64
            / n,
    );
}

/// The per-layer numbers every micro-batch workload derives the same
/// way from its trace and its epoch log.
pub fn core_layers(layers: &mut Layers, trace: &trace::Trace, log: &EpochLogInner) {
    let p50 = |v: Vec<f64>| stats::median(&v);
    let epochs: Vec<&trace::Span> = trace.named(trace::EPOCH).collect();
    let n = epochs.len().max(1) as f64;
    layers.set("core.epochs", epochs.len() as f64);
    layers.set(
        "core.rows_per_epoch_p50",
        p50(epochs.iter().map(|s| s.rows as f64).collect()),
    );
    let mut epoch_us: Vec<f64> = epochs.iter().map(|s| s.duration_us() as f64).collect();
    stats::sort(&mut epoch_us);
    layers.set("core.epoch_us_p50", stats::quantile(&epoch_us, 0.5));
    layers.set("core.epoch_us_p95", stats::quantile(&epoch_us, 0.95));
    let self_us: Vec<f64> = epochs.iter().map(|s| trace.self_us(s.id) as f64).collect();
    layers.set("core.self_us_per_epoch", self_us.iter().sum::<f64>() / n);
    layers.set(
        "core.self_share_of_epoch",
        self_us.iter().sum::<f64>() / epoch_us.iter().sum::<f64>().max(1.0),
    );

    boundary_layers(layers, trace, n);

    for (phase, us) in &log.phase_us {
        if let Some(metric) = crate::spec::PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("core.phase_us.") == Some(phase.as_str()))
        {
            layers.set(metric.name, *us as f64 / log.epochs.len().max(1) as f64);
        }
    }
    let ratio = |span_us: f64, phase: &str| match log.phase_us.get(phase) {
        Some(&us) if us > 0 => span_us / us as f64,
        _ => 0.0,
    };
    let source_us = trace.total_us(trace::SOURCE_READ);
    layers.set("core.xcheck_source_ratio", ratio(source_us, "source-read"));
    layers.set(
        "core.xcheck_sink_ratio",
        ratio(trace.total_us(trace::SINK_COMMIT), "sink-commit"),
    );

    let e = &log.epochs;
    layers.set(
        "state.rows_end",
        e.last().map_or(0.0, |s| s.state_rows as f64),
    );
    layers.set(
        "state.rows_peak",
        e.iter().map(|s| s.state_rows).max().unwrap_or(0) as f64,
    );
    layers.set(
        "state.bytes_peak",
        e.iter().map(|s| s.state_bytes).max().unwrap_or(0) as f64,
    );
    layers.set(
        "core.late_dropped_rows",
        e.iter().map(|s| s.late_dropped).sum::<u64>() as f64,
    );
    layers.set(
        "sched.tasks_per_epoch",
        e.iter().map(|s| s.tasks).sum::<u64>() as f64 / e.len().max(1) as f64,
    );
    layers.set(
        "sched.task_us_p50",
        p50(e.iter().map(|s| s.task_p50_us as f64).collect()),
    );
    layers.set(
        "sched.task_us_max",
        e.iter().map(|s| s.task_max_us).max().unwrap_or(0) as f64,
    );
}
