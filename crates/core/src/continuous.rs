//! Continuous processing mode (§6.3).
//!
//! "A new continuous processing mode [...] executes Structured
//! Streaming jobs using long-lived operators as in traditional
//! streaming systems. [...] The first version released in Spark 2.3.0
//! only supports 'map-like' jobs (i.e., no shuffle operations), which
//! were one of the most common scenarios where users wanted lower
//! latency" — stream-to-stream transforms between bus topics.
//!
//! The implementation mirrors the paper's design:
//!
//! * one **long-lived worker per source partition** pulls records and
//!   pushes them through a compiled per-record pipeline (no task
//!   scheduling on the data path — that is exactly why latency beats
//!   microbatch mode, Figure 7);
//! * a **coordinator** periodically snapshots every worker's offset and
//!   writes epoch markers to the same WAL the microbatch engine uses,
//!   so the job's progress is durable and restartable ("the master is
//!   not on the critical path");
//! * per-record **end-to-end latency** (sink time − bus ingest time) is
//!   recorded, which is the metric Figure 7 plots.
//!
//! Like Spark 2.3's continuous mode, delivery between epoch markers is
//! at-least-once on recovery (epochs bound the reprocessing window).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ss_bus::MessageBus;
use ss_common::clock::{system_clock, ClockRef};
use ss_common::eventlog::{EVENT_PROGRESS, EVENT_START, EVENT_TERMINATE};
use ss_common::{
    EventLog, FaultRegistry, MetricsRegistry, Result, Row, Schema, SchemaRef, SsError, TraceLog,
};
use ss_expr::eval::evaluate_row;
use ss_expr::Expr;
use ss_plan::{plan_fingerprint, LogicalPlan};
use ss_state::CheckpointBackend;
use ss_wal::{EpochCommit, EpochOffsets, Manifest, OffsetRange, WriteAheadLog, MANIFEST_VERSION};

/// Continuous-mode fail points, fired through
/// [`ContinuousConfig::faults`]. The coordinator's WAL additionally
/// honours `ss_wal::failpoints`.
pub mod failpoints {
    /// After a worker pulled a non-empty batch from the bus, before
    /// processing it (the long-lived-operator read path of §6.3).
    pub const WORKER_READ: &str = "continuous.worker.read";
    /// Before a processed record is handed to the sink.
    pub const SINK_COMMIT: &str = "continuous.sink.commit";
}

/// One stage of the compiled per-record pipeline.
#[derive(Debug)]
enum RecordOp {
    Filter(Expr),
    Project { exprs: Vec<Expr>, schema: SchemaRef },
}

/// The compiled map-like pipeline of a continuous query.
#[derive(Debug)]
pub struct RecordPipeline {
    source_name: String,
    input_schema: SchemaRef,
    ops: Vec<RecordOp>,
    output_schema: SchemaRef,
}

impl RecordPipeline {
    /// Compile an analyzed plan, rejecting anything that is not
    /// map-like (the Spark 2.3 restriction the paper describes).
    pub fn compile(plan: &LogicalPlan) -> Result<RecordPipeline> {
        let mut ops_rev: Vec<RecordOp> = Vec::new();
        let mut node = plan;
        loop {
            match node {
                LogicalPlan::Scan {
                    name,
                    schema,
                    streaming,
                    projection,
                } => {
                    if !streaming {
                        return Err(SsError::Unsupported(
                            "continuous processing requires a streaming source".into(),
                        ));
                    }
                    if let Some(idx) = projection {
                        // A pushed-down projection becomes a leading
                        // Project stage.
                        let exprs: Vec<Expr> = idx
                            .iter()
                            .map(|&i| ss_expr::col(schema.field(i).name.clone()))
                            .collect();
                        let proj_schema = Arc::new(schema.project(idx)?);
                        ops_rev.push(RecordOp::Project {
                            exprs,
                            schema: proj_schema,
                        });
                    }
                    let mut ops: Vec<RecordOp> = ops_rev;
                    ops.reverse();
                    let input_schema = schema.clone();
                    let mut current: SchemaRef = input_schema.clone();
                    // Recompute the output schema by walking the ops.
                    for op in &ops {
                        if let RecordOp::Project { schema, .. } = op {
                            current = schema.clone();
                        }
                    }
                    return Ok(RecordPipeline {
                        source_name: name.clone(),
                        input_schema,
                        ops,
                        output_schema: current,
                    });
                }
                LogicalPlan::Filter { input, predicate } => {
                    ops_rev.push(RecordOp::Filter(predicate.clone()));
                    node = input;
                }
                LogicalPlan::Project { input, exprs } => {
                    let schema = node.schema()?;
                    ops_rev.push(RecordOp::Project {
                        exprs: exprs.clone(),
                        schema,
                    });
                    node = input;
                }
                // Watermarks are metadata-only; harmless to skip in a
                // map-only pipeline.
                LogicalPlan::Watermark { input, .. } => {
                    node = input;
                }
                other => {
                    return Err(SsError::Unsupported(format!(
                        "continuous processing supports only map-like jobs \
                         (selections/projections); found {}",
                        other.describe()
                    )))
                }
            }
        }
    }

    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// Process one record; `None` if filtered out.
    #[inline]
    pub fn process(&self, row: &Row) -> Result<Option<Row>> {
        let mut current = row.clone();
        let mut schema: &Schema = &self.input_schema;
        for op in &self.ops {
            match op {
                RecordOp::Filter(pred) => {
                    if evaluate_row(pred, schema, &current)?.as_bool()? != Some(true) {
                        return Ok(None);
                    }
                }
                RecordOp::Project { exprs, schema: s } => {
                    let mut out = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        out.push(evaluate_row(e, schema, &current)?);
                    }
                    current = Row::new(out);
                    schema = s;
                }
            }
        }
        Ok(Some(current))
    }
}

/// Where processed records go.
pub type RecordSink = Arc<dyn Fn(u32, Row) -> Result<()> + Send + Sync>;

/// Tuning for the continuous engine.
#[derive(Clone)]
pub struct ContinuousConfig {
    /// How often the coordinator cuts an epoch (µs). The paper calls
    /// continuous execution "similar to having a much larger number of
    /// triggers".
    pub epoch_interval_us: i64,
    /// Max records pulled per poll.
    pub poll_batch: usize,
    /// Sleep when a partition has no new data.
    pub idle_sleep: Duration,
    /// Record per-record end-to-end latencies (Figure 7).
    pub record_latency: bool,
    /// Fail-point registry shared with the workers and the
    /// coordinator's WAL (see [`failpoints`]). Empty by default; the
    /// handle is shared, so faults can be (re)configured while the
    /// query runs.
    pub faults: FaultRegistry,
    /// Clock the workers' idle sleeps, the coordinator's epoch-marker
    /// interval and the epoch/latency timestamps run on. A virtual
    /// clock makes the continuous engine's pacing simulated.
    pub clock: ClockRef,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            epoch_interval_us: 1_000_000,
            poll_batch: 256,
            idle_sleep: Duration::from_micros(100),
            record_latency: true,
            faults: FaultRegistry::new(),
            clock: system_clock(),
        }
    }
}

struct ContinuousShared {
    stop: AtomicBool,
    /// Next offset each worker will process.
    offsets: Vec<AtomicU64>,
    processed: AtomicU64,
    latencies_us: Mutex<Vec<i64>>,
    error: Mutex<Option<String>>,
    /// Per-query metric registry (§7.4), shared with the caller.
    registry: MetricsRegistry,
    /// Epoch-marker trace events (chrome://tracing JSON).
    trace: TraceLog,
    /// Structured lifecycle events (start / epoch progress / terminate).
    events: EventLog,
    /// `continuous-<topic>`, the name events are stamped with.
    name: String,
}

/// A running continuous query.
pub struct ContinuousQuery {
    shared: Arc<ContinuousShared>,
    workers: Vec<JoinHandle<()>>,
    coordinator: Option<JoinHandle<()>>,
}

impl ContinuousQuery {
    /// Start a continuous query: `plan` must be map-like over a single
    /// bus topic.
    pub fn start(
        plan: &Arc<LogicalPlan>,
        bus: Arc<MessageBus>,
        topic: &str,
        sink: RecordSink,
        wal_backend: Option<Arc<dyn CheckpointBackend>>,
        config: ContinuousConfig,
    ) -> Result<ContinuousQuery> {
        let analyzed = ss_plan::analyze(plan)?;
        let optimized = ss_plan::optimize(&analyzed)?;
        let pipeline = Arc::new(RecordPipeline::compile(&optimized)?);
        let partitions = bus.num_partitions(topic)?;

        let registry = MetricsRegistry::new();
        let trace = TraceLog::new();
        registry.describe(
            "ss_continuous_rows_total",
            "Records processed by the continuous pipeline.",
        );
        registry.describe(
            "ss_continuous_latency_us",
            "Per-record end-to-end latency (sink time minus bus ingest time).",
        );
        registry.describe(
            "ss_trace_dropped_total",
            "Trace events dropped because the bounded trace buffer wrapped.",
        );
        trace.attach_drop_counter(registry.counter("ss_trace_dropped_total", &[]));
        let rows_counter = registry.counter("ss_continuous_rows_total", &[("topic", topic)]);
        let latency_hist = registry.histogram("ss_continuous_latency_us", &[("topic", topic)]);

        // Resume from the last committed epoch's end offsets, if a WAL
        // exists.
        let backend = wal_backend;
        let wal = backend.clone().map(|b| {
            let mut w = WriteAheadLog::new(b);
            w.attach_metrics(&registry);
            w.set_faults(config.faults.clone());
            w
        });
        let mut start_offsets = vec![0u64; partitions as usize];
        let mut start_epoch = 0u64;
        if let Some(w) = &wal {
            if let Some(last) = w.latest_commit()? {
                if let Some(offsets) = w.read_offsets(last)? {
                    if let Some(range) = offsets.sources.get(topic) {
                        for (&p, &o) in &range.end {
                            if (p as usize) < start_offsets.len() {
                                start_offsets[p as usize] = o;
                            }
                        }
                    }
                    start_epoch = last;
                }
            }
        }

        // Upgrade safety: the checkpoint manifest records which engine
        // owns the directory. A microbatch checkpoint's state layout is
        // meaningless to continuous mode (and vice versa), so refuse it
        // here — before any epoch marker lands — and stamp a fresh
        // continuous manifest so the reverse mismatch is caught too.
        // (A newer-than-supported manifest format is refused inside
        // `Manifest::load`; a checkpoint without a manifest is the
        // legacy v0 layout and resumes unchecked.)
        if let Some(b) = &backend {
            match Manifest::load(b)? {
                Some(m) if m.engine != "continuous" => {
                    return Err(SsError::IncompatibleUpgrade(format!(
                        "checkpoint was written by the `{}` engine; its layout is \
                         not readable by the continuous engine",
                        m.engine
                    )));
                }
                _ => {}
            }
            let mut sources = std::collections::BTreeMap::new();
            sources.insert(
                topic.to_string(),
                start_offsets
                    .iter()
                    .enumerate()
                    .map(|(p, &o)| (p as u32, o))
                    .collect::<ss_common::PartitionOffsets>(),
            );
            Manifest {
                version: MANIFEST_VERSION,
                query_name: format!("continuous-{topic}"),
                engine: "continuous".into(),
                last_epoch: start_epoch,
                sources,
                watermark_us: i64::MIN,
                sealed: false,
                plan_fingerprint: plan_fingerprint(&optimized),
                // Map-like pipelines carry no operator state to check.
                operators: Vec::new(),
                state_partitions: None,
                fencing_epoch: None,
            }
            .write(b)?;
        }

        let events = EventLog::new();
        let name = format!("continuous-{topic}");
        events.emit(
            &name,
            EVENT_START,
            &[
                ("engine", "continuous".into()),
                ("epoch", start_epoch.into()),
                ("partitions", u64::from(partitions).into()),
            ],
        );
        let shared = Arc::new(ContinuousShared {
            stop: AtomicBool::new(false),
            offsets: start_offsets.iter().map(|&o| AtomicU64::new(o)).collect(),
            processed: AtomicU64::new(0),
            latencies_us: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            registry,
            trace,
            events,
            name,
        });

        // Long-lived per-partition workers (§6.3 difference (1)).
        let mut workers = Vec::with_capacity(partitions as usize);
        for p in 0..partitions {
            let shared = shared.clone();
            let bus = bus.clone();
            let topic = topic.to_string();
            let pipeline = pipeline.clone();
            let sink = sink.clone();
            let config = config.clone();
            let rows_counter = rows_counter.clone();
            let latency_hist = latency_hist.clone();
            workers.push(std::thread::spawn(move || {
                let mut offset = shared.offsets[p as usize].load(Ordering::SeqCst);
                while !shared.stop.load(Ordering::SeqCst) {
                    let records = match bus.read(&topic, p, offset, config.poll_batch) {
                        Ok(r) => r,
                        Err(e) => {
                            *shared.error.lock() = Some(e.to_string());
                            return;
                        }
                    };
                    if records.is_empty() {
                        if config.clock.is_virtual() {
                            // Virtual idle sleeps let simulated time
                            // advance past quiet polls.
                            config.clock.sleep(config.idle_sleep);
                        } else {
                            std::thread::park_timeout(config.idle_sleep);
                        }
                        continue;
                    }
                    // Fired only for non-empty batches so tests injecting
                    // a one-shot fault crash on data, not on an idle poll.
                    if let Err(e) = config.faults.fire(failpoints::WORKER_READ) {
                        *shared.error.lock() = Some(e.to_string());
                        return;
                    }
                    for rec in records {
                        match pipeline.process(&rec.row) {
                            Ok(Some(out)) => {
                                if let Err(e) = config
                                    .faults
                                    .fire(failpoints::SINK_COMMIT)
                                    .and_then(|()| sink(p, out))
                                {
                                    *shared.error.lock() = Some(e.to_string());
                                    return;
                                }
                                if config.record_latency {
                                    let lat = config.clock.wall_us() - rec.ingest_time_us;
                                    latency_hist.observe(lat.max(0) as u64);
                                    let mut l = shared.latencies_us.lock();
                                    // Reservoir-ish cap to bound memory
                                    // in long benchmark runs.
                                    if l.len() < 4_000_000 {
                                        l.push(lat);
                                    }
                                }
                            }
                            Ok(None) => {}
                            Err(e) => {
                                *shared.error.lock() = Some(e.to_string());
                                return;
                            }
                        }
                        offset = rec.offset + 1;
                        rows_counter.inc();
                        shared.processed.fetch_add(1, Ordering::Relaxed);
                        shared.offsets[p as usize].store(offset, Ordering::Release);
                    }
                }
            }));
        }

        // Epoch coordinator (§6.3 difference (2)): off the data path.
        let coordinator = wal.map(|wal| {
            let shared = shared.clone();
            let topic = topic.to_string();
            let clock = config.clock.clone();
            let interval = Duration::from_micros(config.epoch_interval_us.max(1_000) as u64);
            let mut prev_end: ss_common::PartitionOffsets = start_offsets
                .iter()
                .enumerate()
                .map(|(p, &o)| (p as u32, o))
                .collect();
            let mut epoch = start_epoch;
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    if clock.is_virtual() {
                        clock.sleep(interval);
                    } else {
                        std::thread::park_timeout(interval);
                    }
                    let end: ss_common::PartitionOffsets = shared
                        .offsets
                        .iter()
                        .enumerate()
                        .map(|(p, o)| (p as u32, o.load(Ordering::Acquire)))
                        .collect();
                    if end == prev_end {
                        continue; // no progress: no epoch marker
                    }
                    epoch += 1;
                    let mut sources = std::collections::BTreeMap::new();
                    sources.insert(
                        topic.clone(),
                        OffsetRange {
                            start: prev_end.clone(),
                            end: end.clone(),
                        },
                    );
                    let offsets = EpochOffsets {
                        epoch,
                        sources,
                        watermark_us: i64::MIN,
                        defined_at_us: clock.wall_us(),
                    };
                    let rows = offsets.sources[&topic].num_records();
                    if wal.write_offsets(&offsets).is_ok() {
                        let _ = wal.write_commit(&EpochCommit {
                            epoch,
                            rows_written: rows,
                            committed_at_us: clock.wall_us(),
                            quarantined: Default::default(),
                            fencing_epoch: None,
                        });
                        shared.trace.instant(
                            "epoch-marker",
                            &[
                                ("epoch", &epoch.to_string()),
                                ("rows", &rows.to_string()),
                            ],
                        );
                        shared.events.emit(
                            &shared.name,
                            EVENT_PROGRESS,
                            &[("epoch", epoch.into()), ("rows_in", rows.into())],
                        );
                    }
                    prev_end = end;
                }
            })
        });

        Ok(ContinuousQuery {
            shared,
            workers,
            coordinator,
        })
    }

    /// Records processed so far.
    pub fn processed(&self) -> u64 {
        self.shared.processed.load(Ordering::Relaxed)
    }

    /// The query's metric registry: record counts, per-record latency
    /// histograms and (when a WAL is configured) epoch-marker append
    /// timings.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Epoch-marker trace events as chrome://tracing JSON.
    pub fn trace(&self) -> &TraceLog {
        &self.shared.trace
    }

    /// The structured lifecycle event log (JSONL-renderable).
    pub fn events(&self) -> &EventLog {
        &self.shared.events
    }

    /// First worker error, if any.
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().clone()
    }

    /// Signal every thread to stop and join it; `Err` if one panicked.
    /// Joined handles are taken, so a second call has nothing to do.
    fn join_all(&mut self) -> Result<()> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let threads = self
            .workers
            .drain(..)
            .map(|w| (w, "worker"))
            .chain(self.coordinator.take().map(|c| (c, "coordinator")));
        let mut result = Ok(());
        for (thread, role) in threads {
            thread.thread().unpark();
            if thread.join().is_err() {
                result = Err(SsError::Execution(format!("continuous {role} panicked")));
            }
        }
        result
    }

    /// Stop workers and the coordinator; returns collected latencies
    /// (µs), sorted ascending. (Dropping an un-stopped query stops and
    /// joins them too, discarding the latencies and any worker error.)
    pub fn stop(mut self) -> Result<Vec<i64>> {
        self.join_all()?;
        if let Some(e) = self.shared.error.lock().take() {
            self.shared
                .events
                .emit(&self.shared.name, EVENT_TERMINATE, &[("error", e.as_str().into())]);
            return Err(SsError::Execution(format!("continuous worker failed: {e}")));
        }
        self.shared
            .events
            .emit(&self.shared.name, EVENT_TERMINATE, &[("error", "none".into())]);
        let mut lat = std::mem::take(&mut *self.shared.latencies_us.lock());
        lat.sort_unstable();
        Ok(lat)
    }
}

impl Drop for ContinuousQuery {
    fn drop(&mut self) {
        // A leaked query's workers would poll the bus forever.
        let _ = self.join_all();
    }
}

/// Percentile helper for latency vectors returned by
/// [`ContinuousQuery::stop`].
pub fn percentile(sorted_us: &[i64], p: f64) -> Option<i64> {
    if sorted_us.is_empty() {
        return None;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).floor() as usize;
    Some(sorted_us[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::{row, DataType, Field};
    use ss_expr::{col, lit};
    use ss_plan::LogicalPlanBuilder;
    use ss_state::MemoryBackend;

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("kind", DataType::Utf8),
            Field::new("v", DataType::Int64),
        ])
    }

    fn map_plan() -> Arc<LogicalPlan> {
        LogicalPlanBuilder::scan("in", schema(), true)
            .filter(col("kind").eq(lit("view")))
            .project(vec![col("v").mul(lit(2i64)).alias("v2")])
            .build()
    }

    #[test]
    fn pipeline_compiles_and_processes_records() {
        let plan = map_plan();
        let optimized = ss_plan::optimize(&ss_plan::analyze(&plan).unwrap()).unwrap();
        let p = RecordPipeline::compile(&optimized).unwrap();
        assert_eq!(p.source_name(), "in");
        assert_eq!(p.output_schema().field_names(), vec!["v2"]);
        assert_eq!(
            p.process(&row!["view", 21i64]).unwrap(),
            Some(row![42i64])
        );
        assert_eq!(p.process(&row!["click", 21i64]).unwrap(), None);
    }

    #[test]
    fn non_map_like_plans_rejected() {
        let plan = LogicalPlanBuilder::scan("in", schema(), true)
            .aggregate(vec![col("kind")], vec![ss_expr::count_star()])
            .build();
        let err = RecordPipeline::compile(&plan).unwrap_err();
        assert!(err.to_string().contains("map-like"));
    }

    #[test]
    fn end_to_end_continuous_run() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let out = Arc::new(Mutex::new(Vec::<Row>::new()));
        let out2 = out.clone();
        let sink: RecordSink = Arc::new(move |_p, row| {
            out2.lock().push(row);
            Ok(())
        });
        let q = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink,
            None,
            ContinuousConfig {
                idle_sleep: Duration::from_micros(50),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..100i64 {
            let kind = if i % 2 == 0 { "view" } else { "click" };
            bus.append("in", (i % 2) as u32, vec![row![kind, i]]).unwrap();
        }
        // Wait for all views (50) to be processed.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while out.lock().len() < 50 {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        let latencies = q.stop().unwrap();
        assert_eq!(out.lock().len(), 50);
        assert_eq!(latencies.len(), 50);
        // Latencies are small but positive.
        assert!(percentile(&latencies, 0.5).unwrap() >= 0);
    }

    #[test]
    fn coordinator_writes_epochs_and_restart_resumes() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let processed = Arc::new(AtomicU64::new(0));
        let p2 = processed.clone();
        let sink: RecordSink = Arc::new(move |_p, _row| {
            p2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let config = ContinuousConfig {
            epoch_interval_us: 20_000,
            idle_sleep: Duration::from_micros(50),
            ..Default::default()
        };
        let q = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink.clone(),
            Some(backend.clone()),
            config.clone(),
        )
        .unwrap();
        for i in 0..20i64 {
            bus.append("in", 0, vec![row!["view", i]]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while processed.load(Ordering::SeqCst) < 20 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        // Give the coordinator a couple of ticks to cut an epoch.
        std::thread::sleep(Duration::from_millis(80));
        q.stop().unwrap();
        let wal = WriteAheadLog::new(backend.clone());
        let last = wal.latest_commit().unwrap();
        assert!(last.is_some(), "coordinator should have committed an epoch");

        // Restart: resumes from the committed offsets, not zero.
        let q2 = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink,
            Some(backend),
            config,
        )
        .unwrap();
        bus.append("in", 0, vec![row!["view", 999i64]]).unwrap();
        let before = processed.load(Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while processed.load(Ordering::SeqCst) <= before {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        // At-least-once between epoch markers: total is bounded by the
        // full reprocessing window, not the whole history.
        q2.stop().unwrap();
        assert!(processed.load(Ordering::SeqCst) <= 20 + 1 + 20);
    }

    #[test]
    fn dropping_an_unstopped_query_stops_and_joins_its_threads() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 2).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let processed = Arc::new(AtomicU64::new(0));
        let p2 = processed.clone();
        // Held by `start` while it spawns, then only by the workers.
        let sink: RecordSink = Arc::new(move |_p, _row| {
            p2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let sink_held = Arc::downgrade(&sink);
        let q = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink,
            Some(backend.clone()),
            ContinuousConfig {
                epoch_interval_us: 1_000,
                idle_sleep: Duration::from_micros(50),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..10i64 {
            bus.append("in", (i % 2) as u32, vec![row!["view", i]]).unwrap();
        }
        let wal = WriteAheadLog::new(backend);
        let committed = || {
            let epoch = wal.latest_commit().unwrap()?;
            Some(wal.read_offsets(epoch).unwrap()?.sources["in"].end.clone())
        };
        let all: ss_common::PartitionOffsets = [(0, 5), (1, 5)].into();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while committed() != Some(all.clone()) {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sink_held.upgrade().is_some(), "the workers hold the sink");

        drop(q); // no stop(): the drop has to end the threads
        // Every thread was joined, so whatever it owned is gone ...
        assert!(sink_held.upgrade().is_none(), "a worker outlived the drop");
        // ... and nothing reads the topic or cuts epochs any more.
        bus.append("in", 0, vec![row!["view", 10i64]]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(processed.load(Ordering::SeqCst), 10);
        assert_eq!(committed(), Some(all));
    }

    #[test]
    fn worker_crash_then_restart_recovers_every_record() {
        use ss_common::fault::{FaultMode, FaultTrigger};
        use ss_common::Value;
        use std::collections::BTreeSet;

        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        // Distinct output values observed so far; duplicates from the
        // at-least-once reprocessing window collapse here.
        let seen = Arc::new(Mutex::new(BTreeSet::<i64>::new()));
        let s2 = seen.clone();
        let sink: RecordSink = Arc::new(move |_p, row| {
            if let Value::Int64(v) = row.get(0) {
                s2.lock().insert(*v);
            }
            Ok(())
        });
        let config = ContinuousConfig {
            epoch_interval_us: 20_000,
            idle_sleep: Duration::from_micros(50),
            ..Default::default()
        };
        let faults = config.faults.clone();
        let q = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink.clone(),
            Some(backend.clone()),
            config.clone(),
        )
        .unwrap();
        for i in 0..10i64 {
            bus.append("in", 0, vec![row!["view", i]]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.lock().len() < 10 {
            assert!(std::time::Instant::now() < deadline, "wave 1 timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Let the coordinator durably mark the processed prefix, then
        // kill the worker on its next non-empty read.
        std::thread::sleep(Duration::from_millis(60));
        faults.configure(
            failpoints::WORKER_READ,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        for i in 10..20i64 {
            bus.append("in", 0, vec![row!["view", i]]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.error().is_none() {
            assert!(std::time::Instant::now() < deadline, "crash never surfaced");
            std::thread::sleep(Duration::from_millis(2));
        }
        let err = q.stop().unwrap_err().to_string();
        assert!(err.contains("injected failure"), "got: {err}");

        // Restart against the same WAL with faults cleared: the new
        // incarnation resumes from the last epoch marker and delivers
        // the crashed-over records (at-least-once, §6.3).
        faults.clear();
        let q2 = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink,
            Some(backend),
            config,
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.lock().len() < 20 {
            assert!(std::time::Instant::now() < deadline, "recovery timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        q2.stop().unwrap();
        let expected: BTreeSet<i64> = (0..20).map(|i| i * 2).collect();
        assert_eq!(*seen.lock(), expected);
    }

    #[test]
    fn refuses_a_checkpoint_owned_by_the_microbatch_engine() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        Manifest {
            version: MANIFEST_VERSION,
            query_name: "q".into(),
            engine: "microbatch".into(),
            last_epoch: 3,
            sources: Default::default(),
            watermark_us: i64::MIN,
            sealed: true,
            plan_fingerprint: "0".repeat(16),
            operators: Vec::new(),
            state_partitions: None,
            fencing_epoch: None,
        }
        .write(&backend)
        .unwrap();
        let sink: RecordSink = Arc::new(|_p, _row| Ok(()));
        let err = match ContinuousQuery::start(
            &map_plan(),
            bus,
            "in",
            sink,
            Some(backend),
            ContinuousConfig::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("microbatch-owned checkpoint must be refused"),
        };
        assert_eq!(err.category(), "incompatible_upgrade");
        assert!(err.to_string().contains("microbatch"), "{err}");
    }

    #[test]
    fn stamps_and_reloads_its_own_manifest() {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let sink: RecordSink = Arc::new(|_p, _row| Ok(()));
        let q = ContinuousQuery::start(
            &map_plan(),
            bus.clone(),
            "in",
            sink.clone(),
            Some(backend.clone()),
            ContinuousConfig::default(),
        )
        .unwrap();
        q.stop().unwrap();
        let m = Manifest::load(&backend).unwrap().expect("manifest written");
        assert_eq!(m.engine, "continuous");
        assert!(m.operators.is_empty());
        // A second incarnation accepts its own manifest.
        let q2 = ContinuousQuery::start(
            &map_plan(),
            bus,
            "in",
            sink,
            Some(backend),
            ContinuousConfig::default(),
        )
        .unwrap();
        q2.stop().unwrap();
    }

    #[test]
    fn percentile_helper() {
        let v: Vec<i64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
