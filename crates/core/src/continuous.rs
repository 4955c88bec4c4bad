//! Continuous processing mode (§6.3).
//!
//! "A new continuous processing mode [...] executes Structured
//! Streaming jobs using long-lived operators as in traditional
//! streaming systems. [...] The first version released in Spark 2.3.0
//! only supports 'map-like' jobs (i.e., no shuffle operations), which
//! were one of the most common scenarios where users wanted lower
//! latency" — stream-to-stream transforms between bus topics.
//!
//! The implementation mirrors the paper's design: the *same* operators
//! as microbatch mode ([`RecordPipeline`]: the stateless chain
//! `incrementalize` compiles the plan to), run by long-lived tasks.
//!
//! * One **long-lived worker per source partition** polls what its
//!   partition holds with the batch read ([`BusSource::read_stamped`])
//!   and runs it through the epoch path's chain runner, one append's
//!   stamp run at a time (no task scheduling on the data path — that is
//!   exactly why latency beats microbatch mode, Figure 7);
//! * a **coordinator** periodically snapshots every worker's offset and
//!   writes epoch markers to the same WAL the microbatch engine uses,
//!   so the job's progress is durable and restartable ("the master is
//!   not on the critical path");
//! * per-record **end-to-end latency** (sink time − the ingest stamp of
//!   the record's own append) is recorded, which is the metric Figure 7
//!   plots.
//!
//! Like Spark 2.3's continuous mode, delivery between epoch markers is
//! at-least-once on recovery (epochs bound the reprocessing window): a
//! worker's offset advances once a poll's rows are delivered.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use ss_bus::{BusSource, MessageBus};
use ss_common::clock::{system_clock, ClockRef};
use ss_common::eventlog::{EVENT_PROGRESS, EVENT_START, EVENT_TERMINATE};
use ss_common::{
    EventLog, FaultRegistry, MetricsRegistry, RecordBatch, Result, Row, SchemaRef, SsError,
    TraceLog, VECTOR_ROWS,
};
use ss_plan::{plan_fingerprint, LogicalPlan};
use ss_state::CheckpointBackend;
use ss_wal::{EpochCommit, EpochOffsets, Manifest, OffsetRange, WriteAheadLog, MANIFEST_VERSION};

use crate::incremental::{incrementalize, Chain, IncNode, StatelessOp};

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

/// The compiled map-like pipeline of a continuous query: the epoch
/// path's stateless operators over one streaming scan.
pub struct RecordPipeline {
    /// The source's schema, which every poll is read with.
    input_schema: SchemaRef,
    /// The scan's pushed-down projection.
    projection: Option<Vec<usize>>,
    /// In execution order.
    ops: Vec<StatelessOp>,
}

impl RecordPipeline {
    /// Compile an analyzed plan with the epoch path's `incrementalize`,
    /// rejecting anything that is not map-like (the Spark 2.3
    /// restriction the paper describes).
    pub fn compile(plan: &LogicalPlan) -> Result<RecordPipeline> {
        if !plan.is_streaming() {
            return Err(SsError::Unsupported(
                "continuous processing requires a streaming source".into(),
            ));
        }
        let not_map_like = |found: &str| {
            SsError::Unsupported(format!(
                "continuous processing supports only map-like jobs \
                 (selections/projections); found {found}"
            ))
        };
        let mut node = incrementalize(plan, &mut 0)?;
        let mut ops = Vec::new();
        while let IncNode::Stateless { input, op, .. } = node {
            match op {
                // Metadata only in a map-like plan: nothing downstream
                // finalizes on it.
                StatelessOp::Watermark { .. } => {}
                StatelessOp::StaticJoin { .. } => return Err(not_map_like("a stream-static join")),
                op => ops.push(op),
            }
            node = *input;
        }
        let found = match node {
            IncNode::StreamScan {
                schema: input_schema,
                projection,
                ..
            } => {
                ops.reverse();
                return Ok(RecordPipeline {
                    input_schema,
                    projection,
                    ops,
                });
            }
            IncNode::StreamJoin { .. } => "a stream-stream join",
            IncNode::Aggregate { .. } => "an aggregation",
            IncNode::MapGroups { .. } => "mapGroupsWithState",
            IncNode::Distinct { .. } => "a distinct",
            _ => "a sort or limit",
        };
        Err(not_map_like(found))
    }

    /// The operators over `scan`, a batch of the projected source columns.
    fn chain(&self, scan: RecordBatch) -> Chain {
        Chain {
            scan,
            ops: self.ops.clone(),
            first_stat: 0,
        }
    }

    /// Process one source record; `None` if filtered out. A one-row
    /// adapter over the operators the workers run on whole polls.
    pub fn process(&self, row: &Row) -> Result<Option<Row>> {
        let mut scan =
            RecordBatch::from_rows(self.input_schema.clone(), std::slice::from_ref(row))?;
        if let Some(idx) = &self.projection {
            scan = scan.project(idx)?;
        }
        let chain = self.chain(scan);
        let out = chain.run(0..1, i64::MIN, &FaultRegistry::new()).whole()?;
        Ok((!out.is_empty()).then(|| out.row(0)))
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
        let source = Arc::new(BusSource::new(bus, topic, pipeline.input_schema.clone())?);

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
            let source = source.clone();
            let pipeline = pipeline.clone();
            let sink = sink.clone();
            let config = config.clone();
            let rows_counter = rows_counter.clone();
            let latency_hist = latency_hist.clone();
            workers.push(std::thread::spawn(move || {
                // The scan is each poll's batch.
                let mut chain = pipeline.chain(RecordBatch::empty(pipeline.input_schema.clone()));
                let mut offset = shared.offsets[p as usize].load(Ordering::SeqCst);
                let mut work = || -> Result<()> {
                    while !shared.stop.load(Ordering::SeqCst) {
                        let projection = pipeline.projection.as_deref();
                        let (batch, stamps) =
                            source.read_stamped(p, offset, config.poll_batch, projection)?;
                        if batch.is_empty() {
                            pause(&config.clock, config.idle_sleep);
                            continue;
                        }
                        // Fired only for non-empty polls so tests injecting
                        // a one-shot fault crash on data, not on an idle poll.
                        config.faults.fire(failpoints::WORKER_READ)?;
                        let polled = batch.num_rows() as u64;
                        chain.scan = batch;
                        // One run per append, so every row's latency is
                        // measured from its own append's stamp.
                        for (rows, stamp) in stamps {
                            let mut run = chain.run(rows, i64::MIN, &config.faults);
                            run.for_each(VECTOR_ROWS, |out| {
                                for i in 0..out.num_rows() {
                                    config.faults.fire(failpoints::SINK_COMMIT)?;
                                    sink(p, out.row(i))?;
                                    if config.record_latency {
                                        let lat = config.clock.wall_us() - stamp;
                                        latency_hist.observe(lat.max(0) as u64);
                                        let mut l = shared.latencies_us.lock();
                                        // Reservoir-ish cap to bound memory
                                        // in long benchmark runs.
                                        if l.len() < 4_000_000 {
                                            l.push(lat);
                                        }
                                    }
                                }
                                Ok(())
                            })?;
                        }
                        offset += polled;
                        rows_counter.add(polled);
                        shared.processed.fetch_add(polled, Ordering::Relaxed);
                        shared.offsets[p as usize].store(offset, Ordering::Release);
                    }
                    Ok(())
                };
                if let Err(e) = work() {
                    *shared.error.lock() = Some(e.to_string());
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
                    pause(&clock, interval);
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

/// Sleep `d` on `clock`: virtually, so simulated time advances past an
/// idle poll or a marker interval, or parked, so a stop wakes it early.
fn pause(clock: &ClockRef, d: Duration) {
    if clock.is_virtual() {
        clock.sleep(d);
    } else {
        std::thread::park_timeout(d);
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
    use ss_common::{row, DataType, Field, Schema};
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
        let err = RecordPipeline::compile(&plan)
            .err()
            .expect("an aggregation is refused");
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
    fn records_that_do_not_fit_the_source_schema_fail_the_worker() {
        // Views' `v` (BIGINT) as it is: nothing downstream would notice
        // a string in its place. The poll is the microbatch read, with
        // its errors.
        let plan = LogicalPlanBuilder::scan("in", schema(), true)
            .filter(col("kind").eq(lit("view")))
            .project(vec![col("v")])
            .build();
        for (bad, want) in [
            (row!["view", "two"], "cannot append two to BIGINT column"),
            (row!["view"], "record at in/0:1 has 1 values, schema has 2"),
        ] {
            let bus = Arc::new(MessageBus::new());
            bus.create_topic("in", 1).unwrap();
            bus.append("in", 0, vec![row!["view", 1i64]]).unwrap();
            bus.append("in", 0, vec![bad]).unwrap();
            let sink: RecordSink = Arc::new(|_p, _row| Ok(()));
            let config = ContinuousConfig::default();
            let q = ContinuousQuery::start(&plan, bus, "in", sink, None, config).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while q.error().is_none() {
                assert!(std::time::Instant::now() < deadline, "{want}: no failure");
                std::thread::sleep(Duration::from_millis(2));
            }
            let err = q.stop().unwrap_err().to_string();
            assert!(err.contains(want), "got {err}, want {want}");
        }
    }

    #[test]
    fn each_row_latency_is_measured_from_its_own_append() {
        use ss_common::clock::StepClock;

        // Two appends stamped 4 ms and 1 ms before the frozen clock's
        // reading, on the bus before the query starts: one poll reads both.
        const NOW: i64 = 1_000_000_000;
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 1).unwrap();
        let first = vec![row!["view", 1i64], row!["click", 2i64], row!["view", 3i64]];
        bus.append_at("in", 0, NOW - 4_000, first).unwrap();
        let second = vec![row!["view", 4i64], row!["view", 5i64], row!["view", 6i64]];
        bus.append_at("in", 0, NOW - 1_000, second).unwrap();
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = delivered.clone();
        let sink: RecordSink = Arc::new(move |_p, _row| {
            d2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let config = ContinuousConfig {
            clock: StepClock::frozen(NOW).handle(),
            ..Default::default()
        };
        let q = ContinuousQuery::start(&map_plan(), bus, "in", sink, None, config).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while delivered.load(Ordering::SeqCst) < 5 {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(q.stop().unwrap(), [1_000, 1_000, 1_000, 4_000, 4_000]);
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
        // A failed read, and a failed evaluation in the chain's kernels.
        use ss_exec::ops::failpoints::RECORD_EVAL;
        for point in [failpoints::WORKER_READ, RECORD_EVAL] {
            crash_at_then_restart(point);
        }
    }

    fn crash_at_then_restart(point: &str) {
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
        faults.configure(point, FaultTrigger::Once { skip: 0 }, FaultMode::Error);
        for i in 10..20i64 {
            bus.append("in", 0, vec![row!["view", i]]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.error().is_none() {
            assert!(std::time::Instant::now() < deadline, "{point}: no crash");
            std::thread::sleep(Duration::from_millis(2));
        }
        let err = q.stop().unwrap_err().to_string();
        assert!(err.contains("injected failure"), "{point}: got {err}");

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
