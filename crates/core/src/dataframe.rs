//! The DataFrame API (§4).
//!
//! "Users program Structured Streaming by writing a query against one
//! or more streams and tables using Spark SQL's batch APIs." A
//! [`DataFrame`] is a logical plan plus the context its names resolve
//! in; every transformation builds plan nodes lazily, and the same
//! DataFrame can be:
//!
//! * executed as a **batch job** over everything currently available
//!   ([`DataFrame::collect`], §7.3), or
//! * incrementalized and run as a **streaming query** via
//!   [`DataFrame::write_stream`] (§4.1's `writeStream ... start()`).

use std::sync::Arc;
use std::time::Duration;

use ss_bus::Sink;
use ss_common::{RecordBatch, Result, SchemaRef, SsError};
use ss_expr::{AggregateExpr, Expr};
use ss_plan::stateful::{StateTimeout, StatefulFn, StatefulOpDef};
use ss_plan::{JoinType, LogicalPlan, LogicalPlanBuilder, OutputMode, SortKey};
use ss_state::{CheckpointBackend, FsBackend, MemoryBackend};

use crate::context::ContextInner;
use crate::continuous::{ContinuousConfig, ContinuousQuery, RecordSink};
use crate::microbatch::{MicroBatchConfig, MicroBatchExecution};
use crate::query::{RestartPolicy, StreamingQuery};

/// When the engine computes a new result (§4 feature (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Microbatch epoch every interval (the default).
    ProcessingTime(Duration),
    /// One catch-up pass, then stop (§7.3 run-once / "discontinuous
    /// processing").
    Once,
    /// Continuous processing (§6.3); the duration is the epoch-marker
    /// interval. Requires a bus-backed source and a record sink.
    Continuous(Duration),
}

impl Trigger {
    /// The micro-batch schedule: the interval between epochs, or `None`
    /// for [`Trigger::Once`]. A continuous trigger is rejected here, the
    /// one place that does so: it runs through
    /// [`DataStreamWriter::start_continuous`], not the epoch engine.
    pub(crate) fn micro_batch_interval(self) -> Result<Option<Duration>> {
        match self {
            Trigger::ProcessingTime(d) => Ok(Some(d)),
            Trigger::Once => Ok(None),
            Trigger::Continuous(_) => Err(SsError::Plan(
                "continuous trigger: use start_continuous() with a record sink".into(),
            )),
        }
    }
}

/// A lazily-built relational query bound to a [`crate::StreamingContext`].
#[derive(Clone)]
pub struct DataFrame {
    ctx: Arc<ContextInner>,
    builder: LogicalPlanBuilder,
}

impl DataFrame {
    pub(crate) fn new(ctx: Arc<ContextInner>, builder: LogicalPlanBuilder) -> DataFrame {
        DataFrame { ctx, builder }
    }

    /// The underlying logical plan.
    pub fn plan(&self) -> Arc<LogicalPlan> {
        self.builder.clone().build()
    }

    /// The output schema (after analysis of the current plan).
    pub fn schema(&self) -> Result<SchemaRef> {
        self.builder.schema()
    }

    /// True if this query reads any streaming source.
    pub fn is_streaming(&self) -> bool {
        self.builder.plan().is_streaming()
    }

    /// The analyzed + optimized plan, rendered as an indented tree.
    pub fn explain(&self) -> Result<String> {
        let analyzed = ss_plan::analyze(&self.plan())?;
        let optimized = ss_plan::optimize(&analyzed)?;
        Ok(format!("{optimized}"))
    }

    fn wrap(&self, builder: LogicalPlanBuilder) -> DataFrame {
        DataFrame {
            ctx: self.ctx.clone(),
            builder,
        }
    }

    /// `WHERE` / `.where(...)`.
    pub fn filter(&self, predicate: Expr) -> DataFrame {
        self.wrap(self.builder.clone().filter(predicate))
    }

    /// `SELECT exprs`.
    pub fn select(&self, exprs: Vec<Expr>) -> DataFrame {
        self.wrap(self.builder.clone().project(exprs))
    }

    /// Add (or replace) one column, keeping the rest.
    pub fn with_column(&self, name: impl Into<String>, expr: Expr) -> Result<DataFrame> {
        let name = name.into();
        let schema = self.builder.schema()?;
        let mut exprs: Vec<Expr> = Vec::with_capacity(schema.len() + 1);
        for f in schema.fields() {
            if f.name != name {
                exprs.push(ss_expr::col(f.name.clone()));
            }
        }
        exprs.push(expr.alias(name));
        Ok(self.select(exprs))
    }

    /// `GROUP BY` — returns a grouped frame awaiting `.agg(...)`.
    pub fn group_by(&self, group_exprs: Vec<Expr>) -> GroupedDataFrame {
        GroupedDataFrame {
            df: self.clone(),
            group_exprs,
        }
    }

    /// Equi-join with another DataFrame.
    pub fn join(
        &self,
        right: &DataFrame,
        join_type: JoinType,
        on: Vec<(Expr, Expr)>,
    ) -> DataFrame {
        self.wrap(
            self.builder
                .clone()
                .join(right.builder.clone(), join_type, on),
        )
    }

    /// `withWatermark(column, delay)` (§4.3.1).
    pub fn with_watermark(&self, column: impl Into<String>, delay: &str) -> Result<DataFrame> {
        Ok(self.wrap(self.builder.clone().with_watermark(column, delay)?))
    }

    /// `mapGroupsWithState` (§4.3.2): exactly one output row per
    /// invocation.
    pub fn map_groups_with_state(
        &self,
        name: impl Into<String>,
        key_exprs: Vec<Expr>,
        output_schema: SchemaRef,
        timeout: StateTimeout,
        func: StatefulFn,
    ) -> DataFrame {
        self.stateful_op(name, key_exprs, output_schema, timeout, false, func)
    }

    /// `flatMapGroupsWithState` (§4.3.2): zero or more output rows per
    /// invocation.
    pub fn flat_map_groups_with_state(
        &self,
        name: impl Into<String>,
        key_exprs: Vec<Expr>,
        output_schema: SchemaRef,
        timeout: StateTimeout,
        func: StatefulFn,
    ) -> DataFrame {
        self.stateful_op(name, key_exprs, output_schema, timeout, true, func)
    }

    fn stateful_op(
        &self,
        name: impl Into<String>,
        key_exprs: Vec<Expr>,
        output_schema: SchemaRef,
        timeout: StateTimeout,
        flat: bool,
        func: StatefulFn,
    ) -> DataFrame {
        let op = StatefulOpDef {
            name: name.into(),
            key_exprs,
            output_schema,
            timeout,
            flat,
            func,
        };
        self.wrap(self.builder.clone().map_groups_with_state(op))
    }

    /// `SELECT DISTINCT`.
    pub fn distinct(&self) -> DataFrame {
        self.wrap(self.builder.clone().distinct())
    }

    /// `ORDER BY`.
    pub fn sort(&self, keys: Vec<SortKey>) -> DataFrame {
        self.wrap(self.builder.clone().sort(keys))
    }

    /// `LIMIT n`.
    pub fn limit(&self, n: usize) -> DataFrame {
        self.wrap(self.builder.clone().limit(n))
    }

    /// Execute as a batch job over everything currently available —
    /// "run its streaming business logic as a batch application"
    /// (§2.2(3), §7.3).
    pub fn collect(&self) -> Result<RecordBatch> {
        ss_exec::execute_optimized(&self.plan(), &self.ctx.batch_catalog()?)
    }

    /// Begin configuring a streaming write (§4.1's `writeStream`).
    pub fn write_stream(&self) -> DataStreamWriter {
        DataStreamWriter {
            df: self.clone(),
            name: None,
            output_mode: OutputMode::Append,
            trigger: Trigger::ProcessingTime(Duration::from_millis(100)),
            sink: None,
            record_sink: None,
            backend: None,
            config: MicroBatchConfig::default(),
        }
    }
}

/// A DataFrame with grouping keys attached, awaiting aggregates.
pub struct GroupedDataFrame {
    df: DataFrame,
    group_exprs: Vec<Expr>,
}

impl GroupedDataFrame {
    /// Apply aggregate expressions.
    pub fn agg(&self, aggregates: Vec<AggregateExpr>) -> DataFrame {
        self.df.wrap(
            self.df
                .builder
                .clone()
                .aggregate(self.group_exprs.clone(), aggregates),
        )
    }

    /// Shorthand for `.agg(vec![count_star()])` — the paper's
    /// `.count()`.
    pub fn count(&self) -> DataFrame {
        self.agg(vec![ss_expr::count_star()])
    }
}

/// Builder for starting a streaming query (§4.1's
/// `writeStream.outputMode(...).trigger(...).start()`).
pub struct DataStreamWriter {
    df: DataFrame,
    name: Option<String>,
    output_mode: OutputMode,
    trigger: Trigger,
    sink: Option<Arc<dyn Sink>>,
    record_sink: Option<RecordSink>,
    backend: Option<Arc<dyn CheckpointBackend>>,
    config: MicroBatchConfig,
}

impl DataStreamWriter {
    /// Query name (for the query manager and logs).
    pub fn query_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Output mode (§4.2); validity is checked against the query at
    /// start (§5.1).
    pub fn output_mode(mut self, mode: OutputMode) -> Self {
        self.output_mode = mode;
        self
    }

    /// Trigger policy (§4).
    pub fn trigger(mut self, trigger: Trigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// The epoch-committed sink.
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Per-record sink for continuous mode.
    pub fn record_sink(mut self, sink: RecordSink) -> Self {
        self.record_sink = Some(sink);
        self
    }

    /// Durable WAL/state location (HDFS/S3 stand-in). Defaults to an
    /// in-memory backend (no durability across process restarts).
    pub fn checkpoint(mut self, backend: Arc<dyn CheckpointBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Convenience: checkpoint to a local directory.
    pub fn checkpoint_dir(mut self, dir: impl AsRef<std::path::Path>) -> Result<Self> {
        self.backend = Some(Arc::new(FsBackend::new(dir)?));
        Ok(self)
    }

    /// The engine settings: batching, admission, state budget,
    /// retention, faults, retries, error policy and parallelism are all
    /// fields of one [`MicroBatchConfig`] (default:
    /// `MicroBatchConfig::default()`).
    pub fn engine_config(mut self, config: MicroBatchConfig) -> Self {
        self.config = config;
        self
    }

    /// The micro-batch engine this writer describes. The trigger is
    /// checked first, so a continuous one builds nothing.
    fn build_engine(&self) -> Result<MicroBatchExecution> {
        self.trigger.micro_batch_interval()?;
        let sink = self
            .sink
            .clone()
            .ok_or_else(|| SsError::Plan("writeStream requires a sink".into()))?;
        let plan = self.df.plan();
        if !plan.is_streaming() {
            return Err(SsError::Plan(
                "write_stream on a non-streaming DataFrame; use collect() for batch queries"
                    .into(),
            ));
        }
        let scans = plan.streaming_scans();
        let ctx = crate::context::StreamingContext {
            inner: self.df.ctx.clone(),
        };
        let sources = ctx.sources_for(&scans)?;
        let statics = Arc::new(ctx.static_catalog());
        let backend = self
            .backend
            .clone()
            .unwrap_or_else(|| Arc::new(MemoryBackend::new()));
        let name = self
            .name
            .clone()
            .unwrap_or_else(|| ctx.fresh_name("query"));
        MicroBatchExecution::new(
            name,
            &plan,
            sources,
            statics,
            sink,
            self.output_mode,
            backend,
            self.config.clone(),
        )
    }

    /// Start in synchronous mode: the caller drives epochs. What the
    /// tests, benchmarks and run-once deployments use.
    pub fn start_sync(self) -> Result<StreamingQuery> {
        Ok(StreamingQuery::new_sync(self.build_engine()?))
    }

    /// Start with a background trigger thread; the first failure
    /// terminates the query.
    pub fn start(self) -> Result<StreamingQuery> {
        self.start_supervised(RestartPolicy::none())
    }

    /// Start with a background trigger thread under a supervisor that
    /// restarts the query (re-running WAL recovery) on non-user
    /// failures, per `restart_policy`.
    pub fn start_supervised(self, restart_policy: RestartPolicy) -> Result<StreamingQuery> {
        StreamingQuery::start_supervised(self.build_engine()?, self.trigger, restart_policy)
    }

    /// Start in continuous processing mode (§6.3). The plan must be
    /// map-like and read a single bus-backed source; output goes to
    /// the record sink, record by record. The engine config's fault
    /// registry and clock carry over; HA is refused, since continuous
    /// mode holds no lease.
    pub fn start_continuous(self) -> Result<ContinuousQuery> {
        let Trigger::Continuous(interval) = self.trigger else {
            return Err(SsError::Plan(
                "start_continuous requires Trigger::Continuous".into(),
            ));
        };
        if self.config.ha.is_some() {
            return Err(SsError::Unsupported("continuous mode holds no lease".into()));
        }
        let record_sink = self.record_sink.clone().ok_or_else(|| {
            SsError::Plan("continuous mode requires a record sink (record_sink(...))".into())
        })?;
        let plan = self.df.plan();
        let scans = plan.streaming_scans();
        if scans.len() != 1 {
            return Err(SsError::Unsupported(
                "continuous mode supports exactly one streaming source".into(),
            ));
        }
        let ctx = crate::context::StreamingContext {
            inner: self.df.ctx.clone(),
        };
        let sources = ctx.sources_for(&scans)?;
        let source = sources.values().next().expect("one scan");
        let (bus, topic) = source.bus_binding().ok_or_else(|| {
            SsError::Unsupported(
                "continuous mode requires a bus-backed source (BusSource)".into(),
            )
        })?;
        let config = ContinuousConfig {
            epoch_interval_us: interval.as_micros() as i64,
            faults: self.config.faults.clone(),
            clock: self.config.clock.clone(),
            ..Default::default()
        };
        ContinuousQuery::start(&plan, bus, &topic, record_sink, self.backend.clone(), config)
    }
}
