//! The incrementalizer (§5.2): mapping an analyzed, optimized logical
//! plan onto a tree of *incremental* operators that update the result
//! in time proportional to the new data per trigger.
//!
//! "The engine uses Catalyst transformation rules to map these
//! supported queries into trees of physical operators that perform both
//! computation and state management." The mapping implemented here:
//!
//! | Logical node | Incremental operator |
//! |---|---|
//! | streaming `Scan` | bind the epoch's new offset range |
//! | static `Scan`/subtree | execute once via the batch engine, cache |
//! | `Filter`/`Project` | stateless per-epoch (`ss-exec` kernels) |
//! | `Watermark` | observe max event time; drop late rows (§4.3.1) |
//! | `Aggregate` | `StatefulAggregate`: a [`HashAggregator`] kernel over a [`GroupTable`] that *is* the operator's state-store entry — the store owns the one copy and lends it for the epoch; the plan declares it before a restore, which refills it entry by entry; emission follows the query's output mode. A stateless input chain over a scan is fused into the ingest loop: it runs a vector at a time ([`ChainRun`]), each vector folded in before the next starts |
//! | stream×static `Join` | hash join against the static side, computed — and its keys hashed — once per query run |
//! | stream×stream `Join` | symmetric stateful join ([`StreamJoinExec`]) |
//! | `MapGroupsWithState` | stateful UDF operator ([`crate::stateful`]) |
//! | `Distinct` | stateful dedup (seen-set in the state store) |
//! | `Sort`/`Limit` | applied to the per-epoch output (Complete mode only, enforced at analysis) |
//!
//! Each stateful operator is assigned a stable `op_id` so its state
//! store entries survive restarts. Per §5.2, the *internal* output
//! mode of each operator is inferred here — users never specify
//! intra-DAG modes.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_common::profile::PHASE_MERGE;
use ss_common::{
    shuffle_partition, FaultRegistry, RecordBatch, Result, Row, SchemaRef, SsError, Value,
    VECTOR_ROWS,
};
use ss_exec::aggregate::{GroupTable, HashAggregator};
use ss_exec::executor::Catalog;
use ss_exec::join::{hash_join_projected, probe_join, KeyTable};
use ss_exec::ops;
use ss_expr::Expr;
use ss_plan::stateful::StatefulOpDef;
use ss_plan::{JoinType, LogicalPlan, OutputMode, SortKey};
use ss_state::{StateEntry, StateStore};

use crate::parallel::{self, shard_ns, Exchange, ExchangeStats};
use crate::sjoin::{JoinSide, StreamJoinExec, TaggedRow};
use crate::stateful::execute_map_groups;
use crate::watermark::WatermarkTracker;

/// One operator's contribution to one epoch (§7.4 monitoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Stable operator label (`scan:events`, `agg-0`, `filter#1`, …).
    pub op: String,
    /// Rows the operator emitted this epoch.
    pub rows_out: u64,
    /// When the operator started, µs relative to the collector's
    /// creation (the start of the epoch's execution).
    pub started_rel_us: u64,
    /// Inclusive evaluation time (µs): contains the children's time,
    /// like a flame graph.
    pub duration_us: u64,
}

/// Collects per-operator stats while an epoch executes. One collector
/// is created per epoch; operators record in post-order (children
/// first), which is deterministic for a fixed plan.
#[derive(Debug)]
pub struct OpStatsCollector {
    base: Instant,
    stats: Vec<OpStat>,
}

impl Default for OpStatsCollector {
    fn default() -> OpStatsCollector {
        OpStatsCollector::new()
    }
}

impl OpStatsCollector {
    pub fn new() -> OpStatsCollector {
        OpStatsCollector {
            base: Instant::now(),
            stats: Vec::new(),
        }
    }

    /// Microseconds since the collector (epoch) started.
    pub fn now_rel_us(&self) -> u64 {
        self.base.elapsed().as_micros() as u64
    }

    pub(crate) fn record(
        &mut self,
        op: String,
        rows_out: u64,
        started_rel_us: u64,
        duration_us: u64,
    ) {
        self.stats.push(OpStat {
            op,
            rows_out,
            started_rel_us,
            duration_us,
        });
    }

    pub fn stats(&self) -> &[OpStat] {
        &self.stats
    }

    pub fn take(&mut self) -> Vec<OpStat> {
        std::mem::take(&mut self.stats)
    }
}

/// Everything one epoch's execution can see.
pub struct EpochContext<'a> {
    pub epoch: u64,
    /// Streaming scan name → this epoch's new rows (one concatenated
    /// batch per source, already projected to the scan's columns).
    /// Scans *take* their batch out of the map (no copy); only scans
    /// marked shared clone it.
    pub inputs: &'a mut HashMap<String, RecordBatch>,
    /// Static tables for the batch-executed side of stream–static
    /// joins.
    pub statics: &'a dyn Catalog,
    pub store: &'a mut StateStore,
    /// The watermark in force for this epoch (advanced at epoch
    /// boundaries).
    pub watermark_us: i64,
    pub processing_time_us: i64,
    pub output_mode: OutputMode,
    /// Event-time maxima observed while running this epoch; folded into
    /// the [`WatermarkTracker`] at the epoch boundary.
    pub tracker: &'a mut WatermarkTracker,
    /// Per-operator timing collector for this epoch (§7.4).
    pub ops: &'a mut OpStatsCollector,
    /// Fail-point registry: stateless eval arms fire
    /// `exec.record.eval` so the chaos suite can poison evaluation.
    pub faults: &'a FaultRegistry,
    /// How stateful operators (and a stateless root) obtain their
    /// input and run their kernel: inline at one partition, through
    /// map → shuffle → reduce stages at N.
    pub exchange: &'a Exchange,
    /// Task, phase and shuffle facts the exchange records at N
    /// partitions (stays empty at one).
    pub run: ExchangeStats,
}

/// A stateless, row-wise operator. Applying it to the chunks of a
/// batch and concatenating the outputs is byte-identical to one
/// whole-batch application (for the shapes
/// [`StatelessOp::is_chunk_safe`] admits), so the tree walk, the fused
/// aggregate input and the exchange's map tasks run the same
/// [`StatelessOp::apply`].
#[derive(Clone)]
pub enum StatelessOp {
    Filter(Expr),
    Project(Vec<Expr>),
    /// `Project(Filter(x))` fused: filtered-out columns the projection
    /// drops are never built.
    FilterProject {
        predicate: Expr,
        exprs: Vec<Expr>,
        /// Input columns `exprs` read ([`ops::needed_columns`]).
        needed: Vec<usize>,
    },
    /// Observe the max event time for the watermark update at the
    /// epoch boundary, and drop rows later than the in-force watermark
    /// (§4.3.1).
    Watermark {
        column: String,
    },
    /// Stream–static join against the cached static side.
    StaticJoin {
        static_plan: Arc<LogicalPlan>,
        /// The static side, computed once per query run by the batch
        /// engine (§3: "compute a static table [...] and join it with
        /// a stream") and shared by map tasks — with its key table
        /// when it is the join's build side (the stream probes).
        cache: Option<Arc<(RecordBatch, Option<KeyTable>)>>,
        stream_is_left: bool,
        join_type: JoinType,
        on: Vec<(Expr, Expr)>,
        /// Output columns to materialize (indices into the full join
        /// output); filled in when a parent aggregation only reads a
        /// subset, so join keys are never copied into the output.
        output_projection: Option<Vec<usize>>,
    },
}

impl StatelessOp {
    /// Chunk-safe unless a stream–static join builds on the stream
    /// side (output follows probe-row order only when the stream
    /// probes) or pads unmatched static rows (right-outer pads once
    /// per *batch*).
    pub(crate) fn is_chunk_safe(&self) -> bool {
        !matches!(
            self,
            StatelessOp::StaticJoin { stream_is_left, join_type, .. }
                if !*stream_is_left || *join_type == JoinType::RightOuter
        )
    }

    /// The operator's metric label; `seq` (its post-order record
    /// number) disambiguates operators without a name of their own.
    fn label(&self, seq: usize) -> String {
        match self {
            StatelessOp::Filter(_) => format!("filter#{seq}"),
            StatelessOp::Project(_) | StatelessOp::FilterProject { .. } => format!("project#{seq}"),
            StatelessOp::Watermark { column } => format!("watermark:{column}"),
            StatelessOp::StaticJoin { .. } => format!("static-join#{seq}"),
        }
    }

    /// Fill the static-join cache (engine thread, before `apply`).
    pub(crate) fn prime(&mut self, statics: &dyn Catalog) -> Result<()> {
        if let StatelessOp::StaticJoin {
            static_plan,
            cache,
            stream_is_left,
            on,
            ..
        } = self
        {
            if cache.is_none() {
                let batch = ss_exec::execute(static_plan, statics)?;
                let table = stream_is_left.then(|| KeyTable::build(&batch, on, true));
                *cache = Some(Arc::new((batch, table.transpose()?)));
            }
        }
        Ok(())
    }

    /// Apply the operator to one batch (or vector). Also returns the
    /// max event time a watermark operator observed, with its column.
    pub(crate) fn apply(
        &self,
        batch: RecordBatch,
        watermark_us: i64,
        faults: &FaultRegistry,
    ) -> Result<(RecordBatch, Option<(&str, i64)>)> {
        let out = match self {
            StatelessOp::Filter(_) | StatelessOp::FilterProject { .. } => {
                return self.apply_rows(&batch, 0..batch.num_rows(), watermark_us, faults)
            }
            StatelessOp::Project(exprs) => {
                if batch.num_rows() > 0 {
                    faults.fire(ops::failpoints::RECORD_EVAL)?;
                }
                ops::project_batch(&batch, exprs)?
            }
            StatelessOp::Watermark { column } => {
                let col = batch.column_by_name(column)?;
                let tc = col.as_i64()?;
                let mut max_seen = i64::MIN;
                for i in 0..tc.len() {
                    if let Some(&v) = tc.get(i) {
                        max_seen = max_seen.max(v);
                    }
                }
                // Rows already later than the in-force watermark go:
                // downstream stateful operators have (or may have)
                // finalized their groups.
                let out = if watermark_us > i64::MIN {
                    let mask: Vec<bool> = (0..tc.len())
                        .map(|i| tc.get(i).is_none_or(|&v| v >= watermark_us))
                        .collect();
                    batch.filter(&mask)?
                } else {
                    batch
                };
                let seen = (max_seen > i64::MIN).then_some((column.as_str(), max_seen));
                return Ok((out, seen));
            }
            StatelessOp::StaticJoin {
                cache,
                join_type,
                on,
                output_projection,
                ..
            } => {
                let proj = output_projection.as_deref();
                match cache.as_deref() {
                    Some((statics, Some(table))) => {
                        probe_join(&batch, statics, table, *join_type, on, proj)?
                    }
                    Some((statics, None)) => {
                        hash_join_projected(statics, &batch, *join_type, on, proj)?
                    }
                    None => return Err(SsError::Internal("static join cache not primed".into())),
                }
            }
        };
        Ok((out, None))
    }

    /// [`StatelessOp::apply`] to rows `rows` of `batch`, which the
    /// filtering operators read in place (no copy of a vector of the
    /// scan).
    pub(crate) fn apply_rows(
        &self,
        batch: &RecordBatch,
        rows: Range<usize>,
        watermark_us: i64,
        faults: &FaultRegistry,
    ) -> Result<(RecordBatch, Option<(&str, i64)>)> {
        let all: Vec<usize>;
        let (predicate, exprs, needed) = match self {
            StatelessOp::Filter(predicate) => {
                all = (0..batch.num_columns()).collect();
                (predicate, None, &all[..])
            }
            StatelessOp::FilterProject {
                predicate,
                exprs,
                needed,
            } => (predicate, Some(&exprs[..]), &needed[..]),
            _ => return self.apply(batch.slice(rows.start, rows.len())?, watermark_us, faults),
        };
        if !rows.is_empty() {
            faults.fire(ops::failpoints::RECORD_EVAL)?;
        }
        let out = ops::filter_project_rows(batch, rows, predicate, exprs, needed)?;
        Ok((out, None))
    }
}

/// What one operator of a chain did over one [`ChainRun`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpRun {
    rows_out: u64,
    time: Duration,
    /// A watermark operator's max observed event time.
    max_seen: Option<i64>,
}

/// A stateless chain over a scan ([`chain_kind`]), lifted out of the
/// tree for one epoch: its consumer — an aggregate's ingest, a map
/// task — drives it through a [`ChainRun`], so no operator has to
/// materialise an epoch-sized batch.
pub(crate) struct Chain {
    /// The epoch's scan, read in place by every run over a row range.
    /// (A continuous worker's chain swaps each poll's batch in.)
    pub(crate) scan: RecordBatch,
    /// The operators, primed, in execution order.
    pub(crate) ops: Vec<StatelessOp>,
    /// Where the operators' records start in `ctx.ops`.
    pub(crate) first_stat: usize,
}

impl Chain {
    /// Take the epoch input at the bottom of `node`'s chain and
    /// collect its operators. The scan records itself as in the tree
    /// walk; each operator's record is opened here — the walk's
    /// post-order and labels, starting with (and containing) the
    /// record below it — and filled by [`Chain::record`].
    pub(crate) fn lift(node: &mut IncNode, ctx: &mut EpochContext<'_>) -> Result<Chain> {
        match node {
            IncNode::Stateless { input, op, .. } => {
                let mut chain = Chain::lift(input, ctx)?;
                op.prime(ctx.statics)?;
                let below = ctx.ops.stats.last().expect("the scan below recorded itself");
                let (started, below_us) = (below.started_rel_us, below.duration_us);
                ctx.ops.record(op.label(ctx.ops.stats.len()), 0, started, below_us);
                chain.ops.push(op.clone());
                Ok(chain)
            }
            scan @ IncNode::StreamScan { .. } => Ok(Chain {
                scan: scan.execute_epoch(ctx)?,
                ops: Vec::new(),
                first_stat: ctx.ops.stats.len(),
            }),
            _ => Err(SsError::Internal(
                "lifted input is not a stateless chain over a scan".into(),
            )),
        }
    }

    /// The chain poised over rows `rows` of the scan.
    pub(crate) fn run<'a>(
        &'a self,
        rows: Range<usize>,
        watermark_us: i64,
        faults: &'a FaultRegistry,
    ) -> ChainRun<'a> {
        ChainRun {
            chain: self,
            rows,
            watermark_us,
            faults,
            stats: vec![OpRun::default(); self.ops.len()],
            rows_out: 0,
        }
    }

    /// Fold one run's stats into the operators' records — summed over
    /// runs (task CPU time at N partitions), time inclusive of the
    /// operators below — and its event-time maxima into the tracker.
    pub(crate) fn record(&self, ctx: &mut EpochContext<'_>, stats: &[OpRun]) {
        let mut inclusive = Duration::ZERO;
        for (i, (op, run)) in self.ops.iter().zip(stats).enumerate() {
            inclusive += run.time;
            let stat = &mut ctx.ops.stats[self.first_stat + i];
            stat.rows_out += run.rows_out;
            stat.duration_us += inclusive.as_micros() as u64;
            if let (StatelessOp::Watermark { column }, Some(max)) = (op, run.max_seen) {
                ctx.tracker.observe(column, max);
            }
        }
    }
}

/// One pass of a [`Chain`] over a row range of its scan.
pub(crate) struct ChainRun<'a> {
    chain: &'a Chain,
    rows: Range<usize>,
    watermark_us: i64,
    faults: &'a FaultRegistry,
    /// Per operator, summed over the vectors run.
    pub(crate) stats: Vec<OpRun>,
    /// Rows handed to the consumer.
    pub(crate) rows_out: u64,
}

impl ChainRun<'_> {
    /// Run the chain `vector_rows` rows of the scan at a time
    /// ([`VECTOR_ROWS`]; the whole range for a chain that is not
    /// chunk-safe), handing each vector's output to `sink` in row
    /// order, so no operator's output outlives its vector. An empty
    /// range still runs one (empty) vector. A failure in vector `k`
    /// leaves vectors `0..k` in whatever `sink` folded them into: the
    /// epoch fails and its in-memory state is reloaded from the last
    /// checkpoint.
    pub(crate) fn for_each(
        &mut self,
        vector_rows: usize,
        mut sink: impl FnMut(RecordBatch) -> Result<()>,
    ) -> Result<()> {
        let scan = &self.chain.scan;
        loop {
            let end = self.rows.end.min(self.rows.start.saturating_add(vector_rows));
            let rows = std::mem::replace(&mut self.rows.start, end)..end;
            // `None`: the vector is still the scan's rows, read in place.
            let mut batch = None;
            for (op, stat) in self.chain.ops.iter().zip(&mut self.stats) {
                let started = Instant::now();
                let (out, seen) = match batch {
                    None => op.apply_rows(scan, rows.clone(), self.watermark_us, self.faults)?,
                    Some(b) => op.apply(b, self.watermark_us, self.faults)?,
                };
                stat.max_seen = stat.max_seen.max(seen.map(|(_, max)| max));
                stat.rows_out += out.num_rows() as u64;
                stat.time += started.elapsed();
                batch = Some(out);
            }
            let batch = match batch {
                Some(b) => b,
                None => scan.slice(rows.start, rows.len())?,
            };
            self.rows_out += batch.num_rows() as u64;
            sink(batch)?;
            if self.rows.is_empty() {
                return Ok(());
            }
        }
    }

    /// The whole range as one vector, for consumers that want a batch.
    pub(crate) fn whole(&mut self) -> Result<RecordBatch> {
        let mut out = None;
        self.for_each(usize::MAX, |batch| {
            out = Some(batch);
            Ok(())
        })?;
        out.ok_or_else(|| SsError::Internal("a chain run yields at least one vector".into()))
    }
}

/// Is `node` a stateless chain over a scan ([`Chain::lift`] takes it),
/// and if so, is it chunk-safe: [`StatelessOp::is_chunk_safe`]
/// operators over an unshared scan (a shared scan's input is consumed
/// by several plan branches; chunk ownership would be ambiguous)?
/// Stateful or order-sensitive nodes (`MapGroups`, `Distinct`, nested
/// aggregates/joins, `Sort`/`Limit`) end a chain.
pub(crate) fn chain_kind(node: &IncNode) -> Option<bool> {
    match node {
        IncNode::StreamScan { shared, .. } => Some(!shared),
        IncNode::Stateless { input, op, .. } => {
            chain_kind(input).map(|safe| safe && op.is_chunk_safe())
        }
        _ => None,
    }
}

/// A tree of incremental operators.
pub enum IncNode {
    StreamScan {
        name: String,
        schema: SchemaRef,
        projection: Option<Vec<usize>>,
        /// True when the same source is scanned more than once in the
        /// plan (e.g. a stream self-join): the epoch input must then be
        /// cloned rather than moved out of the input map.
        shared: bool,
    },
    Stateless {
        input: Box<IncNode>,
        op: StatelessOp,
        schema: SchemaRef,
    },
    StreamJoin {
        left: Box<IncNode>,
        right: Box<IncNode>,
        exec: StreamJoinExec,
    },
    Aggregate {
        input: Box<IncNode>,
        op_id: String,
        /// Configuration and kernel only: the groups are the tables of
        /// the operator's state namespaces (`{op_id}`, or one
        /// `{op_id}/p{r}` per partition), which the store owns.
        agg: Arc<HashAggregator>,
    },
    MapGroups {
        input: Box<IncNode>,
        op_id: String,
        op: StatefulOpDef,
    },
    Distinct {
        input: Box<IncNode>,
        op_id: String,
        schema: SchemaRef,
    },
    Sort {
        input: Box<IncNode>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<IncNode>,
        n: usize,
    },
}

impl IncNode {
    /// The operator's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            IncNode::StreamScan {
                schema, projection, ..
            } => match projection {
                Some(idx) => Arc::new(schema.project(idx).expect("validated projection")),
                None => schema.clone(),
            },
            IncNode::Sort { input, .. } | IncNode::Limit { input, .. } => input.schema(),
            IncNode::Stateless { schema, .. } => schema.clone(),
            IncNode::StreamJoin { exec, .. } => exec.output_schema.clone(),
            IncNode::Aggregate { agg, .. } => agg.output_schema().clone(),
            IncNode::MapGroups { op, .. } => op.output_schema.clone(),
            IncNode::Distinct { schema, .. } => schema.clone(),
        }
    }

    /// The operator's stable metric label. Nodes with inherent identity
    /// (scans, watermarks, stateful op_ids) use it; stateless nodes are
    /// disambiguated with their post-order record sequence number,
    /// which is deterministic for a fixed plan.
    fn op_label(&self, seq: usize) -> String {
        match self {
            IncNode::StreamScan { name, .. } => format!("scan:{name}"),
            IncNode::Stateless { op, .. } => op.label(seq),
            IncNode::StreamJoin { exec, .. } => exec.op_id.clone(),
            IncNode::Aggregate { op_id, .. }
            | IncNode::MapGroups { op_id, .. }
            | IncNode::Distinct { op_id, .. } => op_id.clone(),
            IncNode::Sort { .. } => format!("sort#{seq}"),
            IncNode::Limit { .. } => format!("limit#{seq}"),
        }
    }

    /// Execute one epoch, returning this operator's output delta (or,
    /// for Complete-mode aggregates and their parents, the full
    /// table). Records this operator's rows/duration into `ctx.ops`.
    pub fn execute_epoch(&mut self, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
        // A stateless root at N partitions: its whole chain runs as one
        // map stage, which records every operator of it.
        if matches!(self, IncNode::Stateless { .. }) && ctx.exchange.partitions() > 1 {
            return exchange_map(self, ctx);
        }
        let started_rel = ctx.ops.now_rel_us();
        let started = Instant::now();
        let out = self.execute_op(ctx)?;
        let duration = started.elapsed().as_micros() as u64;
        let label = self.op_label(ctx.ops.stats().len());
        ctx.ops
            .record(label, out.num_rows() as u64, started_rel, duration);
        Ok(out)
    }

    fn execute_op(&mut self, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
        match self {
            IncNode::StreamScan {
                name,
                schema,
                projection,
                shared,
            } => {
                let projected_schema = match projection {
                    Some(idx) => Arc::new(schema.project(idx)?),
                    None => schema.clone(),
                };
                let batch = if *shared {
                    ctx.inputs.get(name).cloned()
                } else {
                    ctx.inputs.remove(name)
                };
                let batch = match batch {
                    Some(b) => b,
                    None => return Ok(RecordBatch::empty(projected_schema)),
                };
                // The engine pushes the projection into the source
                // read, so the batch usually arrives pre-projected.
                if batch.schema().fields() == projected_schema.fields() {
                    Ok(batch)
                } else {
                    match projection {
                        Some(idx) => batch.project(idx),
                        None => Ok(batch),
                    }
                }
            }
            IncNode::Stateless { input, op, .. } => {
                let batch = input.execute_epoch(ctx)?;
                op.prime(ctx.statics)?;
                let (out, seen) = op.apply(batch, ctx.watermark_us, ctx.faults)?;
                if let Some((column, max_seen)) = seen {
                    ctx.tracker.observe(column, max_seen);
                }
                Ok(out)
            }
            IncNode::StreamJoin { left, right, exec } => {
                if ctx.exchange.partitions() > 1 {
                    return exchange_join(left, right, exec, ctx);
                }
                let l = left.execute_epoch(ctx)?;
                let r = right.execute_epoch(ctx)?;
                exec.execute_epoch(&l, &r, ctx.store, ctx.watermark_us)
            }
            IncNode::Aggregate { input, op_id, agg } => {
                if ctx.exchange.partitions() > 1 {
                    return exchange_aggregate(input, op_id, agg, ctx);
                }
                // The table is updated where it lives, in the store: a
                // failure from here on leaves it half-updated and
                // dirty, and the epoch's failure reloads the store.
                match chain_kind(input) {
                    // A chain over a scan is fused into the ingest:
                    // folding its vectors in as they arrive is, for
                    // every aggregate, byte-identical to one `ingest`
                    // of their concatenation.
                    Some(chunk_safe) => {
                        let chain = Chain::lift(input, ctx)?;
                        let rows = 0..chain.scan.num_rows();
                        let mut run = chain.run(rows, ctx.watermark_us, ctx.faults);
                        let vector_rows = if chunk_safe { VECTOR_ROWS } else { usize::MAX };
                        let table = agg.table(ctx.store.operator(op_id));
                        run.for_each(vector_rows, |v| agg.ingest(table, &v))?;
                        chain.record(ctx, &run.stats);
                    }
                    None => {
                        let batch = input.execute_epoch(ctx)?;
                        agg.ingest(agg.table(ctx.store.operator(op_id)), &batch)?;
                    }
                }
                let op = ctx.store.operator(op_id);
                let out = aggregate_step(agg, agg.table(op), ctx.output_mode, ctx.watermark_us);
                op.sync_table_metrics();
                out
            }
            IncNode::MapGroups { input, op_id, op } => {
                let delta = input.execute_epoch(ctx)?;
                execute_map_groups(
                    op,
                    op_id,
                    &delta,
                    ctx.store,
                    ctx.watermark_us,
                    ctx.processing_time_us,
                )
            }
            IncNode::Distinct {
                input,
                op_id,
                schema,
            } => {
                let delta = input.execute_epoch(ctx)?;
                let op = ctx.store.operator(op_id);
                let mut keep = Vec::with_capacity(delta.num_rows());
                for i in 0..delta.num_rows() {
                    let row = delta.row(i);
                    if op.get(&row).is_none() {
                        op.put(row, StateEntry::new(vec![]));
                        keep.push(true);
                    } else {
                        keep.push(false);
                    }
                }
                let out = delta.filter(&keep)?;
                debug_assert_eq!(out.schema().fields(), schema.fields());
                Ok(out)
            }
            IncNode::Sort { input, keys } => {
                let batch = input.execute_epoch(ctx)?;
                ops::sort_batch(&batch, keys)
            }
            IncNode::Limit { input, n } => {
                let batch = input.execute_epoch(ctx)?;
                ops::limit_batch(&batch, *n)
            }
        }
    }

    /// Ready the operators for a restore (§6.1 step 4) at `partitions`
    /// partitions: drop the static-join caches and declare each
    /// aggregate's tables, which the restore then fills. Lists the
    /// plan's sharded state families, `(namespace base, suffix)`, in
    /// `families`.
    pub fn declare_state(
        &mut self,
        store: &mut StateStore,
        partitions: usize,
        families: &mut Vec<(String, &'static str)>,
    ) {
        match self {
            IncNode::Stateless { input, op, .. } => {
                if let StatelessOp::StaticJoin { cache, .. } = op {
                    *cache = None;
                }
                input.declare_state(store, partitions, families)
            }
            IncNode::Aggregate { input, op_id, agg } => {
                for r in 0..partitions {
                    agg.table(store.operator(&shard_ns(op_id, r, partitions, "")));
                }
                families.push((op_id.clone(), ""));
                input.declare_state(store, partitions, families)
            }
            IncNode::MapGroups { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => input.declare_state(store, partitions, families),
            IncNode::StreamJoin { left, right, exec } => {
                families.extend([(exec.op_id.clone(), "-left"), (exec.op_id.clone(), "-right")]);
                left.declare_state(store, partitions, families);
                right.declare_state(store, partitions, families)
            }
            IncNode::StreamScan { .. } => {}
        }
    }

    /// Column projections to push into each source read: scan name →
    /// projection (`None` = all columns; a name scanned with different
    /// projections also maps to `None`).
    pub fn scan_projections(&self) -> HashMap<String, Option<Vec<usize>>> {
        let mut out: HashMap<String, Option<Vec<usize>>> = HashMap::new();
        self.collect_scan_projections(&mut out);
        out
    }

    fn collect_scan_projections(&self, out: &mut HashMap<String, Option<Vec<usize>>>) {
        match self {
            IncNode::StreamScan {
                name, projection, ..
            } => match out.get(name) {
                None => {
                    out.insert(name.clone(), projection.clone());
                }
                Some(existing) if *existing != *projection => {
                    out.insert(name.clone(), None);
                }
                Some(_) => {}
            },
            IncNode::StreamJoin { left, right, .. } => {
                left.collect_scan_projections(out);
                right.collect_scan_projections(out);
            }
            IncNode::Stateless { input, .. }
            | IncNode::Aggregate { input, .. }
            | IncNode::MapGroups { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => input.collect_scan_projections(out),
        }
    }

    /// Any processing-time timeouts pending at `processing_time_us`?
    /// (Used to run an epoch even when no new data arrived.)
    pub fn has_pending_timeouts(
        &self,
        store: &mut StateStore,
        processing_time_us: i64,
    ) -> bool {
        match self {
            IncNode::MapGroups { input, op_id, op } => {
                let pending = matches!(
                    op.timeout,
                    ss_plan::StateTimeout::ProcessingTime
                ) && !store
                    .operator(op_id)
                    .expired_keys(processing_time_us)
                    .is_empty();
                pending || input.has_pending_timeouts(store, processing_time_us)
            }
            IncNode::StreamScan { .. } => false,
            IncNode::StreamJoin { left, right, .. } => {
                left.has_pending_timeouts(store, processing_time_us)
                    || right.has_pending_timeouts(store, processing_time_us)
            }
            IncNode::Stateless { input, .. }
            | IncNode::Aggregate { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => {
                input.has_pending_timeouts(store, processing_time_us)
            }
        }
    }

    /// Positions (in the final output schema) of the columns that act
    /// as the upsert key for Update-mode sinks: the aggregate's group
    /// columns when they survive to the output, else the whole row.
    pub fn update_key_columns(&self, final_schema: &ss_common::Schema) -> Vec<usize> {
        // Find the aggregate (there is at most one, per §5.2).
        fn find_agg(node: &IncNode) -> Option<&HashAggregator> {
            match node {
                IncNode::Aggregate { agg, .. } => Some(agg),
                IncNode::StreamScan { .. } => None,
                IncNode::StreamJoin { left, right, .. } => {
                    find_agg(left).or_else(|| find_agg(right))
                }
                IncNode::Stateless { input, .. }
                | IncNode::MapGroups { input, .. }
                | IncNode::Distinct { input, .. }
                | IncNode::Sort { input, .. }
                | IncNode::Limit { input, .. } => find_agg(input),
            }
        }
        if let Some(agg) = find_agg(self) {
            let agg_schema = agg.output_schema();
            // Group columns are the prefix of the aggregate schema,
            // before the aggregate expressions.
            let key_names: Vec<&str> = agg_schema
                .fields()
                .iter()
                .take(agg.num_key_columns())
                .map(|f| f.name.as_str())
                .collect();
            let positions: Vec<usize> = key_names
                .iter()
                .filter_map(|n| final_schema.index_of(n).ok())
                .collect();
            if !positions.is_empty() {
                return positions;
            }
        }
        (0..final_schema.len()).collect()
    }
}

/// The aggregate step after ingest, over one table: close the epoch's
/// change list, emit per the output mode, and evict what the watermark
/// has closed.
fn aggregate_step(
    agg: &HashAggregator,
    table: &mut GroupTable,
    mode: OutputMode,
    watermark_us: i64,
) -> Result<RecordBatch> {
    let changed = agg.drain_changed(table, mode == OutputMode::Update)?;
    match mode {
        OutputMode::Complete => agg.finish(table),
        OutputMode::Update => {
            table.evict_closed(watermark_us);
            Ok(changed)
        }
        OutputMode::Append => {
            let out = agg.finalized(table, watermark_us)?;
            table.evict_closed(watermark_us);
            Ok(out)
        }
    }
}

/// A stateless chain at N partitions: one map stage, chunk outputs
/// concatenated in chunk order.
fn exchange_map(node: &mut IncNode, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
    let mut sides = parallel::map_stage(ctx, &mut [node], |_, _, run| run.whole())?;
    let merge = Instant::now();
    let out = RecordBatch::concat(&sides.remove(0))?;
    ctx.run.phase(PHASE_MERGE, merge);
    Ok(out)
}

/// An aggregate at N partitions: map tasks aggregate their chunk, a
/// vector at a time, into a task-local combiner and ship its groups as
/// partials, the shuffle
/// routes each key's partials to the partition that owns it, and every
/// partition merges them into the table of its `{op_id}/p{r}`
/// namespace and runs [`aggregate_step`] over it.
fn exchange_aggregate(
    input: &mut IncNode,
    op_id: &str,
    agg: &Arc<HashAggregator>,
    ctx: &mut EpochContext<'_>,
) -> Result<RecordBatch> {
    let parts = ctx.exchange.partitions();
    let combiner = agg.clone();
    let partials = parallel::shuffle(
        ctx,
        op_id,
        &mut [input],
        move |_, _, run| {
            let mut local = combiner.fresh_clone();
            run.for_each(VECTOR_ROWS, |v| local.update_batch(&v))?;
            Ok(local.into_partials())
        },
        |(key, _), parts| shuffle_partition(key, parts),
        |(key, accs)| key.approx_bytes() + std::mem::size_of_val(accs.as_slice()),
    )?
    .remove(0);
    // Each namespace moves into its reduce task, table and all. A
    // failed stage loses them; the epoch's failure reloads the store
    // from the checkpoint.
    let work: Vec<_> = partials
        .into_iter()
        .enumerate()
        .map(|(r, partials)| (ctx.store.take_op(&shard_ns(op_id, r, parts, "")), partials))
        .collect();
    let (mode, watermark_us) = (ctx.output_mode, ctx.watermark_us);
    let kernel = agg.clone();
    let reduced = parallel::reduce(ctx, work, move |(mut op, partials)| {
        let table = kernel.table(&mut op);
        kernel.merge_partials(table, partials)?;
        let rows = aggregate_step(&kernel, table, mode, watermark_us)?.to_rows();
        op.sync_table_metrics();
        Ok((op, rows))
    })?;
    let merge = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    for (r, (op, shard_rows)) in reduced.into_iter().enumerate() {
        ctx.store.put_op(&shard_ns(op_id, r, parts, ""), op);
        rows.extend(shard_rows);
    }
    // Keys never span shards and every shard emits key-sorted rows
    // (the window-end column is a function of window-start, so
    // whole-row order == key order): a global sort reproduces the
    // one-partition emission order.
    rows.sort();
    let out = RecordBatch::from_rows(agg.output_schema().clone(), &rows)?;
    ctx.run.phase(PHASE_MERGE, merge);
    Ok(out)
}

/// A stream–stream join at N partitions: both sides' map tasks
/// evaluate join keys, the shuffle routes each key to its owner, and
/// every partition probes/buffers/evicts against its own
/// `{op_id}/p{r}-left/-right` namespaces.
fn exchange_join(
    left: &mut IncNode,
    right: &mut IncNode,
    exec: &StreamJoinExec,
    ctx: &mut EpochContext<'_>,
) -> Result<RecordBatch> {
    let parts = ctx.exchange.partitions();
    let keyer = exec.clone();
    let null_key = Row::new(vec![Value::Null]);
    let mut sides = parallel::shuffle(
        ctx,
        &exec.op_id,
        &mut [left, right],
        // The chunk index in the high bits keeps delta-row indices in
        // global arrival order without knowing earlier chunks' sizes.
        move |side, chunk_idx, run| {
            keyer.prepare_side(&run.whole()?, side == 0, (chunk_idx as u64) << 32)
        },
        // NULL-keyed rows shuffle on their buffer key (`[NULL]`), so
        // exactly one partition owns their buffering and outer-row
        // eviction.
        move |(_, key, _), parts| shuffle_partition(key.as_ref().unwrap_or(&null_key), parts),
        |(_, _, row)| row.approx_bytes(),
    )?;
    let right_rows = sides.remove(1);
    let left_rows = sides.remove(0);
    let ns = |r: usize, suffix: &str| shard_ns(&exec.op_id, r, parts, suffix);
    let work: Vec<_> = left_rows
        .into_iter()
        .zip(right_rows)
        .enumerate()
        .map(|(r, (l, rr))| {
            let left_op = ctx.store.take_op(&ns(r, "-left"));
            let right_op = ctx.store.take_op(&ns(r, "-right"));
            (left_op, right_op, l, rr)
        })
        .collect();
    let kernel = exec.clone();
    let watermark_us = ctx.watermark_us;
    let reduced = parallel::reduce(ctx, work, move |(mut left_op, mut right_op, l, r)| {
        let tagged = kernel.execute_on_states(&l, &r, &mut left_op, &mut right_op, watermark_us)?;
        Ok((left_op, right_op, tagged))
    })?;
    let merge = Instant::now();
    let mut tagged: Vec<TaggedRow> = Vec::new();
    for (r, (left_op, right_op, t)) in reduced.into_iter().enumerate() {
        ctx.store.put_op(&ns(r, "-left"), left_op);
        ctx.store.put_op(&ns(r, "-right"), right_op);
        tagged.extend(t);
    }
    // `(phase, idx, key, seq)` is the one-partition emission order.
    tagged.sort();
    let rows: Vec<Row> = tagged.into_iter().map(|t| t.row).collect();
    let out = RecordBatch::from_rows(exec.output_schema.clone(), &rows)?;
    ctx.run.phase(PHASE_MERGE, merge);
    Ok(out)
}

/// Map an analyzed, optimized logical plan to an incremental operator
/// tree. `counter` provides stable operator ids (depth-first order, so
/// the same query shape always gets the same ids across restarts).
pub fn incrementalize(plan: &LogicalPlan, counter: &mut usize) -> Result<IncNode> {
    // Sources scanned more than once (stream self-joins) must clone
    // their epoch input; unique scans take it by move.
    let mut scan_counts: HashMap<String, usize> = HashMap::new();
    for s in plan.streaming_scans() {
        *scan_counts.entry(s).or_insert(0) += 1;
    }
    inc_node(plan, counter, &scan_counts)
}

fn inc_node(
    plan: &LogicalPlan,
    counter: &mut usize,
    scan_counts: &HashMap<String, usize>,
) -> Result<IncNode> {
    let next_id = |prefix: &str, counter: &mut usize| {
        let id = format!("{prefix}-{counter}");
        *counter += 1;
        id
    };
    Ok(match plan {
        LogicalPlan::Scan {
            name,
            schema,
            streaming,
            projection,
        } => {
            if !streaming {
                return Err(SsError::Internal(format!(
                    "static scan `{name}` reached the incrementalizer outside a join"
                )));
            }
            IncNode::StreamScan {
                name: name.clone(),
                schema: schema.clone(),
                projection: projection.clone(),
                shared: scan_counts.get(name).copied().unwrap_or(0) > 1,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = inc_node(input, counter, scan_counts)?;
            IncNode::Stateless {
                schema: child.schema(),
                input: Box::new(child),
                op: StatelessOp::Filter(predicate.clone()),
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let (input, op) = match inc_node(input, counter, scan_counts)? {
                IncNode::Stateless {
                    input,
                    op: StatelessOp::Filter(predicate),
                    ..
                } => {
                    let op = StatelessOp::FilterProject {
                        predicate,
                        exprs: exprs.clone(),
                        needed: ops::needed_columns(&input.schema(), exprs)?,
                    };
                    (input, op)
                }
                child => (Box::new(child), StatelessOp::Project(exprs.clone())),
            };
            IncNode::Stateless {
                input,
                op,
                schema: plan.schema()?,
            }
        }
        // The delay lives in the `WatermarkTracker`, built from the
        // plan's watermark declarations.
        LogicalPlan::Watermark { input, column, .. } => {
            let child = inc_node(input, counter, scan_counts)?;
            IncNode::Stateless {
                schema: child.schema(),
                input: Box::new(child),
                op: StatelessOp::Watermark {
                    column: column.clone(),
                },
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let mut child = inc_node(input, counter, scan_counts)?;
            // Fuse: when the aggregate sits directly on a stream–static
            // join, the join only materializes the columns the
            // aggregation reads (join keys are hashed, not output).
            if let IncNode::Stateless {
                op:
                    StatelessOp::StaticJoin {
                        output_projection, ..
                    },
                schema,
                ..
            } = &mut child
            {
                let mut needed: Vec<String> = Vec::new();
                for g in group_exprs {
                    needed.extend(g.referenced_columns());
                }
                for a in aggregates {
                    if let Some(arg) = &a.arg {
                        needed.extend(arg.referenced_columns());
                    }
                }
                let mut idx: Vec<usize> = needed
                    .iter()
                    .filter_map(|n| schema.index_of(n).ok())
                    .collect();
                idx.sort_unstable();
                idx.dedup();
                if idx.len() < schema.len() && needed.iter().all(|n| schema.contains(n)) {
                    *schema = Arc::new(schema.project(&idx)?);
                    *output_projection = Some(idx);
                }
            }
            let agg = HashAggregator::new(
                child.schema(),
                group_exprs.clone(),
                aggregates.clone(),
            )?;
            IncNode::Aggregate {
                input: Box::new(child),
                op_id: next_id("agg", counter),
                agg: Arc::new(agg),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let left_streaming = left.is_streaming();
            let right_streaming = right.is_streaming();
            match (left_streaming, right_streaming) {
                (true, true) => {
                    let watermark_cols: Vec<String> =
                        plan.watermarks().into_iter().map(|(c, _)| c).collect();
                    let l = inc_node(left, counter, scan_counts)?;
                    let r = inc_node(right, counter, scan_counts)?;
                    let lschema = l.schema();
                    let rschema = r.schema();
                    let time_col_of = |s: &ss_common::Schema| {
                        watermark_cols
                            .iter()
                            .find_map(|c| s.index_of(c).ok())
                    };
                    let exec = StreamJoinExec::new(
                        next_id("join", counter),
                        *join_type,
                        JoinSide {
                            schema: lschema.clone(),
                            key_exprs: on.iter().map(|(a, _)| a.clone()).collect(),
                            time_col: time_col_of(&lschema),
                        },
                        JoinSide {
                            schema: rschema.clone(),
                            key_exprs: on.iter().map(|(_, b)| b.clone()).collect(),
                            time_col: time_col_of(&rschema),
                        },
                    );
                    IncNode::StreamJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        exec,
                    }
                }
                (false, false) => {
                    return Err(SsError::Internal(
                        "fully static join reached the incrementalizer".into(),
                    ))
                }
                (stream_is_left, _) => {
                    let (stream, static_plan) = if stream_is_left {
                        (left, right)
                    } else {
                        (right, left)
                    };
                    IncNode::Stateless {
                        input: Box::new(inc_node(stream, counter, scan_counts)?),
                        op: StatelessOp::StaticJoin {
                            static_plan: static_plan.clone(),
                            cache: None,
                            stream_is_left,
                            join_type: *join_type,
                            on: on.clone(),
                            output_projection: None,
                        },
                        schema: plan.schema()?,
                    }
                }
            }
        }
        LogicalPlan::MapGroupsWithState { input, op } => IncNode::MapGroups {
            input: Box::new(inc_node(input, counter, scan_counts)?),
            op_id: next_id("mgws", counter),
            op: op.clone(),
        },
        LogicalPlan::Distinct { input } => {
            let child = inc_node(input, counter, scan_counts)?;
            let schema = child.schema();
            IncNode::Distinct {
                input: Box::new(child),
                op_id: next_id("dedup", counter),
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => IncNode::Sort {
            input: Box::new(inc_node(input, counter, scan_counts)?),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => IncNode::Limit {
            input: Box::new(inc_node(input, counter, scan_counts)?),
            n: *n,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::time::secs;
    use ss_common::{row, DataType, Field, Schema, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star, lit, window};
    use ss_plan::LogicalPlanBuilder;
    use ss_state::MemoryBackend;

    fn events_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
        ])
    }

    fn events() -> LogicalPlanBuilder {
        LogicalPlanBuilder::scan("events", events_schema(), true)
    }

    /// Counts table lookups: a static side computed once per query
    /// run looks its table up once.
    #[derive(Default)]
    struct CountingCatalog {
        tables: MemoryCatalog,
        lookups: std::cell::Cell<usize>,
    }

    impl Catalog for CountingCatalog {
        fn table(&self, name: &str) -> Result<Vec<RecordBatch>> {
            self.lookups.set(self.lookups.get() + 1);
            self.tables.table(name)
        }
    }

    struct Harness {
        node: IncNode,
        store: StateStore,
        tracker: WatermarkTracker,
        statics: CountingCatalog,
        output_mode: OutputMode,
        epoch: u64,
        last_ops: Vec<OpStat>,
        faults: FaultRegistry,
        exchange: Exchange,
    }

    impl Harness {
        fn new(plan: &LogicalPlan, output_mode: OutputMode) -> Harness {
            let mut counter = 0;
            Harness {
                node: incrementalize(plan, &mut counter).unwrap(),
                store: StateStore::new(Arc::new(MemoryBackend::new())),
                tracker: WatermarkTracker::new(&plan.watermarks()),
                statics: CountingCatalog::default(),
                output_mode,
                epoch: 0,
                last_ops: Vec::new(),
                faults: FaultRegistry::new(),
                exchange: Exchange::identity(),
            }
        }

        fn run(&mut self, rows: &[Row]) -> RecordBatch {
            self.epoch += 1;
            let mut inputs = HashMap::new();
            inputs.insert(
                "events".to_string(),
                RecordBatch::from_rows(events_schema(), rows).unwrap(),
            );
            let mut ops = OpStatsCollector::new();
            let mut ctx = EpochContext {
                epoch: self.epoch,
                inputs: &mut inputs,
                statics: &self.statics,
                store: &mut self.store,
                watermark_us: self.tracker.current(),
                processing_time_us: self.epoch as i64 * 1_000_000,
                output_mode: self.output_mode,
                tracker: &mut self.tracker,
                ops: &mut ops,
                faults: &self.faults,
                exchange: &self.exchange,
                run: ExchangeStats::default(),
            };
            let out = self.node.execute_epoch(&mut ctx).unwrap();
            self.last_ops = ops.take();
            self.tracker.advance();
            out
        }
    }

    #[test]
    fn update_mode_emits_changed_groups_only() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA", 1i64], row!["US", 1i64]]);
        let out = h.run(&[row!["CA", Value::Timestamp(0)]]);
        // Only CA changed.
        assert_eq!(out.to_rows(), vec![row!["CA", 2i64]]);
        // Empty epoch: nothing changed.
        let out = h.run(&[]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn complete_mode_emits_whole_table() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Complete);
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        let out = h.run(&[row!["US", Value::Timestamp(0)]]);
        assert_eq!(out.to_rows(), vec![row!["CA", 1i64], row!["US", 1i64]]);
    }

    #[test]
    fn append_mode_emits_on_watermark_passing() {
        let plan = events()
            .with_watermark("time", "5 seconds")
            .unwrap()
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap()],
                vec![count_star()],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        // Epoch 1: events in window [0,10); watermark still -inf.
        let out = h.run(&[
            row!["CA", Value::Timestamp(secs(1))],
            row!["CA", Value::Timestamp(secs(9))],
        ]);
        assert_eq!(out.num_rows(), 0);
        // Epoch 2: event at 21s pushes watermark to 16s (21-5) at the
        // *end* of the epoch; during the epoch the watermark is 4s
        // (9-5), so [0,10) is not yet closed.
        let out = h.run(&[row!["CA", Value::Timestamp(secs(21))]]);
        assert_eq!(out.num_rows(), 0);
        // Epoch 3: watermark now 16s >= 10s: window [0,10) finalizes.
        let out = h.run(&[]);
        assert_eq!(
            out.to_rows(),
            vec![row![Value::Timestamp(0), Value::Timestamp(secs(10)), 2i64]]
        );
        // State for the closed window is gone (also from the store).
        let out = h.run(&[]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn late_rows_are_dropped_at_the_watermark_operator() {
        let plan = events()
            .with_watermark("time", "0 seconds")
            .unwrap()
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap()],
                vec![count_star()],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        h.run(&[row!["CA", Value::Timestamp(secs(100))]]); // wm -> 100s
        // A very late row (t=1s) must not recreate evicted state.
        let out = h.run(&[row!["CA", Value::Timestamp(secs(1))]]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn stream_static_join_caches_static_side() {
        let campaigns_schema = Schema::of(vec![
            Field::new("c_country", DataType::Utf8),
            Field::new("campaign", DataType::Utf8),
        ]);
        let static_side = LogicalPlanBuilder::scan("campaigns", campaigns_schema.clone(), false);
        let plan = events()
            .join(
                static_side,
                JoinType::Inner,
                vec![(col("country"), col("c_country"))],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        h.statics.tables.register(
            "campaigns",
            vec![RecordBatch::from_rows(
                campaigns_schema,
                &[row!["CA", "camp1"]],
            )
            .unwrap()],
        );
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA", Value::Timestamp(0), "CA", "camp1"]]);
        // Second epoch works off the cache.
        let out = h.run(&[row!["CA", Value::Timestamp(1)]]);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn distinct_is_stateful_across_epochs() {
        let plan = events().project(vec![col("country")]).distinct().build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["CA", Value::Timestamp(1)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA"]]);
        let out = h.run(&[
            row!["CA", Value::Timestamp(2)],
            row!["US", Value::Timestamp(3)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["US"]]);
    }

    #[test]
    fn aggregate_state_survives_restore() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Complete);
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        h.store.checkpoint(1).unwrap();
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        // Roll back to the checkpoint: the store refills the table.
        h.store.restore(1).unwrap();
        let out = h.run(&[row!["CA", Value::Timestamp(0)]]);
        // 1 (restored) + 1 (new) = 2, not 3.
        assert_eq!(out.to_rows(), vec![row!["CA", 2i64]]);
    }

    #[test]
    fn update_key_columns_prefer_group_keys() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let h = Harness::new(&plan, OutputMode::Update);
        let schema = h.node.schema();
        assert_eq!(h.node.update_key_columns(&schema), vec![0]);
        // Whole-row fallback for key-less plans.
        let plan2 = events().filter(col("country").eq(lit("CA"))).build();
        let h2 = Harness::new(&plan2, OutputMode::Append);
        let s2 = h2.node.schema();
        assert_eq!(h2.node.update_key_columns(&s2), vec![0, 1]);
    }

    #[test]
    fn op_stats_record_every_operator_with_stable_labels() {
        let plan = events()
            .filter(col("country").eq(lit("CA")))
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        let labels: Vec<&str> = h.last_ops.iter().map(|s| s.op.as_str()).collect();
        // Post-order: scan, filter, aggregate.
        assert_eq!(labels, vec!["scan:events", "filter#1", "agg-0"]);
        assert_eq!(h.last_ops[0].rows_out, 2);
        assert_eq!(h.last_ops[1].rows_out, 1);
        assert_eq!(h.last_ops[2].rows_out, 1);
        // Inclusive timing: the root contains its children.
        assert!(h.last_ops[2].duration_us >= h.last_ops[1].duration_us);
        // Labels are identical in the next epoch.
        h.run(&[row!["CA", Value::Timestamp(1)]]);
        let labels2: Vec<&str> = h.last_ops.iter().map(|s| s.op.as_str()).collect();
        assert_eq!(labels2, vec!["scan:events", "filter#1", "agg-0"]);
    }

    /// Rows `range` of a stream with a quarter of its rows filtered
    /// out and event times that never run backwards (nothing is late
    /// however the rows are cut into epochs).
    fn vector_rows(range: Range<usize>) -> Vec<Row> {
        range
            .map(|i| row![["CA", "US", "XX", "MX"][i % 4], Value::Timestamp(i as i64 * 1_000)])
            .collect()
    }

    #[test]
    fn one_epoch_of_three_vectors_equals_many_small_epochs() {
        let plan = events()
            .with_watermark("time", "5 seconds")
            .unwrap()
            .filter(col("country").not_eq(lit("XX")))
            .project(vec![col("country"), col("time")])
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap(), col("country")],
                vec![count_star(), ss_expr::max(col("time"))],
            )
            .build();
        let rows = vector_rows(0..40_001);
        // Feed `rows` in epochs of `step`; return the aggregate's state
        // and each stateless operator's summed `rows_out`.
        let run = |step: usize| {
            let mut h = Harness::new(&plan, OutputMode::Complete);
            let mut rows_out = std::collections::BTreeMap::new();
            for epoch in rows.chunks(step) {
                h.run(epoch);
                for s in h.last_ops.iter().filter(|s| s.op != "agg-0") {
                    *rows_out.entry(s.op.clone()).or_insert(0) += s.rows_out;
                }
            }
            // The table as a full checkpoint writes it.
            let IncNode::Aggregate { agg, .. } = &h.node else { panic!("root is the aggregate") };
            let mut body = Vec::new();
            ss_state::TypedTable::encode(agg.table(h.store.operator("agg-0")), true, &mut body);
            let (entries, _) = ss_state::section::read_section(&body).unwrap();
            let mut state: Vec<(Row, Vec<Row>)> =
                entries.into_iter().map(|(key, e)| (key, e.values)).collect();
            state.sort();
            (state, rows_out)
        };
        let (state, rows_out) = run(rows.len());
        assert_eq!(
            rows_out.iter().map(|(op, n)| (op.as_str(), *n)).collect::<Vec<_>>(),
            vec![("project#2", 30_001), ("scan:events", 40_001), ("watermark:time", 40_001)]
        );
        assert_eq!(state.len(), 4 * 3 + 1);
        assert_eq!(run(1_000), (state, rows_out));
    }

    #[test]
    fn static_side_key_table_is_built_once_per_run() {
        let campaigns_schema = Schema::of(vec![
            Field::new("c_country", DataType::Utf8),
            Field::new("campaign", DataType::Utf8),
        ]);
        let plan = events()
            .join(
                LogicalPlanBuilder::scan("campaigns", campaigns_schema.clone(), false),
                JoinType::Inner,
                vec![(col("country"), col("c_country"))],
            )
            .aggregate(vec![col("campaign")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        let campaigns = [row!["CA", "camp1"], row!["US", "camp1"], row!["MX", "camp2"]];
        h.statics.tables.register(
            "campaigns",
            vec![RecordBatch::from_rows(campaigns_schema, &campaigns).unwrap()],
        );
        // Three epochs of three vectors each.
        let per_epoch = 2 * VECTOR_ROWS + 1;
        for epoch in 0..3 {
            h.run(&vector_rows(epoch * per_epoch..(epoch + 1) * per_epoch));
            assert_eq!(h.last_ops[1].op, "static-join#1");
            assert!(h.last_ops[1].rows_out > per_epoch as u64 / 2);
        }
        assert_eq!(h.statics.lookups.get(), 1, "static side computed once per run");
        let IncNode::Aggregate { input, .. } = &h.node else {
            panic!("plan root is the aggregate")
        };
        let IncNode::Stateless {
            op: StatelessOp::StaticJoin { cache: Some(cache), .. },
            ..
        } = &**input
        else {
            panic!("aggregate input is the primed static join")
        };
        assert!(cache.1.is_some(), "the static side is the build side: hashed at prime");
        let out = h.run(&[]);
        assert_eq!(out.num_rows(), 0);
        assert_eq!(h.statics.lookups.get(), 1);
    }

    #[test]
    fn static_scan_alone_is_rejected() {
        let plan = LogicalPlanBuilder::scan("t", events_schema(), false).build();
        let mut c = 0;
        assert!(incrementalize(&plan, &mut c).is_err());
    }
}
