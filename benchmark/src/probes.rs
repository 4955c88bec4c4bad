//! Probes: one public leaf function of one layer, called a few hundred
//! times on a batch of the workload's own input, median per call. They
//! run after the traced workload and price the steps the boundary
//! spans cannot see inside of (kernels, hashing, state-store calls).
//! A probe runs for every workload of its input family — the Yahoo
//! stream or the sessions stream — whether or not that workload takes
//! the probed path.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ss_bus::MessageBus;
use ss_common::{shuffle_partition, RecordBatch, Result, Row, SchemaRef, Value};
use ss_core::continuous::RecordPipeline;
use ss_exec::ops::{filter_batch, project_batch};
use ss_exec::{hash_join, HashAggregator};
use ss_expr::eval::{evaluate, evaluate_row, evaluate_to_mask};
use ss_expr::{col, count_star, lit, max, sum, window};
use ss_plan::{JoinType, LogicalPlanBuilder};
use ss_state::{CheckpointBackend, FsBackend, MemoryBackend, StateEntry, StateStore};
use ss_wal::WriteAheadLog;

use crate::gen::{Sessions, Yahoo};
use crate::stats;
use crate::workloads::Layers;

const BATCH_ROWS: u64 = 8_192;

/// How many timed calls a probe makes: 200, or 3 at the unit tests'
/// smoke scale.
#[derive(Clone, Copy)]
struct Calls(usize);

impl Calls {
    /// Median nanoseconds per unit over the timed calls of `f`, each
    /// of which processes `units` units; `prepare` runs untimed before
    /// every call.
    fn ns_per<S>(self, units: u64, mut prepare: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
        let mut samples = Vec::with_capacity(self.0);
        for _ in 0..self.0 {
            let state = prepare();
            let started = Instant::now();
            f(state);
            samples.push(started.elapsed().as_nanos() as f64 / units as f64);
        }
        stats::median(&samples)
    }

    /// Median microseconds per call.
    fn us_per_call<R>(self, mut f: impl FnMut() -> R) -> f64 {
        self.ns_per(1, || (), |()| drop(black_box(f()))) / 1e3
    }
}

pub fn run(workload: &str, seed: u64, smoke: bool, layers: &mut Layers) -> Result<()> {
    let calls = Calls(if smoke { 3 } else { 200 });
    if workload.starts_with("sessions") {
        sessions(calls, seed, layers)
    } else {
        yahoo(calls, seed, layers)
    }
}

fn append_probe(calls: Calls, layers: &mut Layers, rows: &[Row]) -> Result<()> {
    let bus = MessageBus::new();
    bus.create_topic("probe", 1)?;
    let mut next = 0;
    let ns = calls.ns_per(
        BATCH_ROWS,
        || {
            // Keep the probed partition short: trim what the previous
            // call appended.
            bus.truncate_before("probe", 0, next).expect("probe topic");
            next += BATCH_ROWS;
            rows.to_vec()
        },
        |rows| drop(black_box(bus.append_at("probe", 0, 0, rows))),
    );
    layers.set("bus.append_ns_per_row", ns);
    Ok(())
}

fn batch_probes(
    calls: Calls,
    layers: &mut Layers,
    schema: &SchemaRef,
    rows: &[Row],
) -> Result<RecordBatch> {
    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| drop(black_box(RecordBatch::from_rows(schema.clone(), rows))),
    );
    layers.set("common.batch_from_rows_ns_per_row", ns);
    let batch = RecordBatch::from_rows(schema.clone(), rows)?;
    let window_expr = window(col("event_time"), "10 seconds")?;
    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| drop(black_box(evaluate(&window_expr, &batch))),
    );
    layers.set("expr.window_ns_per_row", ns);
    Ok(batch)
}

fn yahoo(calls: Calls, seed: u64, layers: &mut Layers) -> Result<()> {
    let gen = Yahoo::new(seed);
    let schema = Yahoo::schema();
    let rows: Vec<Row> = (0..BATCH_ROWS).map(|o| gen.event(0, o, 0)).collect();
    append_probe(calls, layers, &rows)?;
    let batch = batch_probes(calls, layers, &schema, &rows)?;
    let is_view = col("event_type").eq(lit("view"));

    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| drop(black_box(evaluate_to_mask(&is_view, &batch))),
    );
    layers.set("expr.filter_pred_ns_per_row", ns);
    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| {
            for row in &rows {
                black_box(evaluate_row(&is_view, &schema, row)).expect("probe row");
            }
        },
    );
    layers.set("expr.eval_row_ns_per_row", ns);

    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| drop(black_box(filter_batch(&batch, &is_view))),
    );
    layers.set("exec.filter_ns_per_row", ns);
    let views = filter_batch(&batch, &is_view)?;
    let view_rows = views.num_rows() as u64;
    let projection = [col("ad_id"), col("event_time")];
    let ns = calls.ns_per(
        view_rows,
        || (),
        |()| drop(black_box(project_batch(&views, &projection))),
    );
    layers.set("exec.project_ns_per_row", ns);
    let projected = project_batch(&views, &projection)?;
    let campaigns = Yahoo::campaign_batch();
    let on = [(col("ad_id"), col("c_ad_id"))];
    let ns = calls.ns_per(
        view_rows,
        || (),
        |()| {
            drop(black_box(hash_join(
                &projected,
                &campaigns,
                JoinType::Inner,
                &on,
            )))
        },
    );
    layers.set("exec.join_probe_ns_per_row", ns);
    let joined = hash_join(&projected, &campaigns, JoinType::Inner, &on)?;
    let keys = || {
        vec![
            window(col("event_time"), "10 seconds").expect("literal"),
            col("campaign_id"),
        ]
    };
    let ns = calls.ns_per(
        view_rows,
        || {
            HashAggregator::new(joined.schema().clone(), keys(), vec![count_star()])
                .expect("probe agg")
        },
        |mut agg| drop(black_box(agg.update_batch(&joined))),
    );
    layers.set("exec.agg_lowcard_ns_per_row", ns);

    // The exchange hashes `(window_start, campaign_id)` key rows.
    let key_rows: Vec<Row> = (0..joined.num_rows())
        .map(|i| {
            let event_time = joined.value(i, 1).as_i64().ok().flatten().unwrap_or(0);
            Row::new(vec![
                Value::Timestamp(event_time - event_time.rem_euclid(10_000_000)),
                joined.value(i, 3),
            ])
        })
        .collect();
    let ns = calls.ns_per(
        view_rows,
        || (),
        |()| {
            for key in &key_rows {
                black_box(shuffle_partition(key, 4));
            }
        },
    );
    layers.set("common.shuffle_hash_ns_per_row", ns);

    // The continuous engine's compiled per-record pipeline.
    let map_only = LogicalPlanBuilder::scan(Yahoo::TOPIC, schema.clone(), true)
        .filter(is_view.clone())
        .project(vec![col("ad_id"), col("event_time"), col("created_us")])
        .build();
    let pipeline = RecordPipeline::compile(&*ss_plan::optimize(&ss_plan::analyze(&map_only)?)?)?;
    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| {
            for row in &rows {
                black_box(pipeline.process(row)).expect("probe row");
            }
        },
    );
    layers.set("core.continuous_process_ns_per_row", ns);

    // The SQL front end and the planner steps a submit goes through.
    let sql = "SELECT window_start, campaign_id, COUNT(*) AS views \
               FROM events JOIN campaigns ON ad_id = c_ad_id WHERE event_type = 'view' \
               GROUP BY WINDOW(event_time, '10 seconds'), campaign_id";
    let resolver: HashMap<String, (SchemaRef, bool)> = HashMap::from([
        (Yahoo::TOPIC.to_string(), (schema.clone(), true)),
        ("campaigns".to_string(), (campaigns.schema().clone(), false)),
    ]);
    layers.set(
        "sql.parse_us",
        calls.us_per_call(|| ss_sql::parse_query(sql, &resolver)),
    );
    let plan = ss_sql::parse_query(sql, &resolver)?;
    let optimize = || ss_plan::optimize(&ss_plan::analyze(&plan)?);
    layers.set("plan.analyze_optimize_us", calls.us_per_call(optimize));
    let optimized = optimize()?;
    layers.set(
        "plan.fingerprint_us",
        calls.us_per_call(|| ss_plan::plan_fingerprint(&optimized)),
    );
    layers.set(
        "plan.sharing_split_us",
        calls.us_per_call(|| ss_plan::sharing_split(&optimized, true)),
    );
    Ok(())
}

fn sessions(calls: Calls, seed: u64, layers: &mut Layers) -> Result<()> {
    let gen = Sessions::new(seed);
    let schema = Sessions::schema();
    let rows: Vec<Row> = (0..BATCH_ROWS).map(|o| gen.event(0, o, 0)).collect();
    append_probe(calls, layers, &rows)?;
    let batch = batch_probes(calls, layers, &schema, &rows)?;

    let keys = || {
        vec![
            window(col("event_time"), "10 seconds").expect("literal"),
            col("user_id"),
        ]
    };
    let aggregates = || vec![count_star(), sum(col("bytes")), max(col("created_us"))];
    let ns = calls.ns_per(
        BATCH_ROWS,
        || HashAggregator::new(schema.clone(), keys(), aggregates()).expect("probe agg"),
        |mut agg| drop(black_box(agg.update_batch(&batch))),
    );
    layers.set("exec.agg_highcard_ns_per_row", ns);

    // The state store as the aggregation uses it: `(window, user)` keys,
    // one accumulator row per aggregate.
    let state_keys: Vec<Row> = (0..BATCH_ROWS)
        .map(|o| {
            let f = gen.fields(0, o);
            Row::new(vec![
                Value::Timestamp(f.event_time - f.event_time.rem_euclid(Sessions::WINDOW_US)),
                Value::Int64(f.user_id),
            ])
        })
        .collect();
    let entry = || {
        StateEntry::new(vec![
            Row::new(vec![Value::Int64(1)]),
            Row::new(vec![Value::Int64(512)]),
            Row::new(vec![Value::Int64(0)]),
        ])
    };
    let ns = calls.ns_per(
        BATCH_ROWS,
        || {
            (
                StateStore::new(Arc::new(MemoryBackend::new())),
                state_keys.clone(),
            )
        },
        |(mut store, keys)| {
            let op = store.operator("agg-0");
            for key in keys {
                op.put(key, entry());
            }
            black_box(store);
        },
    );
    layers.set("state.put_ns_per_key", ns);
    let mut store = StateStore::new(Arc::new(MemoryBackend::new()));
    for key in &state_keys {
        store.operator("agg-0").put(key.clone(), entry());
    }
    let op = store.operator("agg-0");
    let ns = calls.ns_per(
        BATCH_ROWS,
        || (),
        |()| {
            for key in &state_keys {
                black_box(op.get(key));
            }
        },
    );
    layers.set("state.get_ns_per_key", ns);
    Ok(())
}

/// What a restart pays before the engine proper starts: restoring the
/// newest restorable state checkpoint in `dir`, and verifying the WAL
/// and finding its recovery point. Median of five.
pub fn checkpoint_recovery(dir: &Path, layers: &mut Layers) -> Result<()> {
    let backend: Arc<dyn CheckpointBackend> = Arc::new(FsBackend::new(dir)?);
    let (mut restore_ms, mut wal_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let started = Instant::now();
        let mut store = StateStore::new(backend.clone());
        black_box(store.restore_best(None)?);
        restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let wal = WriteAheadLog::new(backend.clone());
        black_box(wal.verify_and_repair()?);
        black_box(wal.recovery_point()?);
        wal_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    layers.set("state.restore_ms", stats::median(&restore_ms));
    layers.set("wal.recovery_point_ms", stats::median(&wal_ms));
    Ok(())
}
