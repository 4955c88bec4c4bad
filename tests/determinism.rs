//! Parallel-execution determinism matrix.
//!
//! The data-parallel scheduler's contract is that epoch output is
//! **byte-identical** to serial execution — same rows, same order —
//! for every worker count and shuffle-partition count, and that
//! restarting a checkpointed query with a *different* partition count
//! transparently repartitions the sharded state. These tests run the
//! same workloads across the {1, 2, 4, 8} × partition-count matrix and
//! compare raw (unsorted) sink bytes and state sizes against the
//! serial run.

use std::sync::Arc;

use structured_streaming::prelude::*;

fn ts(seconds: i64) -> Value {
    Value::Timestamp(seconds * 1_000_000)
}

fn agg_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

/// Deterministic input: `n` rows spread over 7 keys and an advancing
/// (but out-of-order within each wave) event-time column.
fn feed_agg(bus: &MessageBus, n: u64, start: u64) {
    for i in start..start + n {
        let key = format!("k{}", i % 7);
        // Jitter event times so every wave has out-of-order rows.
        let t = (i as i64) + [3i64, -2, 0, 5, -1][(i % 5) as usize];
        bus.append(
            "in",
            (i % 3) as u32,
            vec![row![key, i as i64, ts(t.max(0))]],
        )
        .unwrap();
    }
}

/// The tumbling-window aggregation most tests here run.
fn windowed(_: &StreamingContext, events: DataFrame) -> DataFrame {
    events
        .with_watermark("time", "5 seconds")
        .unwrap()
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
        .agg(vec![count_star(), sum(col("v"))])
}

/// Run the windowed aggregation to completion at the given parallelism
/// and return the sink rows in **delivery order** plus the final state
/// size.
fn run_windowed(mode: OutputMode, parallelism: usize, partitions: usize) -> (Vec<Row>, u64) {
    let (rows, state, _) = run_shape(&windowed, mode, parallelism, partitions);
    (rows, state)
}

#[test]
fn windowed_aggregation_is_byte_identical_across_the_parallelism_matrix() {
    for mode in [OutputMode::Append, OutputMode::Update, OutputMode::Complete] {
        let (expected, expected_state) = run_windowed(mode, 1, 1);
        assert!(!expected.is_empty(), "{mode:?}: reference produced no rows");
        // Worker count and partition count vary independently; several
        // combinations deliberately mismatch (skewed task/shard splits).
        for (p, s) in [(2, 2), (4, 4), (8, 8), (2, 8), (4, 2), (8, 3), (3, 1)] {
            let (got, state) = run_windowed(mode, p, s);
            assert_eq!(
                got, expected,
                "{mode:?}: sink bytes diverged at parallelism={p} partitions={s}"
            );
            assert_eq!(
                state, expected_state,
                "{mode:?}: state size diverged at parallelism={p} partitions={s}"
            );
        }
    }
}

fn imp_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("imp_ad", DataType::Int64),
        Field::new("imp_time", DataType::Timestamp),
    ])
}

fn click_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("click_ad", DataType::Int64),
        Field::new("click_time", DataType::Timestamp),
    ])
}

/// Run a watermarked left-outer stream–stream join to completion and
/// return the sink rows in delivery order plus final state size.
fn run_join(parallelism: usize, partitions: usize) -> (Vec<Row>, u64) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("impressions", 2).unwrap();
    bus.create_topic("clicks", 2).unwrap();
    let ctx = StreamingContext::new();
    let impressions = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "impressions", imp_schema()).unwrap(),
        ))
        .unwrap()
        .with_watermark("imp_time", "10 seconds")
        .unwrap();
    let clicks = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "clicks", click_schema()).unwrap(),
        ))
        .unwrap()
        .with_watermark("click_time", "10 seconds")
        .unwrap();
    let joined = impressions.join(
        &clicks,
        JoinType::LeftOuter,
        vec![(col("imp_ad"), col("click_ad"))],
    );
    let sink = MemorySink::new("out");
    let mut query = joined
        .write_stream()
        .output_mode(OutputMode::Append)
        .sink(sink.clone())
        .engine_config(MicroBatchConfig {
            parallelism,
            shuffle_partitions: partitions,
            ..Default::default()
        })
        .start_sync()
        .unwrap();
    // Interleaved waves: some ads click (i % 3 == 0), some never do and
    // must surface NULL-extended once the watermark passes them.
    for wave in 0..8i64 {
        for i in 0..6i64 {
            let ad = wave * 6 + i;
            bus.append(
                "impressions",
                (ad % 2) as u32,
                vec![row![ad, ts(wave * 10 + i)]],
            )
            .unwrap();
            if ad % 3 == 0 {
                bus.append(
                    "clicks",
                    (ad % 2) as u32,
                    vec![row![ad, ts(wave * 10 + i + 2)]],
                )
                .unwrap();
            }
        }
        query.process_available().unwrap();
    }
    // Push both watermarks far past everything so outer rows drain.
    bus.append("impressions", 0, vec![row![9999i64, ts(500)]]).unwrap();
    bus.append("clicks", 0, vec![row![9999i64, ts(500)]]).unwrap();
    query.process_available().unwrap();
    bus.append("impressions", 0, vec![row![9998i64, ts(501)]]).unwrap();
    query.process_available().unwrap();
    let state = query.state_rows();
    query.stop().unwrap();
    (sink.snapshot(), state)
}

#[test]
fn stream_join_is_byte_identical_across_the_parallelism_matrix() {
    let (expected, expected_state) = run_join(1, 1);
    assert!(
        expected.iter().any(|r| r.get(2).is_null()),
        "reference must include NULL-extended outer rows"
    );
    for (p, s) in [(2, 2), (4, 4), (8, 8), (4, 7), (2, 3)] {
        let (got, state) = run_join(p, s);
        assert_eq!(
            got, expected,
            "join sink bytes diverged at parallelism={p} partitions={s}"
        );
        assert_eq!(
            state, expected_state,
            "join state size diverged at parallelism={p} partitions={s}"
        );
    }
}

/// The matrix every shape below is compared over, against `(1, 1)`.
const MATRIX: [(usize, usize); 4] = [(2, 4), (4, 2), (8, 3), (3, 1)];

/// Run `shape` (a plan over the `in` stream of [`feed_agg`] rows) to
/// completion and return the sink rows in **delivery order**, the
/// final state size, and the checkpoint the run wrote.
fn run_shape(
    shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame,
    mode: OutputMode,
    parallelism: usize,
    partitions: usize,
) -> (Vec<Row>, u64, Arc<MemoryBackend>) {
    let (rows, state, backend, _) = run_shape_fed(shape, mode, parallelism, partitions, &feed_waves);
    (rows, state, backend)
}

/// Appends a run's input to the `in` topic and triggers its epochs.
type Feed = dyn Fn(&MessageBus, &mut StreamingQuery);

/// Eight waves of 15 [`feed_agg`] rows, an epoch each.
fn feed_waves(bus: &MessageBus, query: &mut StreamingQuery) {
    let mut fed = 0u64;
    while fed < 120 {
        feed_agg(bus, 15, fed);
        fed += 15;
        query.process_available().unwrap();
    }
    query.process_available().unwrap();
}

/// Every epoch's per-operator `(label, rows out)`, in record order.
type OpRows = Vec<Vec<(String, u64)>>;

/// [`run_shape`] over the input `feed` supplies; also returns what
/// every operator reported.
fn run_shape_fed(
    shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame,
    mode: OutputMode,
    parallelism: usize,
    partitions: usize,
    feed: &Feed,
) -> (Vec<Row>, u64, Arc<MemoryBackend>, OpRows) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 3).unwrap();
    let ctx = StreamingContext::new();
    let source = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", agg_schema()).unwrap()))
        .unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let mut query = shape(&ctx, source)
        .write_stream()
        .output_mode(mode)
        .sink(sink.clone())
        .checkpoint(backend.clone())
        .engine_config(MicroBatchConfig {
            parallelism,
            shuffle_partitions: partitions,
            ..Default::default()
        })
        .start_sync()
        .unwrap();
    feed(&bus, &mut query);
    let state = query.state_rows();
    let ops = query
        .recent_progress()
        .iter()
        .map(|p| p.operator_durations.iter().map(|o| (o.op.clone(), o.rows_out)).collect())
        .collect();
    query.stop().unwrap();
    (sink.snapshot(), state, backend, ops)
}

/// Compare `shape` byte-for-byte across [`MATRIX`] against `(1, 1)`.
fn assert_shape_matrix(
    what: &str,
    shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame,
    mode: OutputMode,
) {
    assert_fed_matrix(what, shape, mode, &feed_waves);
}

/// [`assert_shape_matrix`] over the input `feed` supplies: sink bytes,
/// state size and every epoch's per-operator labels and row counts
/// must not depend on the layout. Returns the `(1, 1)` run's rows and
/// operator reports.
fn assert_fed_matrix(
    what: &str,
    shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame,
    mode: OutputMode,
    feed: &Feed,
) -> (Vec<Row>, OpRows) {
    let (expected, expected_state, _, expected_ops) = run_shape_fed(shape, mode, 1, 1, feed);
    assert!(!expected.is_empty(), "{what} {mode:?}: reference produced no rows");
    for (p, s) in MATRIX {
        let (got, state, _, ops) = run_shape_fed(shape, mode, p, s, feed);
        assert_eq!(
            got, expected,
            "{what} {mode:?}: sink bytes diverged at parallelism={p} partitions={s}"
        );
        assert_eq!(
            state, expected_state,
            "{what} {mode:?}: state size diverged at parallelism={p} partitions={s}"
        );
        assert_eq!(
            ops, expected_ops,
            "{what} {mode:?}: operator reports diverged at parallelism={p} partitions={s}"
        );
    }
    (expected, expected_ops)
}

/// The Yahoo benchmark shape: filter → project → stream–static join →
/// tumbling-window count per campaign.
#[test]
fn yahoo_shape_is_byte_identical_across_the_parallelism_matrix() {
    let shape = |ctx: &StreamingContext, events: DataFrame| {
        let campaigns_schema = Schema::of(vec![
            Field::new("c_key", DataType::Utf8),
            Field::new("campaign", DataType::Utf8),
        ]);
        // k6 has no campaign: the inner join drops its rows.
        let rows: Vec<Row> = (0..6)
            .map(|i| row![format!("k{i}"), format!("camp{}", i % 2)])
            .collect();
        let campaigns = ctx
            .read_table(
                "campaigns",
                vec![RecordBatch::from_rows(campaigns_schema, &rows).unwrap()],
            )
            .unwrap();
        events
            .filter(col("v").modulo(lit(4i64)).not_eq(lit(0i64)))
            .select(vec![col("key"), col("time")])
            .with_watermark("time", "5 seconds")
            .unwrap()
            .join(
                &campaigns,
                JoinType::Inner,
                vec![(col("key"), col("c_key"))],
            )
            .group_by(vec![
                window(col("time"), "10 seconds").unwrap(),
                col("campaign"),
            ])
            .agg(vec![count_star()])
    };
    for mode in [OutputMode::Append, OutputMode::Update] {
        assert_shape_matrix("yahoo", &shape, mode);
    }
}

/// A sliding window fans one row out to several group keys, which can
/// hash to different reduce partitions.
#[test]
fn sliding_window_is_byte_identical_across_the_parallelism_matrix() {
    let shape = |_: &StreamingContext, events: DataFrame| {
        events
            .with_watermark("time", "5 seconds")
            .unwrap()
            .group_by(vec![
                window_sliding(col("time"), "10 seconds", "5 seconds").unwrap(),
                col("key"),
            ])
            .agg(vec![count_star(), avg(col("v"))])
    };
    for mode in [OutputMode::Append, OutputMode::Update] {
        assert_shape_matrix("sliding", &shape, mode);
    }
}

/// Complete mode with `sort` + `limit` above the aggregate.
#[test]
fn complete_sort_limit_is_byte_identical_across_the_parallelism_matrix() {
    let shape = |_: &StreamingContext, events: DataFrame| {
        events
            .group_by(vec![col("key")])
            .agg(vec![count_star(), sum(col("v"))])
            .sort(vec![SortKey::desc(col("sum(v)")), SortKey::asc(col("key"))])
            .limit(4)
    };
    assert_shape_matrix("sort+limit", &shape, OutputMode::Complete);
}

/// A map-only stateless plan: chunk outputs concatenate in chunk order.
#[test]
fn map_only_plan_is_byte_identical_across_the_parallelism_matrix() {
    let shape = |_: &StreamingContext, events: DataFrame| {
        events
            .filter(col("v").modulo(lit(3i64)).not_eq(lit(1i64)))
            .with_watermark("time", "5 seconds")
            .unwrap()
            .select(vec![
                col("key"),
                col("v").mul(lit(2i64)).alias("v2"),
                col("time"),
            ])
    };
    assert_shape_matrix("map-only", &shape, OutputMode::Append);
}

/// `Distinct` is not chunk-safe (first-wins races): at any requested
/// parallelism it runs at one partition and writes the unsharded
/// state layout.
#[test]
fn distinct_runs_at_one_partition_and_writes_the_unsharded_layout() {
    let shape = |_: &StreamingContext, events: DataFrame| {
        events.select(vec![col("key")]).distinct()
    };
    assert_shape_matrix("distinct", &shape, OutputMode::Append);
    let (_, _, backend) = run_shape(&shape, OutputMode::Append, 4, 4);
    let backend: Arc<dyn structured_streaming::ss_state::CheckpointBackend> = backend;
    let manifest = structured_streaming::ss_wal::Manifest::load(&backend)
        .unwrap()
        .expect("the run checkpointed");
    assert_eq!(manifest.state_partitions(), 1);
    let mut store = structured_streaming::ss_state::StateStore::new(backend);
    store.restore_best(None).unwrap().expect("a restorable checkpoint");
    let ops = store.operator_ids();
    assert!(ops.contains(&"dedup-0".to_string()), "operators: {ops:?}");
    assert!(
        ops.iter().all(|id| !id.contains("/p")),
        "sharded namespaces in a one-partition plan: {ops:?}"
    );
}

/// Structural guard for the one-partition path: at `parallelism = 1`
/// the exchange is the identity — nothing is scheduled, the epoch
/// profile has no `execute` child phases, and every operator reports
/// under its own stat label.
#[test]
fn one_partition_runs_inline_with_per_operator_stats() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 3).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", agg_schema()).unwrap()))
        .unwrap()
        .filter(col("v").modulo(lit(4i64)).not_eq(lit(0i64)))
        .with_watermark("time", "5 seconds")
        .unwrap()
        .select(vec![col("key"), col("time"), col("v").mul(lit(2i64)).alias("v2")])
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
        .agg(vec![sum(col("v2"))]);
    let mut query = df
        .write_stream()
        .output_mode(OutputMode::Update)
        .sink(MemorySink::new("out"))
        .engine_config(MicroBatchConfig {
            parallelism: 1,
            ..Default::default()
        })
        .start_sync()
        .unwrap();
    feed_agg(&bus, 30, 0);
    query.process_available().unwrap();
    let progress = query.last_progress().expect("an epoch ran");
    assert_eq!(progress.tasks_launched, 0);
    assert_eq!(progress.max_task_duration_us, 0);
    let labels: Vec<&str> = progress
        .operator_durations
        .iter()
        .map(|o| o.op.as_str())
        .collect();
    assert_eq!(
        labels,
        vec!["scan:in", "filter#1", "watermark:time", "project#3", "agg-0"]
    );
    let profile = progress.profile.expect("microbatch epochs are profiled");
    assert!(
        profile.phases.iter().all(|p| p.parent.is_none()),
        "child phases on the one-partition path: {:?}",
        profile.phases
    );
    assert!(profile.tasks.is_none() && profile.shuffle.is_none());
    assert!(!query.metrics().render().contains("ss_task_duration_us"));
    query.stop().unwrap();
}

/// Restarting from a checkpoint with a different partition count must
/// repartition the sharded state by shuffle hash: a query that lives
/// through partition counts 4 → 2 → 1 must end byte-identical to one
/// that ran serially without interruption.
#[test]
fn restart_across_partition_counts_repartitions_state() {
    let run_segmented = |counts: &[(usize, usize)]| -> Vec<Row> {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 3).unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let waves_per_segment = 9 / counts.len() as u64;
        let mut fed = 0u64;
        for (seg, &(p, s)) in counts.iter().enumerate() {
            let ctx = StreamingContext::new();
            let source = ctx
                .read_source(Arc::new(
                    BusSource::new(bus.clone(), "in", agg_schema()).unwrap(),
                ))
                .unwrap();
            let df = windowed(&ctx, source);
            let mut query = df
                .write_stream()
                .output_mode(OutputMode::Append)
                .sink(sink.clone())
                .checkpoint(backend.clone())
                .engine_config(MicroBatchConfig {
                    parallelism: p,
                    shuffle_partitions: s,
                    ..Default::default()
                })
                .start_sync()
                .unwrap();
            let waves = if seg == counts.len() - 1 {
                9 - fed / 15 // last segment takes the remainder
            } else {
                waves_per_segment
            };
            for _ in 0..waves {
                feed_agg(&bus, 15, fed);
                fed += 15;
                query.process_available().unwrap();
            }
            query.process_available().unwrap();
            query.stop().unwrap();
        }
        sink.snapshot()
    };
    let uninterrupted = run_segmented(&[(1, 1)]);
    assert!(!uninterrupted.is_empty());
    assert_eq!(
        run_segmented(&[(4, 4), (2, 2), (1, 1)]),
        uninterrupted,
        "4 → 2 → 1 restart chain diverged from the serial run"
    );
    assert_eq!(
        run_segmented(&[(1, 1), (4, 6), (2, 3)]),
        uninterrupted,
        "1 → 4 → 2 restart chain diverged from the serial run"
    );
}

/// The combinable twin of the sliding-window shape: its `avg` runs at
/// one partition, this one goes through the exchange, so one row's
/// fan-out keys reach different reduce partitions as separate
/// partials.
#[test]
fn combinable_sliding_window_is_byte_identical_across_the_parallelism_matrix() {
    let shape = |_: &StreamingContext, events: DataFrame| {
        events
            .with_watermark("time", "5 seconds")
            .unwrap()
            .group_by(vec![
                window_sliding(col("time"), "10 seconds", "5 seconds").unwrap(),
                col("key"),
            ])
            .agg(vec![count_star(), sum(col("v")), min(col("v")), max(col("v"))])
    };
    for mode in [OutputMode::Append, OutputMode::Update] {
        assert_shape_matrix("combinable sliding", &shape, mode);
    }
}

/// One key carries 90 % of the rows. Output stays byte-identical, and
/// because a map task ships one partial per key however many rows the
/// key has, the exchange stays balanced: skew is measured on partials.
#[test]
fn hot_key_is_byte_identical_and_balanced_on_partials() {
    let run = |parallelism: usize, partitions: usize| -> (Vec<Row>, Vec<f64>) {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 3).unwrap();
        let ctx = StreamingContext::new();
        let source = ctx
            .read_source(Arc::new(BusSource::new(bus.clone(), "in", agg_schema()).unwrap()))
            .unwrap();
        let sink = MemorySink::new("out");
        let mut query = source
            .group_by(vec![col("key")])
            .agg(vec![count_star(), sum(col("v")), max(col("v"))])
            .write_stream()
            .output_mode(OutputMode::Update)
            .sink(sink.clone())
            .engine_config(MicroBatchConfig {
                parallelism,
                shuffle_partitions: partitions,
                ..Default::default()
            })
            .start_sync()
            .unwrap();
        for wave in 0..4u64 {
            for i in wave * 1_000..(wave + 1) * 1_000 {
                let key = match i % 10 {
                    0 => format!("cold{}", (i / 10) % 64),
                    _ => "hot".to_string(),
                };
                bus.append("in", (i % 3) as u32, vec![row![key, i as i64, ts(i as i64)]])
                    .unwrap();
            }
            query.process_available().unwrap();
        }
        let skews = query
            .profiles()
            .iter()
            .filter_map(|p| p.shuffle.as_ref().map(|s| s.key_skew))
            .collect();
        query.stop().unwrap();
        (sink.snapshot(), skews)
    };
    let (expected, no_shuffle) = run(1, 1);
    assert!(!expected.is_empty() && no_shuffle.is_empty());
    for (p, s) in MATRIX {
        let (got, skews) = run(p, s);
        assert_eq!(got, expected, "hot key diverged at parallelism={p} partitions={s}");
        if s > 1 {
            // By rows the hot key's partition would carry ≥ 90 % of an
            // epoch: a skew of at least 0.9 × s.
            assert_eq!(skews.len(), 4, "one shuffle profile per epoch");
            for skew in skews {
                assert!(
                    skew < 1.25,
                    "partials skewed {skew:.2} at parallelism={p} partitions={s}"
                );
            }
        }
    }
}

/// The state-store layout a finished run left in `backend`: the
/// manifest's partition count and the operator namespaces that hold
/// entries (a repartition leaves its source namespaces behind, empty).
fn checkpointed_layout(backend: &Arc<MemoryBackend>) -> (u32, Vec<String>) {
    let backend: Arc<dyn structured_streaming::ss_state::CheckpointBackend> = backend.clone();
    let manifest = structured_streaming::ss_wal::Manifest::load(&backend)
        .unwrap()
        .expect("the run checkpointed");
    let mut store = structured_streaming::ss_state::StateStore::new(backend);
    store.restore_best(None).unwrap().expect("a restorable checkpoint");
    let mut ops = store.operator_ids();
    ops.retain(|id| store.operator_ref(id).is_some_and(|op| !op.is_empty()));
    (manifest.state_partitions(), ops)
}

/// Float `SUM` and `AVG` partials do not merge order-free, so such
/// plans are not chunk-safe: like `Distinct`, they run at one
/// partition at any requested parallelism and write the unsharded
/// state layout.
#[test]
fn float_sum_and_avg_run_at_one_partition_and_write_the_unsharded_layout() {
    let avg_shape = |_: &StreamingContext, events: DataFrame| {
        events
            .group_by(vec![col("key")])
            .agg(vec![count_star(), avg(col("v"))])
    };
    let float_sum_shape = |_: &StreamingContext, events: DataFrame| {
        events
            .group_by(vec![col("key")])
            .agg(vec![sum(col("v").mul(lit(0.1f64))), max(col("v"))])
    };
    let check = |what: &str, shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame| {
        assert_shape_matrix(what, shape, OutputMode::Update);
        let (_, _, backend) = run_shape(shape, OutputMode::Update, 4, 4);
        let (partitions, ops) = checkpointed_layout(&backend);
        assert_eq!(partitions, 1, "{what}");
        assert!(ops.contains(&"agg-0".to_string()), "{what} operators: {ops:?}");
        assert!(
            ops.iter().all(|id| !id.contains("/p")),
            "{what}: sharded namespaces in a one-partition plan: {ops:?}"
        );
    };
    check("avg", &avg_shape);
    check("float sum", &float_sum_shape);
}

/// An `avg` plan checkpointed in the sharded layout — what a build
/// from before `AVG` stopped being partitioned left behind — restarts
/// at the same `(4, 4)` request, now the identity exchange: restore
/// collapses the shards and the chain ends byte-identical to the
/// uninterrupted serial run.
#[test]
fn sharded_avg_checkpoint_restarts_at_one_partition() {
    use structured_streaming::ss_common::shuffle_partition;
    use structured_streaming::ss_state::{CheckpointBackend, StateStore};
    use structured_streaming::ss_wal::Manifest;

    let segment = |bus: &Arc<MessageBus>,
                   backend: &Arc<MemoryBackend>,
                   sink: &Arc<MemorySink>,
                   (p, s): (usize, usize),
                   waves: std::ops::Range<u64>| {
        let ctx = StreamingContext::new();
        let source = ctx
            .read_source(Arc::new(BusSource::new(bus.clone(), "in", agg_schema()).unwrap()))
            .unwrap();
        let mut query = source
            .with_watermark("time", "5 seconds")
            .unwrap()
            .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
            .agg(vec![count_star(), avg(col("v"))])
            .write_stream()
            .output_mode(OutputMode::Append)
            .sink(sink.clone())
            .checkpoint(backend.clone())
            .engine_config(MicroBatchConfig {
                parallelism: p,
                shuffle_partitions: s,
                ..Default::default()
            })
            .start_sync()
            .unwrap();
        for wave in waves {
            feed_agg(bus, 15, wave * 15);
            query.process_available().unwrap();
        }
        query.process_available().unwrap();
        query.stop().unwrap();
    };
    let fresh = || {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 3).unwrap();
        (bus, Arc::new(MemoryBackend::new()), MemorySink::new("out"))
    };

    let (bus, backend, sink) = fresh();
    segment(&bus, &backend, &sink, (1, 1), 0..9);
    let uninterrupted = sink.snapshot();
    assert!(!uninterrupted.is_empty());

    let (bus, backend, sink) = fresh();
    segment(&bus, &backend, &sink, (1, 1), 0..3);
    // Rewrite the serial checkpoint as a 4-shard one: restore it with
    // every `agg-0` entry routed to its shard.
    let dyn_backend: Arc<dyn CheckpointBackend> = backend.clone();
    let mut store = StateStore::new(dyn_backend.clone());
    let to_shard = |ns: &str, key: &Row, _: &mut _| {
        (ns == "agg-0").then(|| format!("agg-0/p{}", shuffle_partition(key, 4)))
    };
    let epoch = store.restore_best_routed(None, to_shard).unwrap().expect("a checkpoint");
    for key in dyn_backend.list("state/chk-").unwrap() {
        dyn_backend.delete(&key).unwrap();
    }
    store.checkpoint(epoch).unwrap();
    let mut manifest = Manifest::load(&dyn_backend).unwrap().expect("a manifest");
    manifest.state_partitions = Some(4);
    manifest.write(&dyn_backend).unwrap();
    let (partitions, ops) = checkpointed_layout(&backend);
    assert_eq!(partitions, 4);
    assert!(ops.iter().any(|id| id.starts_with("agg-0/p")), "operators: {ops:?}");

    segment(&bus, &backend, &sink, (4, 4), 3..6);
    let (partitions, ops) = checkpointed_layout(&backend);
    assert_eq!(partitions, 1);
    assert!(
        ops.contains(&"agg-0".to_string()) && ops.iter().all(|id| !id.contains("/p")),
        "operators: {ops:?}"
    );
    segment(&bus, &backend, &sink, (1, 1), 6..9);
    assert_eq!(
        sink.snapshot(),
        uninterrupted,
        "sharded avg checkpoint → (4, 4) → (1, 1) diverged from the serial run"
    );
}

// ---- vector boundaries: one epoch of two full vectors and a ragged one ----

/// Rows in the big epoch: `VECTOR_ROWS` is 16 384.
const BIG_ROWS: u64 = 40_001;
/// Event time (s) of the row that puts a watermark in force before the
/// big epoch, of its on-time rows' earliest, and of the two rows that
/// afterwards push the watermark past everything (Append emits).
const BIG_T0: i64 = 1_000;
const BIG_FAR: i64 = 10_000;

/// Late rows hug both vector boundaries and are sprinkled elsewhere.
fn big_is_late(i: u64) -> bool {
    i % 9 == 4 || (16_382..16_387).contains(&i) || (32_766..32_771).contains(&i)
}

fn big_row(i: u64) -> Row {
    let t = match big_is_late(i) {
        true => 10 + (i % 50) as i64,
        false => BIG_T0 + ((i / 40) % 200) as i64 + [3i64, 0, 5, 1][(i % 4) as usize],
    };
    row![format!("k{}", i % 7), i as i64, ts(t)]
}

fn marker_row(t: i64) -> Row {
    row!["k1", 1i64, ts(t)]
}

/// A marker epoch, the big epoch (one partition, so scan order is feed
/// order and the late rows sit where [`big_is_late`] says), then two
/// marker epochs far in the future.
fn feed_big(bus: &MessageBus, query: &mut StreamingQuery) {
    bus.append("in", 0, vec![marker_row(BIG_T0)]).unwrap();
    query.process_available().unwrap();
    bus.append("in", 0, (0..BIG_ROWS).map(big_row)).unwrap();
    query.process_available().unwrap();
    for t in [BIG_FAR, BIG_FAR + 1] {
        bus.append("in", 0, vec![marker_row(t)]).unwrap();
        query.process_available().unwrap();
    }
}

/// §4.2 for the big feed: `shape` run by the batch engine over the
/// prefix the stream kept — every row but the late ones — restricted,
/// like `streamed`, to the windows the final watermark has closed.
fn assert_big_matches_batch(
    what: &str,
    shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame,
    streamed: &[Row],
) {
    let mut prefix = vec![marker_row(BIG_T0)];
    prefix.extend((0..BIG_ROWS).filter(|&i| !big_is_late(i)).map(big_row));
    prefix.extend([marker_row(BIG_FAR), marker_row(BIG_FAR + 1)]);
    let ctx = StreamingContext::new();
    let table = RecordBatch::from_rows(agg_schema(), &prefix).unwrap();
    let df = ctx.read_table("in", vec![table]).unwrap();
    let closed = |rows: Vec<Row>| -> Vec<Row> {
        let mut rows: Vec<Row> = rows
            .into_iter()
            .filter(|r| *r.get(0) < ts(BIG_FAR - 100))
            .collect();
        rows.sort();
        rows
    };
    let batch = closed(shape(&ctx, df).collect().unwrap().to_rows());
    assert!(batch.len() >= 20, "{what}: batch oracle is trivial");
    assert_eq!(closed(streamed.to_vec()), batch, "{what}: streamed result != batch over the prefix");
}

/// Run `shape` over the big feed through the matrix in Update and
/// Append, against the batch engine, and check the big epoch really
/// was one epoch whose operators report rows summed over its vectors.
fn assert_big_epoch(what: &str, shape: &dyn Fn(&StreamingContext, DataFrame) -> DataFrame) {
    for mode in [OutputMode::Update, OutputMode::Append] {
        let (rows, ops) = assert_fed_matrix(what, shape, mode, &feed_big);
        assert_big_matches_batch(&format!("{what} {mode:?}"), shape, &rows);
        assert_eq!(ops.len(), 4, "{what}: one epoch per feed step");
        assert_eq!(ops[1][0], ("scan:in".to_string(), BIG_ROWS));
        if let Some((_, kept)) = ops[1].iter().find(|(op, _)| op.starts_with("watermark:")) {
            assert!(*kept > 0 && *kept < BIG_ROWS, "{what}: watermark kept {kept} rows");
        }
    }
}

fn campaigns_table(ctx: &StreamingContext) -> DataFrame {
    let schema = Schema::of(vec![
        Field::new("c_key", DataType::Utf8),
        Field::new("campaign", DataType::Utf8),
    ]);
    // k6 has no campaign; campaign `none` has no key in the stream.
    let mut rows: Vec<Row> = (0..6)
        .map(|i| row![format!("k{i}"), format!("camp{}", i % 2)])
        .collect();
    rows.push(row!["k-absent", "none"]);
    ctx.read_table("campaigns", vec![RecordBatch::from_rows(schema, &rows).unwrap()])
        .unwrap()
}

#[test]
fn big_epoch_yahoo_shape_is_vector_boundary_safe() {
    assert_big_epoch("big yahoo", &|ctx, events| {
        events
            .filter(col("v").modulo(lit(4i64)).not_eq(lit(0i64)))
            .select(vec![col("key"), col("time")])
            .with_watermark("time", "5 seconds")
            .unwrap()
            .join(&campaigns_table(ctx), JoinType::Inner, vec![(col("key"), col("c_key"))])
            .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("campaign")])
            .agg(vec![count_star()])
    });
}

/// `avg` and a float `sum` are not combinable: at `parallelism(4)` too
/// this runs the one-partition vector loop, where folding vectors in
/// one after another must equal one `update_batch` bit for bit.
#[test]
fn big_epoch_non_combinable_sliding_window_is_vector_boundary_safe() {
    assert_big_epoch("big sliding", &|_, events| {
        events
            .with_watermark("time", "5 seconds")
            .unwrap()
            .filter(col("v").modulo(lit(5i64)).not_eq(lit(0i64)))
            .select(vec![col("key"), col("time"), col("v").mul(lit(0.1f64)).alias("w")])
            .group_by(vec![
                window_sliding(col("time"), "10 seconds", "5 seconds").unwrap(),
                col("key"),
            ])
            .agg(vec![avg(col("w")), sum(col("w"))])
    });
}

#[test]
fn big_epoch_left_outer_static_join_is_vector_boundary_safe() {
    assert_big_epoch("big left outer", &|ctx, events| {
        events
            .with_watermark("time", "5 seconds")
            .unwrap()
            .join(&campaigns_table(ctx), JoinType::LeftOuter, vec![(col("key"), col("c_key"))])
            .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("campaign")])
            .agg(vec![count_star(), sum(col("v"))])
    });
}

/// A right-outer stream–static join pads unmatched static rows once
/// per batch, so it is not chunk-safe: the fused aggregate input must
/// run it as a single vector and pad once per *epoch*.
#[test]
fn big_epoch_right_outer_static_join_pads_once_per_epoch() {
    let join = |ctx: &StreamingContext, events: DataFrame| {
        events.with_watermark("time", "5 seconds").unwrap().join(
            &campaigns_table(ctx),
            JoinType::RightOuter,
            vec![(col("key"), col("c_key"))],
        )
    };
    // Windowed (the padded rows' NULL event time drops them): the
    // result is the batch engine's.
    assert_big_epoch("big right outer", &|ctx, events| {
        join(ctx, events)
            .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("campaign")])
            .agg(vec![count_star(), sum(col("v"))])
    });
    // Unwindowed, the pads are counted: campaign `none` matches
    // nothing, so `count(*)` is its pads — one per epoch, however many
    // vectors an epoch's scan would make.
    let (rows, ops) = assert_fed_matrix(
        "big right outer pads",
        &|ctx, events| {
            join(ctx, events)
                .group_by(vec![col("campaign")])
                .agg(vec![count_star(), count(col("v"))])
        },
        OutputMode::Update,
        &feed_big,
    );
    let none = rows.iter().find(|r| *r.get(0) == Value::str("none")).expect("pads");
    assert_eq!(none, &row!["none", ops.len() as i64, 0i64]);
}
