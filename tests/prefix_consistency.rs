//! The paper's core semantic guarantee (§4.2, prefix consistency):
//! "Structured Streaming will always produce results consistent with
//! running this query on a prefix of the data in all input sources."
//!
//! These tests run the same logical query twice over identical data:
//! once through the batch executor, once through the streaming engine
//! with the input divided into arbitrary epochs — including
//! property-tested random epoch splits — and assert the final result
//! tables are identical. If an optimizer rule, the incrementalizer or
//! the epoch protocol ever broke semantics, this is the suite that
//! catches it.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use structured_streaming::prelude::*;

fn event_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("user", DataType::Utf8),
        Field::new("kind", DataType::Utf8),
        Field::new("amount", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn make_row(seed: u64) -> Row {
    let user = format!("u{}", seed % 7);
    let kind = if seed.is_multiple_of(3) { "view" } else { "click" };
    row![
        user,
        kind,
        (seed % 100) as i64,
        Value::Timestamp((seed % 50) as i64 * 1_000_000)
    ]
}

/// [`make_row`] with a NULL `kind` in every eleventh row, `amount` in
/// every fifth and `user` in every seventh.
fn make_row_with_nulls(seed: u64) -> Row {
    let mut row = make_row(seed);
    for (column, every) in [(1, 11), (2, 5), (0, 7)] {
        if seed % every == 3 {
            row.0[column] = Value::Null;
        }
    }
    row
}

/// Run `build` on a fresh context twice: batch over all rows at once,
/// and streaming with the rows split into the given epochs. Returns
/// `(batch_rows, streaming_rows)` as canonical sorted sets.
fn run_both(
    rows: &[Row],
    epochs: &[usize],
    mode: OutputMode,
    build: impl Fn(&StreamingContext, DataFrame) -> DataFrame,
) -> (Vec<Row>, Vec<Row>) {
    // Streaming run: feed epoch by epoch.
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("events", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
        ))
        .unwrap();
    let query_df = build(&ctx, df);
    let sink = MemorySink::new("out");
    let mut query = query_df
        .write_stream()
        .output_mode(mode)
        .sink(sink.clone())
        .start_sync()
        .unwrap();
    let mut offset = 0usize;
    for (i, &n) in epochs.iter().enumerate() {
        let end = (offset + n).min(rows.len());
        for (j, r) in rows[offset..end].iter().enumerate() {
            bus.append("events", ((i + j) % 2) as u32, vec![r.clone()])
                .unwrap();
        }
        offset = end;
        query.process_available().unwrap();
    }
    // Anything left over goes in one final epoch.
    for r in &rows[offset..] {
        bus.append("events", 0, vec![r.clone()]).unwrap();
    }
    query.process_available().unwrap();
    let mut streaming: Vec<Row> = sink.snapshot();
    streaming.sort();

    (run_batch(rows, build), streaming)
}

/// `build` run by the batch executor over all of `rows`, sorted.
fn run_batch(rows: &[Row], build: impl Fn(&StreamingContext, DataFrame) -> DataFrame) -> Vec<Row> {
    let batch_ctx = StreamingContext::new();
    let table = RecordBatch::from_rows(event_schema(), rows).unwrap();
    let bdf = batch_ctx.read_table("events", vec![table]).unwrap();
    let mut batch: Vec<Row> = build(&batch_ctx, bdf).collect().unwrap().to_rows();
    batch.sort();
    batch
}

/// `build` run by the continuous engine (§6.3) over `rows`, appended a
/// record at a time across two partitions; its record sink's rows,
/// sorted.
fn run_continuous(
    rows: &[Row],
    build: impl Fn(&StreamingContext, DataFrame) -> DataFrame,
) -> Vec<Row> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("events", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
        ))
        .unwrap();
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink_out = out.clone();
    let query = build(&ctx, df)
        .write_stream()
        .trigger(Trigger::Continuous(Duration::from_millis(20)))
        .record_sink(Arc::new(move |_p, row| {
            sink_out.lock().unwrap().push(row);
            Ok(())
        }))
        .start_continuous()
        .unwrap();
    for (i, r) in rows.iter().enumerate() {
        bus.append("events", (i % 2) as u32, vec![r.clone()])
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while query.processed() < rows.len() as u64 {
        let error = query.error();
        assert!(Instant::now() < deadline, "stalled: {error:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    query.stop().unwrap();
    let mut out = std::mem::take(&mut *out.lock().unwrap());
    out.sort();
    out
}

fn splits(total: usize, cuts: &[usize]) -> Vec<usize> {
    // Turn arbitrary cut points into epoch sizes covering `total`.
    let mut points: BTreeSet<usize> = cuts.iter().map(|c| c % (total + 1)).collect();
    points.insert(total);
    let mut sizes = Vec::new();
    let mut prev = 0;
    for p in points {
        if p > prev {
            sizes.push(p - prev);
            prev = p;
        }
    }
    sizes
}

#[test]
fn filter_project_prefix_consistent() {
    let rows: Vec<Row> = (0..200).map(make_row).collect();
    let (batch, streaming) = run_both(
        &rows,
        &[1, 50, 3, 100, 46],
        OutputMode::Append,
        |_, df| {
            df.filter(col("kind").eq(lit("view")))
                .select(vec![col("user"), col("amount").mul(lit(2i64)).alias("a2")])
        },
    );
    assert_eq!(batch, streaming);
    assert!(!batch.is_empty());
}

/// Continuous mode runs map-like queries (§6.3) with the epoch path's
/// operators: its record sink sees exactly the batch result, NULLs
/// included.
#[test]
fn continuous_map_like_prefix_consistent() {
    type Build = Box<dyn Fn(&StreamingContext, DataFrame) -> DataFrame>;
    let rows: Vec<Row> = (0..300).map(make_row_with_nulls).collect();
    let queries: [(&str, Build); 4] = [
        (
            "filter + project",
            Box::new(|_, df| {
                df.filter(col("kind").eq(lit("view")))
                    .select(vec![col("user"), col("amount").mul(lit(2i64)).alias("a2")])
            }),
        ),
        (
            "filter",
            Box::new(|_, df| df.filter(col("amount").gt(lit(40i64)))),
        ),
        (
            "project",
            Box::new(|_, df| df.select(vec![col("time"), col("user")])),
        ),
        (
            "SQL",
            Box::new(|ctx, _| {
                sql(
                    ctx,
                    "SELECT user, amount + 1 AS a1 FROM events WHERE kind = 'view'",
                )
                .unwrap()
            }),
        ),
    ];
    for (name, build) in &queries {
        let batch = run_batch(&rows, build);
        let has_null = |r: &Row| r.values().contains(&Value::Null);
        assert!(batch.iter().any(has_null), "{name}: no NULLs");
        assert_eq!(batch, run_continuous(&rows, build), "{name}");
    }
}

#[test]
fn grouped_aggregation_prefix_consistent() {
    let rows: Vec<Row> = (0..300).map(make_row).collect();
    let (batch, streaming) = run_both(
        &rows,
        &[7, 90, 1, 1, 200, 1],
        OutputMode::Complete,
        |_, df| {
            df.group_by(vec![col("user")])
                .agg(vec![count_star(), sum(col("amount")), avg(col("amount"))])
        },
    );
    assert_eq!(batch, streaming);
    assert_eq!(batch.len(), 7);
}

#[test]
fn windowed_aggregation_prefix_consistent() {
    let rows: Vec<Row> = (0..250).map(make_row).collect();
    let (batch, streaming) = run_both(
        &rows,
        &[100, 100, 50],
        OutputMode::Complete,
        |_, df| {
            df.group_by(vec![
                window(col("time"), "10 seconds").unwrap(),
                col("kind"),
            ])
            .count()
        },
    );
    assert_eq!(batch, streaming);
}

#[test]
fn stream_static_join_prefix_consistent() {
    let rows: Vec<Row> = (0..150).map(make_row).collect();
    let lookup = RecordBatch::from_rows(
        Schema::of(vec![
            Field::new("u", DataType::Utf8),
            Field::new("region", DataType::Utf8),
        ]),
        &(0..7)
            .map(|i| row![format!("u{i}"), if i % 2 == 0 { "west" } else { "east" }])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let (batch, streaming) = run_both(
        &rows,
        &[10, 75, 65],
        OutputMode::Complete,
        move |ctx, df| {
            let users = ctx
                .read_table("regions", vec![lookup.clone()])
                .unwrap();
            df.join(&users, JoinType::Inner, vec![(col("user"), col("u"))])
                .group_by(vec![col("region")])
                .agg(vec![sum(col("amount"))])
        },
    );
    assert_eq!(batch, streaming);
    assert_eq!(batch.len(), 2);
}

#[test]
fn distinct_prefix_consistent() {
    let rows: Vec<Row> = (0..120).map(make_row).collect();
    let (batch, streaming) = run_both(
        &rows,
        &[3, 3, 3, 111],
        OutputMode::Append,
        |_, df| df.select(vec![col("user"), col("kind")]).distinct(),
    );
    assert_eq!(batch, streaming);
}

#[test]
fn sql_queries_prefix_consistent() {
    let rows: Vec<Row> = (0..200).map(make_row).collect();
    // Streaming via SQL.
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("events", 1).unwrap();
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
    ))
    .unwrap();
    let df = sql(
        &ctx,
        "SELECT user, COUNT(*) AS n, SUM(amount) AS total FROM events \
         WHERE kind = 'view' GROUP BY user",
    )
    .unwrap();
    let sink = MemorySink::new("out");
    let mut query = df
        .write_stream()
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .start_sync()
        .unwrap();
    for chunk in rows.chunks(33) {
        bus.append("events", 0, chunk.iter().cloned()).unwrap();
        query.process_available().unwrap();
    }
    let mut streaming = sink.snapshot();
    streaming.sort();
    // Batch via the same SQL text.
    let bctx = StreamingContext::new();
    bctx.read_table(
        "events",
        vec![RecordBatch::from_rows(event_schema(), &rows).unwrap()],
    )
    .unwrap();
    let mut batch = sql(
        &bctx,
        "SELECT user, COUNT(*) AS n, SUM(amount) AS total FROM events \
         WHERE kind = 'view' GROUP BY user",
    )
    .unwrap()
    .collect()
    .unwrap()
    .to_rows();
    batch.sort();
    assert_eq!(batch, streaming);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random data, random epoch boundaries: grouped aggregation over a
    /// stream equals the batch result over the same prefix — for every
    /// prefix the splits define.
    #[test]
    fn prop_aggregation_any_split(
        seeds in prop::collection::vec(any::<u64>(), 1..120),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let rows: Vec<Row> = seeds.iter().map(|&s| make_row(s)).collect();
        let epochs = splits(rows.len(), &cuts);
        let (batch, streaming) = run_both(
            &rows,
            &epochs,
            OutputMode::Complete,
            |_, df| {
                df.group_by(vec![col("user"), col("kind")])
                    .agg(vec![count_star(), sum(col("amount")), min(col("amount")), max(col("amount"))])
            },
        );
        prop_assert_eq!(batch, streaming);
    }

    /// Update-mode incremental output, accumulated through an upserting
    /// sink, converges to the batch result regardless of splits.
    #[test]
    fn prop_update_mode_converges(
        seeds in prop::collection::vec(any::<u64>(), 1..100),
        cuts in prop::collection::vec(any::<usize>(), 0..5),
    ) {
        let rows: Vec<Row> = seeds.iter().map(|&s| make_row(s)).collect();
        let epochs = splits(rows.len(), &cuts);
        let (batch, streaming) = run_both(
            &rows,
            &epochs,
            OutputMode::Update,
            |_, df| df.group_by(vec![col("user")]).agg(vec![sum(col("amount"))]),
        );
        prop_assert_eq!(batch, streaming);
    }
}
