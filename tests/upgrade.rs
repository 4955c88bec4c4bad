//! Safe query upgrades through the public API: graceful drain,
//! manifest-checked restarts (`restart_from_checkpoint`), state
//! migration, checkpoint retention and validated rollback.
//!
//! The matrix the issue demands:
//!
//! | edit | classification |
//! |---|---|
//! | filter predicate edit | Compatible — resume, keep state |
//! | projection add (downstream of the aggregate) | Compatible |
//! | added aggregate column | MigratableState — old columns keep history, new one starts from its empty accumulator |
//! | added aggregate column, resumed at other partition counts | MigratableState — the same sink and state as without the layout change |
//! | changed grouping keys | Incompatible — refused before any durable write |
//! | changed window size | Incompatible — refused before any durable write |

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use structured_streaming::prelude::*;
use structured_streaming::ss_state::CheckpointBackend;
use structured_streaming::ss_wal::MANIFEST_KEY;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

/// Deterministic rows: key cycles k0/k1/k2, `v` as given, event time
/// advances one second per row.
fn rows_with(n: u64, start: u64, v: impl Fn(u64) -> i64) -> Vec<Row> {
    (start..start + n)
        .map(|i| {
            row![
                format!("k{}", i % 3),
                v(i),
                Value::Timestamp(i as i64 * 1_000_000)
            ]
        })
        .collect()
}

/// A DataFrame over `bus`'s `in` topic in a fresh context (each
/// deployment builds its own plan, as a re-deployed application would).
fn df_over(bus: &Arc<MessageBus>) -> DataFrame {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "in", schema()).unwrap(),
    ))
    .unwrap()
}

fn start(
    df: &DataFrame,
    sink: Arc<MemorySink>,
    backend: Arc<dyn CheckpointBackend>,
) -> StreamingQuery {
    df.write_stream()
        .query_name("upgrade")
        .output_mode(OutputMode::Complete)
        .sink(sink)
        .checkpoint(backend)
        .start_sync()
        .unwrap()
}

// ---------------------------------------------------------------------
// Accept
// ---------------------------------------------------------------------

#[test]
fn filter_edit_is_compatible_and_keeps_state() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");

    let v1 = df_over(&bus)
        .filter(col("v").gt_eq(lit(0i64)))
        .group_by(vec![col("k")])
        .count();
    let mut q = start(&v1, sink.clone(), backend.clone());
    bus.append("in", 0, rows_with(6, 0, |_| 1)).unwrap();
    q.process_available().unwrap();
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 2i64], row!["k1", 2i64], row!["k2", 2i64]]
    );

    // Upgrade: tighten the (stateless, upstream) filter. The aggregate's
    // signature is untouched, so its state carries over.
    let v2 = df_over(&bus)
        .filter(col("v").gt_eq(lit(100i64)))
        .group_by(vec![col("k")])
        .count();
    let mut q2 = q.restart_from_checkpoint(&v2).unwrap();
    // Post-upgrade rows with v=1 are now filtered out; v=100 pass.
    bus.append("in", 0, rows_with(3, 6, |_| 1)).unwrap();
    bus.append("in", 0, rows_with(3, 9, |_| 100)).unwrap();
    q2.process_available().unwrap();
    // Pre-upgrade counts (2 each) retained, one new row each.
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 3i64], row!["k1", 3i64], row!["k2", 3i64]]
    );
    q2.stop_graceful().unwrap();
}

#[test]
fn projection_add_downstream_of_the_aggregate_is_compatible() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");

    let v1 = df_over(&bus).group_by(vec![col("k")]).count();
    let mut q = start(&v1, sink.clone(), backend.clone());
    bus.append("in", 0, rows_with(6, 0, |i| i as i64)).unwrap();
    q.process_available().unwrap();

    // Upgrade: project a derived column downstream of the aggregate.
    // The stateful operator is unchanged; only stateless shaping moved.
    let v2 = df_over(&bus)
        .group_by(vec![col("k")])
        .count()
        .select(vec![
            col("k"),
            col("count(*)"),
            col("count(*)").mul(lit(10i64)).alias("count_x10"),
        ]);
    let sink2 = MemorySink::new("out2");
    let q2 = q.restart_from_checkpoint(&v2).unwrap();
    drop(q2); // plan accepted; re-wire the new output shape to a fresh sink
    let mut q3 = start(&v2, sink2.clone(), backend.clone());
    bus.append("in", 0, rows_with(3, 6, |i| i as i64)).unwrap();
    q3.process_available().unwrap();
    assert_eq!(
        sink2.snapshot(),
        vec![
            row!["k0", 3i64, 30i64],
            row!["k1", 3i64, 30i64],
            row!["k2", 3i64, 30i64]
        ]
    );
    q3.stop_graceful().unwrap();
}

// ---------------------------------------------------------------------
// Migrate
// ---------------------------------------------------------------------

#[test]
fn added_aggregate_column_migrates_state_and_matches_a_clean_run() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");

    // Phase 1 input: v = 0 everywhere, so the *added* column (sum v) is
    // insensitive to the history the migration cannot recover; the
    // retained column (count) must carry its history over.
    let v1 = df_over(&bus).group_by(vec![col("k")]).count();
    let mut q = start(&v1, sink.clone(), backend.clone());
    bus.append("in", 0, rows_with(6, 0, |_| 0)).unwrap();
    q.process_available().unwrap();

    let v2 = df_over(&bus)
        .group_by(vec![col("k")])
        .agg(vec![count_star(), sum(col("v"))]);
    let mut q2 = q.restart_from_checkpoint(&v2).unwrap();
    bus.append("in", 0, rows_with(6, 6, |_| 5)).unwrap();
    q2.process_available().unwrap();
    let migrated = sink.snapshot();
    q2.stop_graceful().unwrap();

    // Clean run of the new query over the same full input.
    let clean_sink = MemorySink::new("clean");
    let mut clean = start(
        &v2,
        clean_sink.clone(),
        Arc::new(MemoryBackend::new()),
    );
    clean.process_available().unwrap();
    assert_eq!(
        migrated, clean_sink.snapshot(),
        "migrated restart must be byte-identical to a from-scratch run"
    );
    // And the retained column kept its pre-upgrade history: 4 rows per
    // key in total, not just the 2 post-upgrade ones.
    assert_eq!(
        migrated,
        vec![
            row!["k0", 4i64, 10i64],
            row!["k1", 4i64, 10i64],
            row!["k2", 4i64, 10i64]
        ]
    );
    clean.stop().unwrap();
}

/// The count checkpointed at `layouts[0]`, then upgraded to count + sum
/// and resumed at `layouts[1]` and again at `layouts[2]`, a wave of
/// input each time. Returns the sink and the restored state by operator
/// (all shards together).
fn upgrade_across(layouts: [(usize, usize); 3]) -> (Vec<Row>, BTreeMap<Row, Vec<Row>>) {
    use structured_streaming::ss_state::StateStore;

    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let v1 = df_over(&bus).group_by(vec![col("k")]).count();
    let v2 = df_over(&bus).group_by(vec![col("k")]).agg(vec![count_star(), sum(col("v"))]);
    for (i, ((p, s), df)) in layouts.into_iter().zip([&v1, &v2, &v2]).enumerate() {
        let mut q = df
            .write_stream()
            .query_name("upgrade")
            .output_mode(OutputMode::Complete)
            .sink(sink.clone())
            .checkpoint(backend.clone())
            .engine_config(MicroBatchConfig {
                parallelism: p,
                shuffle_partitions: s,
                ..Default::default()
            })
            .start_sync()
            .unwrap();
        let first = i as u64 * 6;
        bus.append("in", 0, rows_with(6, first, |j| if i == 0 { 0 } else { j as i64 })).unwrap();
        q.process_available().unwrap();
        q.stop().unwrap();
    }
    let mut store = StateStore::new(backend);
    store.restore_best(None).unwrap().expect("a checkpoint");
    let mut state = BTreeMap::new();
    for id in store.operator_ids() {
        let op = store.operator_ref(&id).unwrap();
        state.extend(op.iter().map(|(k, e)| (k.clone(), e.values.clone())));
    }
    (sink.snapshot(), state)
}

#[test]
fn added_aggregate_migrates_across_partition_counts() {
    let relaid = upgrade_across([(4, 4), (2, 2), (1, 1)]);
    assert_eq!(relaid.0.len(), 3, "{relaid:?}");
    assert_eq!(relaid.1.len(), 3, "{relaid:?}");
    for same in [(1, 1), (4, 4)] {
        assert_eq!(upgrade_across([same; 3]), relaid, "against a run staying at {same:?}");
    }
}

// ---------------------------------------------------------------------
// Reject
// ---------------------------------------------------------------------

/// Run `edit` against a checkpoint created by a group-by-k count and
/// assert it is refused with `IncompatibleUpgrade` *without touching
/// durable state* — the original query restarts cleanly afterwards.
fn assert_rejected(edit: impl Fn(&Arc<MessageBus>) -> DataFrame, expect_in_error: &str) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");

    let v1 = df_over(&bus)
        .with_watermark("time", "1 minute")
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let mut q = start(&v1, sink.clone(), backend.clone());
    bus.append("in", 0, rows_with(6, 0, |i| i as i64)).unwrap();
    q.process_available().unwrap();
    let before = sink.snapshot();

    let v2 = edit(&bus);
    let err = match q.restart_from_checkpoint(&v2) {
        Err(e) => e,
        Ok(_) => panic!("incompatible edit must be refused"),
    };
    assert!(
        matches!(err, SsError::IncompatibleUpgrade(_)),
        "wrong error: {err}"
    );
    assert!(err.to_string().contains(expect_in_error), "got: {err}");

    // Nothing durable was modified: the *original* query still resumes
    // from the same checkpoint with its state intact.
    let mut q3 = start(&v1, sink.clone(), backend);
    bus.append("in", 0, rows_with(3, 6, |i| i as i64)).unwrap();
    q3.process_available().unwrap();
    let after = sink.snapshot();
    for (b, a) in before.iter().zip(&after) {
        let count_before = b.get(1);
        let count_after = a.get(1);
        assert_eq!(
            (count_before, count_after),
            (&Value::Int64(2), &Value::Int64(3)),
            "state history lost after a rejected upgrade"
        );
    }
}

#[test]
fn changed_grouping_keys_are_rejected() {
    assert_rejected(
        |bus| {
            df_over(bus)
                .with_watermark("time", "1 minute")
                .unwrap()
                .group_by(vec![col("k"), col("v")])
                .count()
        },
        "grouping keys",
    );
}

#[test]
fn changed_window_size_is_rejected() {
    let windowed = |bus: &Arc<MessageBus>, size: &str| {
        df_over(bus)
            .with_watermark("time", "1 minute")
            .unwrap()
            .group_by(vec![window(col("time"), size).unwrap(), col("k")])
            .count()
    };
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let v1 = windowed(&bus, "10 seconds");
    let mut q = start(&v1, sink.clone(), backend.clone());
    bus.append("in", 0, rows_with(6, 0, |i| i as i64)).unwrap();
    q.process_available().unwrap();

    let v2 = windowed(&bus, "20 seconds");
    let err = match q.restart_from_checkpoint(&v2) {
        Err(e) => e,
        Ok(_) => panic!("window-size change must be refused"),
    };
    assert!(
        matches!(err, SsError::IncompatibleUpgrade(_)),
        "wrong error: {err}"
    );
    assert!(err.to_string().contains("window"), "got: {err}");
}

// ---------------------------------------------------------------------
// Stop semantics & retention
// ---------------------------------------------------------------------

#[test]
fn stop_then_restart_never_recomputes_a_committed_epoch() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let df = df_over(&bus).group_by(vec![col("k")]).count();

    bus.append("in", 0, rows_with(9, 0, |i| i as i64)).unwrap();
    {
        let mut q = df
            .write_stream()
            .query_name("stop-restart")
            .output_mode(OutputMode::Complete)
            .trigger(Trigger::ProcessingTime(Duration::from_millis(1)))
            .sink(sink.clone())
            .checkpoint(backend.clone())
            .start()
            .unwrap();
        assert!(q.await_idle(Duration::from_secs(30)).unwrap());
        q.stop().unwrap(); // plain stop: lands on a commit boundary
    }
    let written_before = sink.rows_written();
    assert!(written_before > 0);

    // Restart over the same checkpoint: recovery replays committed
    // epochs with output *disabled*, so the sink sees nothing new.
    let mut q2 = start(&df, sink.clone(), backend);
    assert_eq!(sink.rows_written(), written_before);
    // And new data still flows.
    bus.append("in", 0, rows_with(3, 9, |i| i as i64)).unwrap();
    q2.process_available().unwrap();
    assert!(sink.rows_written() > written_before);
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 4i64], row!["k1", 4i64], row!["k2", 4i64]]
    );
    q2.stop_graceful().unwrap();
}

#[test]
fn retention_gc_purges_and_rollback_beyond_horizon_is_a_clean_error() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let df = df_over(&bus).group_by(vec![col("k")]).count();
    let mut q = df
        .write_stream()
        .query_name("gc")
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .checkpoint(backend.clone())
        .engine_config(MicroBatchConfig {
            min_epochs_to_retain: Some(5),
            ..Default::default()
        })
        .start_sync()
        .unwrap();

    // 25 one-row epochs; full state snapshots land every 10th
    // checkpoint, so GC has generations to purge.
    for i in 0..25u64 {
        bus.append("in", 0, rows_with(1, i, |i| i as i64)).unwrap();
        q.process_available().unwrap();
    }
    assert_eq!(q.current_epoch(), 25);
    let metrics = q.metrics().render();
    let purged_line = metrics
        .lines()
        .find(|l| l.starts_with("ss_checkpoint_purged_total"))
        .expect("purge counter exported");
    let purged: f64 = purged_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(purged > 0.0, "retention GC never purged anything: {purged_line}");

    // Beyond the horizon: clean, named error; nothing truncated.
    let err = q.rollback_to(2).unwrap_err();
    assert!(
        err.to_string().contains("retention horizon"),
        "got: {err}"
    );
    assert_eq!(q.current_epoch(), 25);

    // Within the horizon: rollback + replay converges to the same
    // totals (the bus retains the full history).
    let before = sink.snapshot();
    q.rollback_to(21).unwrap();
    q.process_available().unwrap();
    assert_eq!(sink.snapshot(), before);
    q.stop_graceful().unwrap();
}

// ---------------------------------------------------------------------
// Golden v1 fixture
// ---------------------------------------------------------------------

/// Where the committed fixture lives in the repository.
fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("checkpoint_v1")
}

/// The deterministic input the fixture was generated over: two epochs
/// of three rows each.
fn fixture_bus() -> Arc<MessageBus> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    bus
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).unwrap();
        }
    }
}

/// Regenerate `tests/fixtures/checkpoint_v1/` after an *intentional*
/// format change: `cargo test --test upgrade regenerate -- --ignored`.
/// Commit the resulting files.
#[test]
#[ignore = "writes into the source tree; run explicitly to regenerate the fixture"]
fn regenerate_golden_fixture() {
    let dir = fixture_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bus = fixture_bus();
    let sink = MemorySink::new("out");
    let df = df_over(&bus).group_by(vec![col("k")]).count();
    let q = df
        .write_stream()
        .query_name("golden")
        .output_mode(OutputMode::Complete)
        .sink(sink)
        .checkpoint_dir(&dir)
        .unwrap()
        .start_sync()
        .unwrap();
    let mut q = q;
    bus.append("in", 0, rows_with(3, 0, |i| i as i64)).unwrap();
    q.process_available().unwrap();
    bus.append("in", 0, rows_with(3, 3, |i| i as i64)).unwrap();
    q.process_available().unwrap();
    q.stop_graceful().unwrap(); // seals the manifest
}

#[test]
fn golden_v1_fixture_restores_with_current_code() {
    let fixture = fixture_dir();
    assert!(
        fixture.join("MANIFEST.json").exists(),
        "golden fixture missing; run the ignored `regenerate_golden_fixture` test"
    );
    // Work on a copy: restoring must not depend on mutating the
    // committed files.
    let work = std::env::temp_dir().join(format!("ss-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    copy_dir(&fixture, &work);

    // Rebuild the input the fixture was generated over, plus one new
    // epoch of data.
    let bus = fixture_bus();
    bus.append("in", 0, rows_with(6, 0, |i| i as i64)).unwrap();
    let sink = MemorySink::new("out");
    let df = df_over(&bus).group_by(vec![col("k")]).count();
    let mut q = df
        .write_stream()
        .query_name("golden")
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .checkpoint_dir(&work)
        .unwrap()
        .start_sync()
        .unwrap();
    assert_eq!(q.current_epoch(), 2, "fixture's committed epochs restored");
    bus.append("in", 0, rows_with(3, 6, |i| i as i64)).unwrap();
    q.process_available().unwrap();
    // Pre-fixture counts (2 per key) retained + 1 new row per key.
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 3i64], row!["k1", 3i64], row!["k2", 3i64]]
    );
    q.stop_graceful().unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

// ---------------------------------------------------------------------
// Golden binary v1 fixture
// ---------------------------------------------------------------------

/// `tests/fixtures/checkpoint_bin_v1/`: what the last build to write
/// state body v1 in `ss-frame-v1` frames left after [`bin_query`] ran
/// one epoch per batch of [`bin_epochs`] and stopped gracefully. Its
/// epoch-3 delta removes the keys the watermark closed.
fn bin_fixture_dir() -> std::path::PathBuf {
    fixture_dir().with_file_name("checkpoint_bin_v1")
}

/// `(user, bytes, event time s)` rows of `user BIGINT, bytes BIGINT,
/// t TIMESTAMP`.
fn bin_rows(events: &[(Option<i64>, i64, i64)]) -> Vec<Row> {
    let row = |&(user, bytes, t): &(Option<i64>, i64, i64)| {
        row![user.map_or(Value::Null, Value::Int64), bytes, Value::Timestamp(t * 1_000_000)]
    };
    events.iter().map(row).collect()
}

fn bin_epochs() -> [Vec<Row>; 4] {
    [
        bin_rows(&[
            (Some(1), 100, 1),
            (Some(2), 250, 2),
            (Some(-3), 70, 3),
            (None, 40, 4),
            (Some(1), 300, 6),
            (Some(7), 11, 8),
        ]),
        bin_rows(&[
            (Some(1), 5, 11),
            (Some(-3), 600, 12),
            (Some(5), 90, 14),
            (None, 8, 15),
            (Some(-3), 1, 19),
        ]),
        bin_rows(&[(Some(2), 77, 21), (Some(-9), 123, 23), (Some(1), 9, 28)]),
        bin_rows(&[(Some(5), 55, 31), (None, 66, 34), (Some(-9), 1000, 38)]),
    ]
}

/// A windowed BIGINT-keyed aggregate with a count, a BIGINT sum, a
/// TIMESTAMP max and an average (a state row) under a watermark.
fn bin_query(bus: &Arc<MessageBus>, sink: Arc<MemorySink>, dir: &std::path::Path) -> StreamingQuery {
    let schema = Schema::of(vec![
        Field::new("user", DataType::Int64),
        Field::new("bytes", DataType::Int64),
        Field::new("t", DataType::Timestamp),
    ]);
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(BusSource::new(bus.clone(), "in", schema).unwrap()))
        .unwrap()
        .with_watermark("t", "5 seconds")
        .unwrap()
        .group_by(vec![window(col("t"), "10 seconds").unwrap(), col("user")])
        .agg(vec![count_star(), sum(col("bytes")), max(col("t")), avg(col("bytes"))])
        .write_stream()
        .query_name("bin")
        .output_mode(OutputMode::Update)
        .sink(sink)
        .checkpoint_dir(dir)
        .unwrap()
        .start_sync()
        .unwrap()
}

#[test]
fn golden_binary_v1_fixture_restores_with_current_code() {
    use structured_streaming::ss_state::StateStore;
    let work = std::env::temp_dir().join(format!("ss-golden-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    copy_dir(&bin_fixture_dir(), &work);
    let store = || StateStore::new(Arc::new(FsBackend::new(&work).unwrap()));
    let blob = |epoch: u64, kind: &str| {
        std::fs::read(work.join(format!("state/chk-{epoch:020}-{kind}.bin"))).unwrap()
    };
    assert!(blob(3, "delta").starts_with(b"ss-frame-v1 crc32="));
    let dump: serde_json::Value = serde_json::from_str(&store().dump_json(3).unwrap()).unwrap();
    let ops = dump.get("ops").and_then(|ops| ops.as_array()).unwrap();
    let removed = |op: &serde_json::Value| op.get("removed").and_then(|r| r.as_array()).unwrap().len();
    assert_eq!(ops.iter().map(removed).sum::<usize>(), 5);

    let bus = fixture_bus();
    for rows in bin_epochs() {
        bus.append("in", 0, rows).unwrap();
    }
    let sink = MemorySink::new("out");
    let mut q = bin_query(&bus, sink.clone(), &work);
    assert_eq!(q.current_epoch(), 4, "fixture's committed epochs restored");
    // A late row for a restored group, and a new window.
    bus.append("in", 0, bin_rows(&[(Some(-9), 4, 36), (Some(1), 7, 41), (Some(5), 3, 44)]))
        .unwrap();
    q.process_available().unwrap();
    q.stop_graceful().unwrap();
    assert!(blob(5, "full").starts_with(b"ss-frame-v2 crc32c="));

    // Values the fixture's build recorded for the same run.
    let ts = |s: i64| Value::Timestamp(s * 1_000_000);
    assert_eq!(
        sink.snapshot(),
        vec![
            row![ts(30), ts(40), -9i64, 2i64, 1004i64, ts(38), 502.0],
            row![ts(40), ts(50), 1i64, 1i64, 7i64, ts(41), 7.0],
            row![ts(40), ts(50), 5i64, 1i64, 3i64, ts(44), 3.0],
        ]
    );
    let group = |count: i64, bytes: i64, max: i64| {
        vec![row![count], row![bytes], row![ts(max)], row![bytes as f64, count]]
    };
    let mut want = BTreeMap::from([
        (row![ts(30), -9i64], group(2, 1004, 38)),
        (row![ts(30), 5i64], group(1, 55, 31)),
        (row![ts(30), Value::Null], group(1, 66, 34)),
        (row![ts(40), 1i64], group(1, 7, 41)),
        (row![ts(40), 5i64], group(1, 3, 44)),
    ]);
    want.insert(row!["__current"], vec![row![ts(39)]]);
    want.insert(row!["t"], vec![row![ts(44)]]);
    let mut restored = store();
    assert_eq!(restored.restore_best(None).unwrap(), Some(5));
    let mut got = BTreeMap::new();
    for id in restored.operator_ids() {
        got.extend(restored.operator(&id).iter().map(|(k, e)| (k.clone(), e.values.clone())));
    }
    assert_eq!(got, want);
    std::fs::remove_dir_all(&work).unwrap();
}

// ---------------------------------------------------------------------
// Legacy v0 layout
// ---------------------------------------------------------------------

#[test]
fn a_checkpoint_without_a_manifest_still_restores_as_v0() {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 1).unwrap();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let sink = MemorySink::new("out");
    let df = df_over(&bus).group_by(vec![col("k")]).count();
    {
        let mut q = start(&df, sink.clone(), backend.clone());
        bus.append("in", 0, rows_with(6, 0, |i| i as i64)).unwrap();
        q.process_available().unwrap();
    }
    // Strip the manifest: the directory is now exactly what a
    // pre-manifest build would have written.
    backend.delete(MANIFEST_KEY).unwrap();

    // The query resumes unchecked against v0, exactly as older builds
    // behaved (the checkpoint predates operator signatures).
    let mut q2 = start(&df, sink.clone(), backend);
    bus.append("in", 0, rows_with(3, 6, |i| i as i64)).unwrap();
    q2.process_available().unwrap();
    assert_eq!(
        sink.snapshot(),
        vec![row!["k0", 3i64], row!["k1", 3i64], row!["k2", 3i64]]
    );
    q2.stop_graceful().unwrap();
}
