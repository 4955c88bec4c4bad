//! Criterion microbenchmarks of the engine's hot operators: filter,
//! project, hash aggregation, hash join, state-store writes and WAL
//! appends. Not a paper figure — these are the regression guards the
//! DataFusion contributor guide recommends accompanying performance
//! work with.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ss_baselines::workload::YahooWorkload;
use ss_bench::records_per_partition;
use ss_bus::{BusSource, MessageBus, Source};
use ss_common::{RecordBatch, Row, Value};
use ss_exec::ops::{filter_batch, project_batch};
use ss_exec::{hash_join, HashAggregator};
use ss_expr::{col, count_star, lit, window};
use ss_plan::JoinType;
use ss_state::{MemoryBackend, StateEntry, StateStore};
use ss_wal::{EpochOffsets, OffsetRange, WriteAheadLog};

const BATCH_ROWS: u64 = 8_192;

fn event_batch(workload: &YahooWorkload) -> RecordBatch {
    workload.event_batch(0, 0, BATCH_ROWS)
}

fn bench_filter(c: &mut Criterion) {
    let w = YahooWorkload::default();
    let batch = event_batch(&w);
    let pred = col("event_type").eq(lit("view"));
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(BATCH_ROWS));
    g.bench_function("event_type_eq_view", |b| {
        b.iter(|| filter_batch(&batch, &pred).unwrap())
    });
    g.finish();
}

fn bench_project(c: &mut Criterion) {
    let w = YahooWorkload::default();
    let batch = event_batch(&w);
    let exprs = vec![col("ad_id"), col("event_time"), col("ad_id").add(lit(1i64))];
    let mut g = c.benchmark_group("project");
    g.throughput(Throughput::Elements(BATCH_ROWS));
    g.bench_function("three_columns", |b| {
        b.iter(|| project_batch(&batch, &exprs).unwrap())
    });
    g.finish();
}

fn bench_hash_aggregate(c: &mut Criterion) {
    let w = YahooWorkload::default();
    let batch = event_batch(&w);
    let mut g = c.benchmark_group("hash_aggregate");
    g.throughput(Throughput::Elements(BATCH_ROWS));
    g.bench_function("count_by_ad_id", |b| {
        b.iter_batched(
            || HashAggregator::new(batch.schema().clone(), vec![col("ad_id")], vec![count_star()]).unwrap(),
            |mut agg| agg.update_batch(&batch).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("count_by_window_and_ad", |b| {
        b.iter_batched(
            || {
                HashAggregator::new(
                    batch.schema().clone(),
                    vec![window(col("event_time"), "10 seconds").unwrap(), col("ad_id")],
                    vec![count_star()],
                )
                .unwrap()
            },
            |mut agg| agg.update_batch(&batch).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    let w = YahooWorkload::default();
    let batch = event_batch(&w);
    let campaigns = w.campaign_batch();
    let on = vec![(col("ad_id"), col("c_ad_id"))];
    let mut g = c.benchmark_group("hash_join");
    g.throughput(Throughput::Elements(BATCH_ROWS));
    g.bench_function("events_x_campaigns", |b| {
        b.iter(|| hash_join(&batch, &campaigns, JoinType::Inner, &on).unwrap())
    });
    g.finish();
}

fn bench_state_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("state_store");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("put_1k_keys", |b| {
        b.iter_batched(
            || StateStore::new(Arc::new(MemoryBackend::new())),
            |mut store| {
                let op = store.operator("agg");
                for i in 0..1_000i64 {
                    op.put(
                        Row::new(vec![Value::Int64(i)]),
                        StateEntry::new(vec![Row::new(vec![Value::Int64(i)])]),
                    );
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("checkpoint_1k_keys", |b| {
        b.iter_batched(
            || {
                let mut store = StateStore::new(Arc::new(MemoryBackend::new()));
                let op = store.operator("agg");
                for i in 0..1_000i64 {
                    op.put(
                        Row::new(vec![Value::Int64(i)]),
                        StateEntry::new(vec![Row::new(vec![Value::Int64(i)])]),
                    );
                }
                store
            },
            |mut store| store.checkpoint(1).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    let mut epoch = 0u64;
    let wal = WriteAheadLog::new(Arc::new(MemoryBackend::new()));
    g.bench_function("write_offsets", |b| {
        b.iter(|| {
            epoch += 1;
            let mut sources = std::collections::BTreeMap::new();
            sources.insert(
                "kafka".to_string(),
                OffsetRange {
                    start: std::collections::BTreeMap::from([(0, epoch * 100)]),
                    end: std::collections::BTreeMap::from([(0, (epoch + 1) * 100)]),
                },
            );
            wal.write_offsets(&EpochOffsets {
                epoch,
                sources,
                watermark_us: 0,
                defined_at_us: 0,
            })
            .unwrap()
        })
    });
    g.finish();
}

fn bench_bus(c: &mut Criterion) {
    let w = YahooWorkload::default();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("t", 1).unwrap();
    let rows: Vec<Row> = (0..1_000).map(|o| w.event(0, o)).collect();
    let mut g = c.benchmark_group("bus");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("append_1k", |b| {
        b.iter(|| bus.append_at("t", 0, 0, rows.iter().cloned()).unwrap())
    });

    // Reads of (up to) 64k records from inside a preloaded partition
    // (`SS_BENCH_RECORDS`, default 262 144 = 16 chunks), starting
    // mid-chunk: the projected and the full batch decode of
    // `BusSource`, and the per-record `read()` view.
    let records = records_per_partition(262_144);
    bus.create_topic("log", 1).unwrap();
    bus.append_at("log", 0, 0, (0..records).map(|o| w.event(0, o))).unwrap();
    let source = BusSource::new(bus.clone(), "log", w.event_schema()).unwrap();
    let len = records.min(65_536);
    let start = (records - len).min(1_000);
    // ad_id, event_type, event_time: what the Yahoo query keeps.
    let projection = [2, 4, 5];
    g.throughput(Throughput::Elements(len));
    g.bench_function("read_projected_64k", |b| {
        b.iter(|| source.read_partition_projected(0, start, start + len, Some(&projection)).unwrap())
    });
    g.bench_function("read_full_64k", |b| {
        b.iter(|| source.read_partition(0, start, start + len).unwrap())
    });
    g.bench_function("read_rows_64k", |b| {
        b.iter(|| bus.read("log", 0, start, len as usize).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_filter,
    bench_project,
    bench_hash_aggregate,
    bench_hash_join,
    bench_state_store,
    bench_wal,
    bench_bus
);
criterion_main!(benches);
