//! **Figure 7** — continuous processing latency vs. input rate (§9.3).
//!
//! Paper (4-core server, map job from Kafka): continuous mode holds
//! single-digit-millisecond latency until the input rate approaches
//! its maximum throughput (< 10 ms at half the microbatch max), then
//! latency explodes as the system saturates; the dashed line marks
//! microbatch mode's maximum stable throughput, whose end-to-end
//! latency is trigger-bound (100s of ms).
//!
//! The continuous workers run the microbatch path's own operators over
//! each poll, so the drain capacity is of the same order as the
//! microbatch drain rate, as in the paper. The reproduction target is
//! the *latency curve shape*: flat low-millisecond latency at low
//! rates, blow-up near saturation, and a huge gap to microbatch
//! latency. We therefore sweep rates relative to the *measured
//! continuous capacity*.
//!
//! Usage: `cargo bench -p ss-bench --bench fig7_continuous`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_baselines::workload::YahooWorkload;
use ss_bench::*;
use ss_bus::{BusSource, MemorySink, MessageBus};
use ss_common::Row;
use ss_core::continuous::{percentile, ContinuousConfig, ContinuousQuery, RecordSink};
use ss_core::prelude::*;
use ss_core::StreamingContext;

fn map_plan(
    workload: &YahooWorkload,
    ctx: &StreamingContext,
    bus: Arc<MessageBus>,
) -> ss_core::DataFrame {
    let events = ctx
        .read_source(Arc::new(
            BusSource::new(bus, "ad-events", workload.event_schema()).unwrap(),
        ))
        .unwrap();
    events
        .filter(col("event_type").eq(ss_expr::lit("view")))
        .select(vec![col("ad_id"), col("event_time")])
}

fn counting_sink(counter: Arc<AtomicU64>) -> RecordSink {
    Arc::new(move |_p, _row| {
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })
}

fn start_query(
    workload: &YahooWorkload,
    bus: Arc<MessageBus>,
    sink: RecordSink,
    record_latency: bool,
) -> ContinuousQuery {
    let ctx = StreamingContext::new();
    let df = map_plan(workload, &ctx, bus.clone());
    ContinuousQuery::start(
        &df.plan(),
        bus,
        "ad-events",
        sink,
        None,
        ContinuousConfig {
            record_latency,
            idle_sleep: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .expect("continuous query")
}

/// Drain throughput of the continuous engine (capacity probe; the
/// producer is not running, so this is an upper bound on sustainable
/// rate).
fn continuous_capacity(workload: &YahooWorkload, pool: &[Row]) -> f64 {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("ad-events", 1).unwrap();
    let n = 300_000usize;
    for chunk in (0..n).collect::<Vec<_>>().chunks(8192) {
        bus.append_at(
            "ad-events",
            0,
            0,
            chunk.iter().map(|&i| pool[i % pool.len()].clone()),
        )
        .unwrap();
    }
    let processed = Arc::new(AtomicU64::new(0));
    let q = start_query(workload, bus, counting_sink(processed.clone()), false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(60);
    while (q.processed() as usize) < n {
        assert!(Instant::now() < deadline, "capacity probe stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let rate = n as f64 / start.elapsed().as_secs_f64();
    q.stop().unwrap();
    rate
}

/// Run at a target rate for `duration`; returns sorted latencies (µs).
fn latency_at_rate(
    workload: &YahooWorkload,
    pool: &[Row],
    rate: u64,
    duration: Duration,
) -> (u64, Vec<i64>) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("ad-events", 1).unwrap();
    let processed = Arc::new(AtomicU64::new(0));
    let q = start_query(workload, bus.clone(), counting_sink(processed), true);

    // Paced producer: appends pre-generated rows (cheap clones) in
    // ~2 ms batches.
    let start = Instant::now();
    let mut produced = 0u64;
    let mut pool_i = 0usize;
    while start.elapsed() < duration {
        let target = (start.elapsed().as_secs_f64() * rate as f64) as u64;
        while produced < target {
            let n = ((target - produced) as usize).min(2048);
            bus.append(
                "ad-events",
                0,
                (0..n).map(|k| pool[(pool_i + k) % pool.len()].clone()),
            )
            .unwrap();
            pool_i = (pool_i + n) % pool.len();
            produced += n as u64;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Let the worker drain the tail.
    let deadline = Instant::now() + Duration::from_secs(30);
    while q.processed() < produced && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let latencies = q.stop().expect("clean stop");
    (produced, latencies)
}

fn main() {
    let workload = YahooWorkload::default();
    let secs_per_point = std::env::var("SS_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3u64);
    let duration = Duration::from_secs(secs_per_point);
    // Pre-generate the event pool so producing is a cheap clone, not a
    // generator call — on one core the producer must not crowd out the
    // worker.
    let pool: Vec<Row> = (0..65_536).map(|o| workload.event(0, o)).collect();

    println!("== Figure 7: continuous processing latency vs. input rate ==\n");

    // The dashed line: microbatch maximum drain throughput on the same
    // map-only pipeline.
    let per_partition = records_per_partition(200_000);
    let micro_max = {
        let bus = preload_bus(&workload, 1, per_partition).expect("bus");
        let ctx = StreamingContext::new();
        let df = map_plan(&workload, &ctx, bus.clone());
        let sink = MemorySink::new("out");
        let mut q = df
            .write_stream()
            .output_mode(OutputMode::Append)
            .sink(sink)
            .start_sync()
            .expect("microbatch query");
        let t0 = Instant::now();
        q.process_available().expect("drain");
        per_partition as f64 / t0.elapsed().as_secs_f64()
    };
    println!("microbatch max throughput (dashed line): {}", fmt_rate(micro_max));

    // Continuous capacity on this machine (single core, shared with
    // the producer during the sweep).
    let cont_max = continuous_capacity(&workload, &pool);
    println!("continuous drain capacity:               {}\n", fmt_rate(cont_max));

    // Microbatch end-to-end latency at a 100 ms trigger, for contrast.
    let micro_latency_ms = {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("ad-events", 1).unwrap();
        let ctx = StreamingContext::new();
        let df = map_plan(&workload, &ctx, bus.clone());
        let sink = MemorySink::new("out");
        let mut q = df
            .write_stream()
            .output_mode(OutputMode::Append)
            .sink(sink)
            .start_sync()
            .unwrap();
        bus.append("ad-events", 0, pool.iter().take(1000).cloned()).unwrap();
        let t = Instant::now();
        q.process_available().unwrap();
        100.0 + t.elapsed().as_secs_f64() * 1000.0
    };

    let mut rows = Vec::new();
    for frac in [0.05, 0.1, 0.25, 0.5, 0.75] {
        let rate = (cont_max * frac) as u64;
        let (produced, lat) = latency_at_rate(&workload, &pool, rate, duration);
        let p = |q: f64| {
            percentile(&lat, q)
                .map(|us| format!("{:.2} ms", us as f64 / 1000.0))
                .unwrap_or_else(|| "-".into())
        };
        rows.push(vec![
            format!("{:.0}% of capacity ({})", frac * 100.0, fmt_rate(rate as f64)),
            format!("{produced}"),
            p(0.5),
            p(0.95),
            p(0.99),
        ]);
    }
    rows.push(vec![
        "microbatch @100ms trigger".to_string(),
        "1000".into(),
        format!("{micro_latency_ms:.0} ms"),
        "-".into(),
        "-".into(),
    ]);
    print_table(&["input rate", "records", "p50", "p95", "p99"], &rows);
    println!(
        "\npaper shape: flat single-digit-ms latency at low rates, blow-up near \
         saturation; microbatch latency is trigger-bound (100s of ms). On this 1-core \
         machine the producer and worker timeshare, so absolute capacity is below the \
         paper's multi-core testbed."
    );
}
