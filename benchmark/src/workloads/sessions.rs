//! `sessions_drain` and `sessions_paced`: the state-heavy stream —
//! Zipf users × 10 s windows under a 5 s watermark, with late events —
//! drained closed-loop, and paced open-loop on a 25 ms trigger.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ss_bus::{BusSource, EpochOutput, MessageBus, Sink};
use ss_common::Result;
use ss_core::prelude::*;
use ss_state::FsBackend;

use super::yahoo::{engine_config, SERIAL};
use super::{
    diff_tables, discard, drain, invalid, preload, run_pacer, timed_setups, wait_until, Env,
    EpochLog, Pace, Report, TempDir,
};
use crate::clock::now_us;
use crate::gen::Sessions;
use crate::oracle::{self, SessionAgg};
use crate::{stats, trace};

pub const PARTITIONS: u32 = 4;
/// An eighth of the issue's 500 k: the timed section is 10 s, not 20 s,
/// and has to hold several drains at ~150 k records/s.
pub const PER_PARTITION: u64 = 62_500;
/// 40 epochs per drain, 2.5 s of event time each.
pub const RECORDS_PER_EPOCH: u64 = 6_250;
pub const RESTARTS: usize = 5;

/// The paced rate, records/s: 40 % of the `sessions_drain`
/// `throughput_rps` measured on the reference box when this benchmark
/// was defined, to two significant digits. Frozen: never re-derived.
pub const PACED_RATE: u64 = 72_000;
pub const TRIGGER: Duration = Duration::from_millis(25);
pub const TICK_US: i64 = 5_000;

/// The benchmark's own sink for the sessions query: folds each epoch's
/// updated groups into a `(window_start, user_id)` table for the oracle
/// and, on the open loop, takes each emitted row's latency as *commit
/// return time − the group's newest `created_us`*: creation of the last
/// contributing event → emission, queue wait in, window length out.
pub struct TableSink {
    table: Mutex<HashMap<(i64, i64), SessionAgg>>,
    /// `(created_us, latency_us)` per emitted row; `None` on drains.
    latencies: Option<Mutex<Vec<(i64, i64)>>>,
    rows: AtomicU64,
}

impl TableSink {
    pub fn new(collect_latency: bool) -> Arc<TableSink> {
        Arc::new(TableSink {
            table: Mutex::new(HashMap::new()),
            latencies: collect_latency.then(|| Mutex::new(Vec::new())),
            rows: AtomicU64::new(0),
        })
    }

    pub fn table(&self) -> BTreeMap<(i64, i64), SessionAgg> {
        let table = self.table.lock().expect("table lock");
        table.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Make room for `rows` latency samples ahead of the measurement.
    pub fn reserve_latencies(&self, rows: usize) {
        if let Some(l) = &self.latencies {
            l.lock().expect("latency lock").reserve(rows);
        }
    }

    pub fn take_latencies(&self) -> Vec<(i64, i64)> {
        match &self.latencies {
            Some(l) => std::mem::take(&mut *l.lock().expect("latency lock")),
            None => Vec::new(),
        }
    }
}

impl Sink for TableSink {
    fn name(&self) -> &str {
        "sessions-table"
    }

    /// Rows are `(window_start, window_end, user_id, count, sum(bytes),
    /// max(created_us))`; an upsert per group makes replays idempotent.
    fn commit_epoch(&self, _epoch: u64, output: &EpochOutput) -> Result<()> {
        let batch = output.batch();
        if batch.num_columns() != 6 {
            return Err(invalid(format!(
                "sessions sink: {} columns",
                batch.num_columns()
            )));
        }
        let col = |i: usize| Ok::<_, ss_common::SsError>(batch.column(i).as_i64()?.values());
        let (window, user, count, bytes, created) = (col(0)?, col(2)?, col(3)?, col(4)?, col(5)?);
        {
            let mut table = self.table.lock().expect("table lock");
            for i in 0..batch.num_rows() {
                table.insert(
                    (window[i], user[i]),
                    SessionAgg {
                        count: count[i],
                        bytes: bytes[i],
                        max_created_us: created[i],
                    },
                );
            }
        }
        if let Some(latencies) = &self.latencies {
            let now = now_us();
            let mut l = latencies.lock().expect("latency lock");
            l.extend(created.iter().map(|&c| (c, now - c)));
        }
        self.rows
            .fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// `with_watermark(event_time, 5 s)` → group by 10 s window × user →
/// count, sum(bytes), max(created_us); Update mode, checkpoints on a
/// real filesystem every epoch.
fn writer(
    env: &Env,
    bus: &Arc<MessageBus>,
    dir: &TempDir,
    sink: &Arc<TableSink>,
    records_per_epoch: Option<u64>,
) -> Result<DataStreamWriter> {
    let ctx = StreamingContext::new();
    let source = BusSource::new(bus.clone(), Sessions::TOPIC, Sessions::schema())?;
    let sessions = ctx
        .read_source(env.source(Arc::new(source)))?
        .with_watermark("event_time", "5 seconds")?
        .group_by(vec![
            window(col("event_time"), "10 seconds")?,
            col("user_id"),
        ])
        .agg(vec![
            count_star(),
            sum(col("bytes")),
            max(col("created_us")),
        ]);
    Ok(sessions
        .write_stream()
        .query_name("sessions")
        .output_mode(OutputMode::Update)
        .sink(env.sink(sink.clone()))
        .checkpoint(env.backend(Arc::new(FsBackend::new(&dir.0)?)))
        .engine_config(engine_config(SERIAL, records_per_epoch)))
}

fn check_table(
    report: &mut Report,
    workload: &str,
    sink: &TableSink,
    want: &oracle::SessionsOracle,
) {
    let want: BTreeMap<(i64, i64), SessionAgg> = want.table.iter().map(|(k, v)| (*k, *v)).collect();
    if let Some(diff) = diff_tables(workload, &sink.table(), &want) {
        report.fail(diff);
    }
}

pub fn run_drain(env: &Env) -> Result<Report> {
    const WORKLOAD: &str = "sessions_drain";
    let gen = Sessions::new(env.seed);
    let per_partition = env.scale.records(PER_PARTITION);
    let records_per_epoch = env.scale.records(RECORDS_PER_EPOCH);
    let topic_records = per_partition * u64::from(PARTITIONS);
    let want = oracle::sessions(&gen, PARTITIONS, per_partition, |_, _| 0);
    let mut report = Report::new();

    let start =
        |bus: &Arc<MessageBus>, dir: &TempDir, sink: &Arc<TableSink>, log: &Arc<EpochLog>| {
            let writer = writer(env, bus, dir, sink, Some(records_per_epoch))?;
            let mut query = env.span(trace::START, 0, || writer.start_sync())?;
            query.add_listener(log.clone());
            Ok::<_, ss_common::SsError>(query)
        };
    let bus = timed_setups(
        env,
        &mut report.setup_s,
        || TempDir::new(WORKLOAD),
        |dir| {
            let bus = Arc::new(MessageBus::new());
            preload(&bus, Sessions::TOPIC, PARTITIONS, per_partition, |p, o| {
                gen.event(p, o, 0)
            })?;
            start(&bus, &dir, &TableSink::new(false), &EpochLog::new())?;
            Ok(bus)
        },
        discard,
    )?;
    if let Some(rec) = &env.rec {
        rec.take(); // the trace starts after the set-up
    }

    let log = EpochLog::new();
    let mut timed = 0.0;
    let mut last = None;
    while timed < env.scale.seconds {
        drop(last.take()); // one query, sink and directory alive at a time
        let dir = TempDir::new(WORKLOAD)?;
        let sink = TableSink::new(false);
        let mut query = start(&bus, &dir, &sink, &log)?;
        let d = drain(env, &mut query)?;
        timed += d.seconds;
        report.attempted += topic_records;
        report.delivered += d.rows;
        report.throughput_rps.push(d.rows as f64 / d.seconds);
        report.latency_ms.extend(d.epoch_ms);
        check_table(&mut report, WORKLOAD, &sink, &want);
        last = Some((query, dir, sink));
        if env.scale.smoke {
            break;
        }
    }
    report.notes.push(format!(
        "{} drains of {topic_records} records, {} epochs, {} late events dropped per drain",
        report.throughput_rps.len(),
        report.latency_ms.len(),
        want.dropped_late
    ));

    let Some(trace_so_far) = super::finish_trace(env, WORKLOAD)? else {
        return Ok(report);
    };
    let log = log.snapshot();
    super::core_layers(&mut report.layers, &trace_so_far, &log);
    let per_drain_dropped =
        report.layers.get("core.late_dropped_rows") / report.throughput_rps.len() as f64;
    report
        .layers
        .set("core.late_dropped_rows", per_drain_dropped);
    if per_drain_dropped != want.dropped_late as f64 {
        report.fail(format!(
            "watermark dropped {per_drain_dropped} rows per drain, the generator made {} too late",
            want.dropped_late
        ));
    }
    let rows_end = report.layers.get("state.rows_end");
    if !env.scale.smoke && rows_end >= report.layers.get("state.rows_peak") {
        report.fail(format!(
            "state never shrank: {rows_end} rows at the end is the peak"
        ));
    }

    // Recovery: drop the query where it stands (no graceful stop, no
    // sealed manifest) and bring a new one up on the same directory.
    let (query, dir, sink) = last.expect("at least one drain ran");
    let mut query = Some(query);
    let (mut start_ms, mut first_epoch_ms) = (Vec::new(), Vec::new());
    for _ in 0..RESTARTS {
        drop(query.take());
        let t0 = Instant::now();
        let mut restarted = start(&bus, &dir, &sink, &EpochLog::new())?;
        let t1 = Instant::now();
        env.span(trace::EPOCH, 0, || restarted.run_epoch())?;
        start_ms.push((t1 - t0).as_secs_f64() * 1e3);
        first_epoch_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        query = Some(restarted);
    }
    check_table(&mut report, "sessions_drain after restarts", &sink, &want);
    report
        .layers
        .set("core.restart_start_ms", stats::median(&start_ms));
    report.layers.set(
        "core.restart_first_epoch_ms",
        stats::median(&first_epoch_ms),
    );
    let recovery: Vec<f64> = start_ms
        .iter()
        .zip(&first_epoch_ms)
        .map(|(a, b)| a + b)
        .collect();
    report
        .layers
        .set("core.recovery_ms", stats::median(&recovery));
    crate::probes::checkpoint_recovery(&dir.0, &mut report.layers)?;
    Ok(report)
}

pub fn run_paced(env: &Env) -> Result<Report> {
    const WORKLOAD: &str = "sessions_paced";
    let gen = Sessions::new(env.seed);
    let rate = env.scale.records(PACED_RATE);
    let pace = Pace::new(
        rate,
        PARTITIONS,
        TICK_US,
        0.15 * env.scale.seconds,
        env.scale.seconds,
    );
    let mut report = Report::new();
    report.attempted = pace.total();

    // Set-up is a topic and a query started on an empty checkpoint
    // directory; the events are generated as they fall due.
    let (bus, dir, sink, log, query) = timed_setups(
        env,
        &mut report.setup_s,
        || TempDir::new(WORKLOAD),
        |dir| {
            let bus = Arc::new(MessageBus::new());
            bus.create_topic(Sessions::TOPIC, PARTITIONS)?;
            let sink = TableSink::new(true);
            let log = EpochLog::new();
            let writer =
                writer(env, &bus, &dir, &sink, None)?.trigger(Trigger::ProcessingTime(TRIGGER));
            let mut query = env.span(trace::START, 0, || writer.start())?;
            query.add_listener(log.clone());
            Ok((bus, dir, sink, log, query))
        },
        discard,
    )?;

    sink.reserve_latencies(pace.total() as usize);

    // The commit count is exact, its split over the partitions only
    // known to within a tick (an epoch's offsets are snapshotted while
    // a tick is being appended): keep four ticks' worth behind the trim.
    let keep = 4 * pace.per_tick;
    let committed = || log.committed_rows.load(Ordering::Acquire);
    let paced = run_pacer(
        &bus,
        Sessions::TOPIC,
        pace,
        keep,
        |p, o, due| gen.event(p, o, due),
        committed,
    )?;
    let stage_end = Instant::now();
    wait_until(Duration::from_secs(1), || committed() >= pace.total());
    report.delivered = committed().min(pace.total());
    query.stop()?;
    drop(dir);

    report.throughput_rps.push(paced.committed_rps);
    report.latency_ms = sink
        .take_latencies()
        .into_iter()
        .filter(|&(created, _)| created >= paced.measure_from_us)
        .map(|(_, latency_us)| latency_us as f64 / 1e3)
        .collect();
    let want = oracle::sessions(&gen, PARTITIONS, pace.per_partition(), |_, o| {
        pace.created_us(paced.t0_us, o)
    });
    check_table(&mut report, WORKLOAD, &sink, &want);
    let mut lag = paced.lag_ms.clone();
    stats::sort(&mut lag);
    report.notes.push(format!(
        "{} records/s for {:.1} s after {:.1} s settling; {} latency samples; generator lag p95 {:.3} ms; caught up {:.0} ms after the last tick",
        pace.per_tick * u64::from(PARTITIONS) * 1_000_000 / pace.tick_us as u64,
        pace.measure_ticks as f64 * pace.tick_us as f64 / 1e6,
        pace.settle_ticks as f64 * pace.tick_us as f64 / 1e6,
        report.latency_ms.len(),
        stats::quantile(&lag, 0.95),
        stage_end.elapsed().as_secs_f64() * 1e3,
    ));

    let log = log.snapshot();
    if let Some(trace) =
        super::finish_trace_with(env, WORKLOAD, |b| super::background_epochs(&log, b))?
    {
        super::paced_layers(&mut report.layers, &paced, &trace);
        super::core_layers(&mut report.layers, &trace, &log);
        let dropped = report.layers.get("core.late_dropped_rows");
        if dropped != want.dropped_late as f64 {
            report.fail(format!(
                "watermark dropped {dropped} rows, the generator made {} too late",
                want.dropped_late
            ));
        }
    }
    Ok(report)
}
