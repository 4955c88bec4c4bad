//! `continuous_paced`: the continuous engine (§6.3, Fig. 7) on a
//! map-only plan over one partition, fed open-loop at a frozen rate.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ss_bus::{BusSource, MessageBus};
use ss_common::clock::system_clock;
use ss_common::{FaultRegistry, Result, Row};
use ss_core::continuous::{ContinuousConfig, ContinuousQuery, RecordSink};
use ss_core::prelude::*;
use ss_state::MemoryBackend;

use super::{invalid, run_pacer, timed_setups, wait_until, Env, Pace, Report};
use crate::clock::now_us;
use crate::gen::Yahoo;
use crate::{oracle, stats, trace};

/// The paced rate, records/s: 25 % of the continuous engine's drain
/// capacity on this plan, measured once on the reference box when this
/// benchmark was defined, to two significant digits. Frozen.
pub const PACED_RATE: u64 = 570_000;
pub const TICK_US: i64 = 1_000;
pub const EPOCH_INTERVAL_US: i64 = 100_000;

/// What the record sink saw: the projected views, checksummed, and
/// each one's latency (`now − created_us`) with its creation time.
#[derive(Default)]
struct Seen {
    views: u64,
    ad_id_sum: u64,
    event_time_sum: u64,
    latencies: Vec<(i64, i64)>,
}

fn record_sink(seen: &Arc<Mutex<Seen>>) -> RecordSink {
    let seen = seen.clone();
    Arc::new(move |_partition: u32, row: Row| {
        let now = now_us();
        let field = |i: usize| {
            row.get(i)
                .as_i64()?
                .ok_or_else(|| invalid(format!("continuous sink: NULL in {row}")))
        };
        let (ad_id, event_time, created) = (field(0)?, field(1)?, field(2)?);
        let mut seen = seen.lock().expect("record sink lock");
        seen.views += 1;
        seen.ad_id_sum = seen.ad_id_sum.wrapping_add(ad_id as u64);
        seen.event_time_sum = seen.event_time_sum.wrapping_add(event_time as u64);
        seen.latencies.push((created, now - created));
        Ok(())
    })
}

/// Filter views → project `ad_id, event_time, created_us`, one
/// long-lived worker on the topic's single partition, epoch markers to
/// an in-memory WAL every 100 ms.
fn start_query(
    env: &Env,
    bus: &Arc<MessageBus>,
    seen: &Arc<Mutex<Seen>>,
) -> Result<ContinuousQuery> {
    let ctx = StreamingContext::new();
    let source = BusSource::new(bus.clone(), Yahoo::TOPIC, Yahoo::schema())?;
    let plan = ctx
        .read_source(Arc::new(source))?
        .filter(col("event_type").eq(lit("view")))
        .select(vec![col("ad_id"), col("event_time"), col("created_us")])
        .plan();
    let config = ContinuousConfig {
        epoch_interval_us: EPOCH_INTERVAL_US,
        poll_batch: 256,
        idle_sleep: Duration::from_micros(100),
        record_latency: false,
        faults: FaultRegistry::new(),
        clock: system_clock(),
    };
    let wal = env.backend(Arc::new(MemoryBackend::new()));
    env.span(trace::START, 0, || {
        ContinuousQuery::start(
            &plan,
            bus.clone(),
            Yahoo::TOPIC,
            record_sink(seen),
            Some(wal),
            config,
        )
    })
}

pub fn run(env: &Env) -> Result<Report> {
    const WORKLOAD: &str = "continuous_paced";
    let gen = Yahoo::new(env.seed);
    let rate = env.scale.records(PACED_RATE);
    let pace = Pace::new(
        rate,
        1,
        TICK_US,
        0.15 * env.scale.seconds,
        env.scale.seconds,
    );
    let mut report = Report::new();
    report.attempted = pace.total();

    let (bus, seen, query) = timed_setups(
        env,
        &mut report.setup_s,
        || Ok(()),
        |()| {
            let bus = Arc::new(MessageBus::new());
            bus.create_topic(Yahoo::TOPIC, 1)?;
            let seen = Arc::new(Mutex::new(Seen::default()));
            let query = start_query(env, &bus, &seen)?;
            Ok((bus, seen, query))
        },
        |(_, _, query)| {
            // No `Drop` stops a continuous query: its threads would poll on.
            query.stop().map(drop)
        },
    )?;
    seen.lock()
        .expect("record sink lock")
        .latencies
        .reserve(pace.total() as usize / 2);

    let paced = run_pacer(
        &bus,
        Yahoo::TOPIC,
        pace,
        0,
        |p, o, due| gen.event(p, o, due),
        || query.processed(),
    )?;
    let caught_up = wait_until(Duration::from_secs(1), || query.processed() >= pace.total());
    report.delivered = query.processed().min(pace.total());
    query.stop()?;

    report.throughput_rps.push(paced.committed_rps);
    let seen = std::mem::take(&mut *seen.lock().expect("record sink lock"));
    report.latency_ms = seen
        .latencies
        .iter()
        .filter(|&&(created, _)| created >= paced.measure_from_us)
        .map(|&(_, latency_us)| latency_us as f64 / 1e3)
        .collect();
    let want = oracle::yahoo(&gen, 1, pace.per_partition());
    let got = (seen.views, seen.ad_id_sum, seen.event_time_sum);
    if caught_up && got != (want.views, want.ad_id_sum, want.event_time_sum) {
        report.fail(format!(
            "{WORKLOAD}: sink saw (views, ad_id sum, event_time sum) = {got:?}, want {:?}",
            (want.views, want.ad_id_sum, want.event_time_sum)
        ));
    }
    let mut lag = paced.lag_ms.clone();
    stats::sort(&mut lag);
    report.notes.push(format!(
        "{} records/s for {:.1} s after {:.1} s settling; {} latency samples; generator lag p95 {:.3} ms",
        pace.per_tick * 1_000_000 / pace.tick_us as u64,
        pace.measure_ticks as f64 * pace.tick_us as f64 / 1e6,
        pace.settle_ticks as f64 * pace.tick_us as f64 / 1e6,
        report.latency_ms.len(),
        stats::quantile(&lag, 0.95),
    ));

    // The continuous engine has no epochs on its data path; the only
    // boundary it crosses is the coordinator's WAL.
    if let Some(trace) = super::finish_trace(env, WORKLOAD)? {
        let layers = &mut report.layers;
        super::paced_layers(layers, &paced, &trace);
        let markers = trace.named(trace::WAL_COMMIT_WRITE).count() as f64;
        super::boundary_layers(layers, &trace, markers);
        layers.set("core.epochs", markers);
        layers.set(
            "core.rows_per_epoch_p50",
            pace.total() as f64 / markers.max(1.0),
        );
        layers.set("bus.sink_rows", seen.views as f64);
    }
    Ok(report)
}
