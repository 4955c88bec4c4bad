//! `yahoo_drain` and `yahoo_exchange`: the Fig. 6a query drained from a
//! preloaded topic, serial and through the exchange.

use std::collections::BTreeMap;
use std::sync::Arc;

use ss_bus::{BusSource, MemorySink, MessageBus};
use ss_common::{Result, Value};
use ss_core::prelude::*;
use ss_state::MemoryBackend;

use super::{diff_tables, discard, drain, invalid, preload, timed_setups, Env, EpochLog, Report};
use crate::gen::Yahoo;
use crate::oracle;
use crate::{stats, trace};

pub const PARTITIONS: u32 = 8;
pub const PER_PARTITION: u64 = 250_000;
/// One partition's worth per epoch: 8 epochs per drain.
pub const RECORDS_PER_EPOCH: u64 = 250_000;

/// How the epochs execute.
#[derive(Clone, Copy)]
pub struct Execution {
    pub parallelism: usize,
    pub shuffle_partitions: usize,
}

pub const SERIAL: Execution = Execution {
    parallelism: 1,
    shuffle_partitions: 1,
};
pub const EXCHANGE: Execution = Execution {
    parallelism: 2,
    shuffle_partitions: 4,
};

/// Every engine option the workload depends on, spelled out.
pub fn engine_config(execution: Execution, records_per_epoch: Option<u64>) -> MicroBatchConfig {
    MicroBatchConfig {
        max_records_per_trigger: records_per_epoch,
        adaptive_batching: false,
        checkpoint_interval: 1,
        parallelism: execution.parallelism,
        shuffle_partitions: execution.shuffle_partitions,
        epoch_deadline: None,
        rate_controller: None,
        min_epochs_to_retain: None,
        ..MicroBatchConfig::default()
    }
}

pub fn preload_topic(env: &Env, gen: &Yahoo) -> Result<Arc<MessageBus>> {
    let bus = Arc::new(MessageBus::new());
    let per_partition = env.scale.records(PER_PARTITION);
    preload(&bus, Yahoo::TOPIC, PARTITIONS, per_partition, |p, o| {
        gen.event(p, o, 0)
    })?;
    Ok(bus)
}

/// A context with the topic and the static campaign table registered.
pub fn context(
    env: &Env,
    bus: &Arc<MessageBus>,
) -> Result<(StreamingContext, DataFrame, DataFrame)> {
    let ctx = StreamingContext::new();
    let source = BusSource::new(bus.clone(), Yahoo::TOPIC, Yahoo::schema())?;
    let events = ctx.read_source(env.source(Arc::new(source)))?;
    let campaigns = ctx.read_table("campaigns", vec![Yahoo::campaign_batch()])?;
    Ok((ctx, events, campaigns))
}

/// Filter views → project → join the static campaigns → count per
/// campaign per 10 s window, Update mode, in-memory checkpoints.
fn start_query(
    env: &Env,
    bus: &Arc<MessageBus>,
    execution: Execution,
    log: &Arc<EpochLog>,
) -> Result<(StreamingQuery, Arc<MemorySink>)> {
    let (_ctx, events, campaigns) = context(env, bus)?;
    let counts = events
        .filter(col("event_type").eq(lit("view")))
        .select(vec![col("ad_id"), col("event_time")])
        .join(
            &campaigns,
            JoinType::Inner,
            vec![(col("ad_id"), col("c_ad_id"))],
        )
        .group_by(vec![
            window(col("event_time"), "10 seconds")?,
            col("campaign_id"),
        ])
        .count();
    let sink = MemorySink::new("yahoo-counts");
    let writer = counts
        .write_stream()
        .query_name("yahoo")
        .output_mode(OutputMode::Update)
        .sink(env.sink(sink.clone()))
        .checkpoint(env.backend(Arc::new(MemoryBackend::new())))
        .engine_config(engine_config(
            execution,
            Some(env.scale.records(RECORDS_PER_EPOCH)),
        ));
    let mut query = env.span(trace::START, 0, || writer.start_sync())?;
    query.add_listener(log.clone());
    Ok((query, sink))
}

/// `(window_start, key) → value` from a sink's rows, given the three
/// columns' positions.
pub fn sink_table(
    sink: &MemorySink,
    window: usize,
    key: usize,
    value: usize,
) -> Result<BTreeMap<(i64, Value), i64>> {
    let mut out = BTreeMap::new();
    for row in sink.snapshot() {
        let (Value::Timestamp(w), Some(n)) = (row.get(window).clone(), row.get(value).as_i64()?)
        else {
            return Err(invalid(format!("unexpected sink row {row}")));
        };
        out.insert((w, row.get(key).clone()), n);
    }
    Ok(out)
}

pub fn campaign_oracle(o: &oracle::YahooOracle) -> BTreeMap<(i64, Value), i64> {
    o.by_campaign
        .iter()
        .map(|(&(w, c), &n)| ((w, Value::Int64(c)), n))
        .collect()
}

pub fn run(env: &Env, workload: &'static str, execution: Execution) -> Result<Report> {
    let gen = Yahoo::new(env.seed);
    let per_partition = env.scale.records(PER_PARTITION);
    let topic_records = per_partition * u64::from(PARTITIONS);
    let want = campaign_oracle(&oracle::yahoo(&gen, PARTITIONS, per_partition));
    let mut report = Report::new();

    let warmup_log = EpochLog::new();
    let bus = timed_setups(
        env,
        &mut report.setup_s,
        || Ok(()),
        |()| {
            let bus = preload_topic(env, &gen)?;
            start_query(env, &bus, execution, &warmup_log)?;
            Ok(bus)
        },
        discard,
    )?;
    for _ in 0..if env.scale.smoke { 1 } else { 2 } {
        let (mut query, _) = start_query(env, &bus, execution, &warmup_log)?;
        drain(env, &mut query)?;
    }
    if let Some(rec) = &env.rec {
        rec.take(); // the trace starts after the warm-up
    }

    let log = EpochLog::new();
    let (mut timed, mut queue_wait_us) = (0.0, Vec::new());
    while timed < env.scale.seconds {
        let (mut query, sink) = start_query(env, &bus, execution, &log)?;
        let d = drain(env, &mut query)?;
        timed += d.seconds;
        report.attempted += topic_records;
        report.delivered += d.rows;
        report.throughput_rps.push(d.rows as f64 / d.seconds);
        report.latency_ms.extend(d.epoch_ms);
        // Rows are `(window_start, window_end, campaign_id, count)`.
        if let Some(diff) = diff_tables(workload, &sink_table(&sink, 0, 2, 3)?, &want) {
            report.fail(diff);
        }
        if env.traced() {
            let waits = query.metrics().snapshot().into_iter().filter_map(|s| {
                match (s.name.as_str(), s.value) {
                    ("ss_task_queue_wait_us", ss_common::MetricValue::Gauge(us)) => Some(us as f64),
                    _ => None,
                }
            });
            queue_wait_us.push(waits.fold(0.0, f64::max));
        }
        if env.scale.smoke {
            break;
        }
    }
    report.notes.push(format!(
        "{} drains of {topic_records} records, {} epochs",
        report.throughput_rps.len(),
        report.latency_ms.len()
    ));

    if let Some(trace) = super::finish_trace(env, workload)? {
        let log = log.snapshot();
        super::core_layers(&mut report.layers, &trace, &log);
        report
            .layers
            .set("sched.queue_wait_us", stats::median(&queue_wait_us));
    }
    Ok(report)
}
