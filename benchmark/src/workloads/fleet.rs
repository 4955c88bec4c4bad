//! `fleet_shared`: eight SQL queries over the Yahoo topic on one
//! `MultiQueryEngine`, in three sharing groups.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ss_bus::{MemorySink, MessageBus};
use ss_common::{Result, SchemaRef, Value};
use ss_multi::{MultiQueryConfig, MultiQueryEngine, QuerySpec};
use ss_plan::OutputMode;

use super::yahoo::{self, engine_config, sink_table, SERIAL};
use super::{diff_tables, discard, invalid, timed_setups, Env, Report};
use crate::clock::now_us;
use crate::gen::{Yahoo, AD_TYPES};
use crate::{oracle, stats, trace};

/// `HAVING COUNT(*) >` this: about half of the full-size groups pass.
const HAVING_MORE_THAN: i64 = 1_300;

/// What a query's sink must hold, and where in its rows.
#[derive(Clone, Copy)]
enum Expect {
    /// `(window_start, campaign_id, views)`.
    Campaigns,
    /// Same columns, groups with more than [`HAVING_MORE_THAN`] views.
    CampaignsHaving,
    /// `(campaign_id, window_start, 2 × views)`.
    CampaignsDoubled,
    /// `(window_start, ad_type, views)` on 1 min windows.
    AdTypes,
}

struct FleetQuery {
    name: &'static str,
    sql: String,
    mode: OutputMode,
    expect: Expect,
}

/// Four spellings of the Yahoo query (one Update group), two Complete
/// variants with different stateless suffixes on the same aggregation
/// (one group), two spellings of a per-ad-type count (one group).
fn queries() -> Vec<FleetQuery> {
    let yahoo = |select: &str, on: &str, filter: &str, tail: &str| {
        format!(
            "SELECT {select} FROM events JOIN campaigns ON {on} WHERE {filter} \
             GROUP BY WINDOW(event_time, '10 seconds'), campaign_id{tail}"
        )
    };
    let ad_type = |alias: &str, filter: &str| {
        format!(
            "SELECT window_start, ad_type, COUNT(*) AS {alias} FROM events WHERE {filter} \
             GROUP BY WINDOW(event_time, '1 minute'), ad_type"
        )
    };
    let views = "window_start, campaign_id, COUNT(*) AS views";
    let (on, mirrored_on) = ("ad_id = c_ad_id", "c_ad_id = ad_id");
    let (filter, mirrored_filter) = ("event_type = 'view'", "'view' = event_type");
    let q = |name, sql, mode, expect| FleetQuery {
        name,
        sql,
        mode,
        expect,
    };
    vec![
        q(
            "q1",
            yahoo(views, on, filter, ""),
            OutputMode::Update,
            Expect::Campaigns,
        ),
        q(
            "q2",
            yahoo(views, mirrored_on, filter, ""),
            OutputMode::Update,
            Expect::Campaigns,
        ),
        q(
            "q3",
            yahoo(views, on, mirrored_filter, ""),
            OutputMode::Update,
            Expect::Campaigns,
        ),
        q(
            "q4",
            yahoo(views, mirrored_on, mirrored_filter, ""),
            OutputMode::Update,
            Expect::Campaigns,
        ),
        q(
            "q5",
            yahoo(
                views,
                on,
                filter,
                &format!(" HAVING COUNT(*) > {HAVING_MORE_THAN}"),
            ),
            OutputMode::Complete,
            Expect::CampaignsHaving,
        ),
        q(
            "q6",
            yahoo(
                "campaign_id, window_start, COUNT(*) * 2 AS doubled",
                on,
                filter,
                "",
            ),
            OutputMode::Complete,
            Expect::CampaignsDoubled,
        ),
        q(
            "q7",
            ad_type("views", filter),
            OutputMode::Update,
            Expect::AdTypes,
        ),
        q(
            "q8",
            ad_type("views", mirrored_filter),
            OutputMode::Update,
            Expect::AdTypes,
        ),
    ]
}

const GROUPS: u64 = 3;

struct Fleet {
    engine: MultiQueryEngine,
    sinks: Vec<Arc<MemorySink>>,
}

/// A fresh engine over the topic with all eight queries parsed and
/// submitted.
fn submit_fleet(env: &Env, bus: &Arc<MessageBus>, fleet: &[FleetQuery]) -> Result<Fleet> {
    let (ctx, _, _) = yahoo::context(env, bus)?;
    let resolver: HashMap<String, (SchemaRef, bool)> = ctx
        .catalog_entries()
        .into_iter()
        .map(|(name, schema, streaming)| (name, (schema, streaming)))
        .collect();
    let config = MultiQueryConfig {
        scan_cache_capacity: 64,
        workers: 1,
        quantum: 100_000,
        engine: engine_config(SERIAL, Some(env.scale.records(yahoo::RECORDS_PER_EPOCH))),
    };
    let engine = MultiQueryEngine::new(ctx, config);
    let mut sinks = Vec::with_capacity(fleet.len());
    for q in fleet {
        let sink = MemorySink::new(q.name);
        env.span(trace::SUBMIT, 0, || {
            engine.submit(QuerySpec {
                name: q.name.to_string(),
                tenant: "bench".to_string(),
                plan: ss_sql::parse_query(&q.sql, &resolver)?,
                output_mode: q.mode,
                sink: env.sink(sink.clone()),
            })
        })?;
        sinks.push(sink);
    }
    Ok(Fleet { engine, sinks })
}

/// `run_until_idle`, tick by tick so that each tick can be timed.
fn drain_fleet(env: &Env, engine: &MultiQueryEngine) -> Result<(f64, Vec<f64>)> {
    let started = Instant::now();
    let mut tick_ms = Vec::new();
    for tick in 1..=10_000 {
        let tick_start = now_us();
        let report = engine.tick()?;
        if let Some(rec) = &env.rec {
            rec.record(trace::TICK, tick, tick_start, report.rows, 0);
        }
        if report.epochs == 0 && report.skipped == 0 {
            return Ok((started.elapsed().as_secs_f64(), tick_ms));
        }
        tick_ms.push((now_us() - tick_start) as f64 / 1e3);
    }
    Err(invalid("fleet still busy after 10000 ticks"))
}

fn check(
    report: &mut Report,
    q: &FleetQuery,
    sink: &MemorySink,
    want: &oracle::YahooOracle,
) -> Result<()> {
    let campaigns = yahoo::campaign_oracle(want).into_iter();
    let (got, want): (_, BTreeMap<(i64, Value), i64>) = match q.expect {
        Expect::Campaigns => (sink_table(sink, 0, 1, 2)?, campaigns.collect()),
        Expect::CampaignsHaving => (
            sink_table(sink, 0, 1, 2)?,
            campaigns.filter(|&(_, n)| n > HAVING_MORE_THAN).collect(),
        ),
        Expect::CampaignsDoubled => (
            sink_table(sink, 1, 0, 2)?,
            campaigns.map(|(k, n)| (k, 2 * n)).collect(),
        ),
        Expect::AdTypes => (
            sink_table(sink, 0, 1, 2)?,
            want.by_ad_type
                .iter()
                .map(|(&(w, t), &n)| ((w, Value::str(AD_TYPES[t])), n))
                .collect(),
        ),
    };
    if let Some(diff) = diff_tables(q.name, &got, &want) {
        report.fail(diff);
    }
    Ok(())
}

pub fn run(env: &Env) -> Result<Report> {
    const WORKLOAD: &str = "fleet_shared";
    let gen = Yahoo::new(env.seed);
    let per_partition = env.scale.records(yahoo::PER_PARTITION);
    let topic_records = per_partition * u64::from(yahoo::PARTITIONS);
    let want = oracle::yahoo(&gen, yahoo::PARTITIONS, per_partition);
    let fleet = queries();
    let mut report = Report::new();

    let bus = timed_setups(
        env,
        &mut report.setup_s,
        || Ok(()),
        |()| {
            let bus = yahoo::preload_topic(env, &gen)?;
            submit_fleet(env, &bus, &fleet)?;
            Ok(bus)
        },
        discard,
    )?;
    if !env.scale.smoke {
        drain_fleet(env, &submit_fleet(env, &bus, &fleet)?.engine)?;
    }
    if let Some(rec) = &env.rec {
        rec.take(); // the trace starts after the warm-up
    }

    let (mut timed, mut groups, mut fanned, mut fleet_state) = (0.0, 0, 0, 0);
    while timed < env.scale.seconds {
        let f = submit_fleet(env, &bus, &fleet)?;
        let (seconds, tick_ms) = drain_fleet(env, &f.engine)?;
        timed += seconds;
        report.attempted += topic_records;
        report.throughput_rps.push(topic_records as f64 / seconds);
        report.latency_ms.extend(tick_ms);
        for (q, sink) in fleet.iter().zip(&f.sinks) {
            check(&mut report, q, sink, &want)?;
        }
        // Sharing is part of the contract: three groups, and every
        // offset range read from the bus exactly once.
        let stats = f.engine.stats();
        groups = stats.groups;
        fanned = stats.scan.fanned_rows;
        fleet_state = f.engine.state_bytes();
        if stats.groups != GROUPS || stats.queries != fleet.len() as u64 {
            report.fail(format!(
                "{} queries in {} groups, want 8 in {GROUPS}",
                stats.queries, stats.groups
            ));
        }
        if stats.scan.underlying_rows == topic_records {
            report.delivered += topic_records;
        } else {
            report.fail(format!(
                "the bus was read for {} rows, the topic holds {topic_records}",
                stats.scan.underlying_rows
            ));
        }
        if env.scale.smoke {
            break;
        }
    }
    report.notes.push(format!(
        "{} drains of {topic_records} records by 8 queries in {groups} groups, {} ticks",
        report.throughput_rps.len(),
        report.latency_ms.len()
    ));

    if let Some(trace) = super::finish_trace(env, WORKLOAD)? {
        // One query alone, for what sharing saves in state.
        let single = submit_fleet(env, &bus, &fleet[..1])?;
        drain_fleet(env, &single.engine)?;
        let layers = &mut report.layers;
        let ticks: Vec<&trace::Span> = trace.named(trace::TICK).filter(|s| s.rows > 0).collect();
        let epochs = ticks.len() as f64 * GROUPS as f64;
        super::boundary_layers(layers, &trace, epochs);
        let reads = trace.total_rows(trace::SOURCE_READ);
        let drains = report.throughput_rps.len() as f64;
        layers.set(
            "bus.scan_underlying_ratio",
            reads as f64 / (drains * topic_records as f64),
        );
        layers.set("bus.scan_fanned_rows", fanned as f64);
        layers.set(
            "multi.fanout_commit_us_p50",
            stats::median(&trace.durations_us(trace::SINK_COMMIT)),
        );
        layers.set(
            "multi.submit_us_per_query",
            stats::median(&trace.durations_us(trace::SUBMIT)),
        );
        layers.set(
            "multi.tick_us_p50",
            stats::median(&trace.durations_us(trace::TICK)),
        );
        layers.set("multi.groups", groups as f64);
        layers.set(
            "multi.state_bytes_vs_single",
            fleet_state as f64 / single.engine.state_bytes().max(1) as f64,
        );
        layers.set("core.epochs", epochs);
        layers.set(
            "core.rows_per_epoch_p50",
            stats::median(
                &ticks
                    .iter()
                    .map(|s| s.rows as f64 / GROUPS as f64)
                    .collect::<Vec<_>>(),
            ),
        );
    }
    Ok(report)
}
