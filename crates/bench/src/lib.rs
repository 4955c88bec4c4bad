//! # ss-bench — the evaluation harness (§9)
//!
//! Shared machinery for the figure-regenerating benchmark binaries in
//! `benches/`. Each binary prints the corresponding figure's series as
//! a table; `EXPERIMENTS.md` records paper-reported vs. measured.
//!
//! All engines consume the *same* pre-populated bus topic of
//! deterministically generated Yahoo! benchmark events, and every run
//! returns its result table so the harness can assert the three
//! engines agree before timing anything.

use std::sync::Arc;
use std::time::Instant;

use ss_baselines::workload::{BenchCounts, YahooWorkload};
use ss_baselines::{flink_like, kstreams_like};
use ss_bus::{BusSource, MemorySink, MessageBus};
use ss_common::{Result, Row, Value};
use ss_core::prelude::*;
use ss_core::StreamingContext;

/// How many events to preload per partition (override with the
/// `SS_BENCH_RECORDS` environment variable).
pub fn records_per_partition(default: u64) -> u64 {
    std::env::var("SS_BENCH_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A measured throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputRun {
    pub system: String,
    pub records: u64,
    pub seconds: f64,
    pub counts: BenchCounts,
}

impl ThroughputRun {
    pub fn records_per_second(&self) -> f64 {
        self.records as f64 / self.seconds
    }
}

/// Create a bus with the benchmark topic preloaded:
/// `partitions × per_partition` events.
pub fn preload_bus(
    workload: &YahooWorkload,
    partitions: u32,
    per_partition: u64,
) -> Result<Arc<MessageBus>> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("ad-events", partitions)?;
    for p in 0..partitions {
        // Append in chunks to bound peak memory.
        let mut start = 0u64;
        while start < per_partition {
            let end = (start + 65_536).min(per_partition);
            bus.append_at(
                "ad-events",
                p,
                0,
                (start..end).map(|o| workload.event(p, o)),
            )?;
            start = end;
        }
    }
    Ok(bus)
}

/// Build the Yahoo! benchmark query as a Structured Streaming
/// DataFrame over a preloaded bus, returning `(query, sink)`.
pub fn build_ss_yahoo_query(
    workload: &YahooWorkload,
    bus: Arc<MessageBus>,
) -> Result<(ss_core::StreamingQuery, Arc<MemorySink>)> {
    let ctx = StreamingContext::new();
    let events = ctx.read_source(Arc::new(BusSource::new(
        bus,
        "ad-events",
        workload.event_schema(),
    )?))?;
    let campaigns = ctx.read_table("campaigns", vec![workload.campaign_batch()])?;
    // The benchmark query: filter views, join the static campaign
    // table, count per campaign per 10 s event-time window. Pure
    // DataFrame ops, no UDFs (§9.1).
    let counts = events
        .filter(col("event_type").eq(ss_expr::lit("view")))
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
    let query = counts
        .write_stream()
        .query_name("yahoo")
        .output_mode(OutputMode::Update)
        .sink(sink.clone())
        .start_sync()?;
    Ok((query, sink))
}

/// Convert the Structured Streaming sink contents to canonical
/// comparable counts.
pub fn sink_to_counts(sink: &MemorySink) -> BenchCounts {
    let mut counts = BenchCounts::new();
    for row in sink.snapshot() {
        let window_start = match row.get(0) {
            Value::Timestamp(t) => *t,
            other => panic!("unexpected window_start {other}"),
        };
        let campaign = row.get(2).as_i64().unwrap().unwrap();
        let n = row.get(3).as_i64().unwrap().unwrap();
        counts.insert((campaign, window_start), n);
    }
    counts
}

/// Timed Structured Streaming run over a preloaded topic.
pub fn run_structured_streaming(
    workload: &YahooWorkload,
    bus: Arc<MessageBus>,
    total_records: u64,
) -> Result<ThroughputRun> {
    let (mut query, sink) = build_ss_yahoo_query(workload, bus)?;
    let start = Instant::now();
    query.process_available()?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(ThroughputRun {
        system: "Structured Streaming".into(),
        records: total_records,
        seconds,
        counts: sink_to_counts(&sink),
    })
}

/// Timed Flink-style run over the same topic.
pub fn run_flink_like(
    workload: &YahooWorkload,
    bus: &MessageBus,
    total_records: u64,
) -> Result<ThroughputRun> {
    let start = Instant::now();
    let job = flink_like::run_from_bus(bus, "ad-events", workload, total_records)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(ThroughputRun {
        system: "Flink-like (record-at-a-time)".into(),
        records: total_records,
        seconds,
        counts: job.counts(),
    })
}

/// Timed Kafka-Streams-style run over the same topic.
pub fn run_kstreams_like(
    workload: &YahooWorkload,
    bus: &MessageBus,
    total_records: u64,
) -> Result<ThroughputRun> {
    let start = Instant::now();
    let job = kstreams_like::run_from_bus(bus, "ad-events", workload, total_records)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(ThroughputRun {
        system: "Kafka-Streams-like (bus-coupled)".into(),
        records: total_records,
        seconds,
        counts: job.counts(),
    })
}

/// Row-at-a-time interpretation of the Yahoo pipeline *inside* the
/// vectorized engine's data structures — the ablation isolating what
/// vectorized execution buys (E6). Uses the per-row expression
/// evaluator the kernels are checked against (`evaluate_row`).
pub fn run_row_at_a_time(
    workload: &YahooWorkload,
    bus: &MessageBus,
    total_records: u64,
) -> Result<ThroughputRun> {
    use rustc_hash::FxHashMap;
    use ss_expr::eval::evaluate_row;

    let schema = workload.event_schema();
    let pred = col("event_type").eq(ss_expr::lit("view"));
    let campaigns = workload.campaign_map();
    let mut counts: FxHashMap<(i64, i64), i64> = FxHashMap::default();
    let partitions = bus.num_partitions("ad-events")?;
    let start = Instant::now();
    let mut consumed = 0u64;
    let mut offsets = vec![0u64; partitions as usize];
    while consumed < total_records {
        let mut progressed = false;
        for p in 0..partitions {
            let records = bus.read("ad-events", p, offsets[p as usize], 4096)?;
            for rec in records {
                progressed = true;
                offsets[p as usize] = rec.offset + 1;
                consumed += 1;
                let row: &Row = &rec.row;
                if evaluate_row(&pred, &schema, row)?.as_bool()? != Some(true) {
                    continue;
                }
                let ad = row.get(2).as_i64()?.unwrap_or(-1);
                let Some(&campaign) = campaigns.get(&ad) else { continue };
                let t = row.get(5).as_i64()?.unwrap_or(0);
                let win = t.div_euclid(workload.window_us) * workload.window_us;
                *counts.entry((campaign, win)).or_insert(0) += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok(ThroughputRun {
        system: "row-at-a-time interpretation".into(),
        records: consumed,
        seconds,
        counts: counts.into_iter().collect(),
    })
}

/// Render a markdown-ish results table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Human-readable throughput.
pub fn fmt_rate(records_per_second: f64) -> String {
    if records_per_second >= 1e6 {
        format!("{:.2} M rec/s", records_per_second / 1e6)
    } else if records_per_second >= 1e3 {
        format!("{:.0} K rec/s", records_per_second / 1e3)
    } else {
        format!("{records_per_second:.0} rec/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_agree_on_small_input() {
        let w = YahooWorkload::default();
        let per_partition = 3_000u64;
        let partitions = 2u32;
        let total = per_partition * partitions as u64;
        let bus = preload_bus(&w, partitions, per_partition).unwrap();
        let reference = w.reference_counts(partitions, per_partition);

        let ss = run_structured_streaming(&w, bus.clone(), total).unwrap();
        assert_eq!(ss.counts, reference, "structured streaming");
        let fl = run_flink_like(&w, &bus, total).unwrap();
        assert_eq!(fl.counts, reference, "flink-like");
        let ks = run_kstreams_like(&w, &bus, total).unwrap();
        assert_eq!(ks.counts, reference, "kstreams-like");
        let ra = run_row_at_a_time(&w, &bus, total).unwrap();
        assert_eq!(ra.counts, reference, "row-at-a-time");
    }

    #[test]
    fn records_env_override() {
        assert_eq!(records_per_partition(42), 42);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(2_500_000.0), "2.50 M rec/s");
        assert_eq!(fmt_rate(2_500.0), "2 K rec/s"); // rounded
        assert_eq!(fmt_rate(42.0), "42 rec/s");
    }
}
