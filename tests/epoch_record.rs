//! An epoch is described once. The profile and the event log are the
//! only records an epoch writes; the trace is derived from them, so it
//! names every fact the way they do:
//!
//! * inside each `epoch` span, the engine thread's spans are exactly
//!   the top-level profile phases that epoch recorded inside it (all
//!   but `admission`, which decides the epoch, and `finalize`, which
//!   closes it);
//! * every `/events` line has an instant of the same name in `/trace`
//!   whose args are its fields.
//!
//! Both hold at one partition and on the four-partition exchange.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde_json::Value as Json;
use structured_streaming::prelude::*;
use structured_streaming::ss_common::EpochProfile;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ])
}

/// Run a grouped count over three epochs at `parallelism`; return its
/// trace document, its event lines and its profiles by epoch.
fn run(parallelism: usize) -> (Vec<Json>, Vec<Json>, BTreeMap<u64, EpochProfile>) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "in", schema()).unwrap(),
        ))
        .unwrap()
        .group_by(vec![col("k")])
        .count();
    let mut q = df
        .write_stream()
        .query_name("record")
        .output_mode(OutputMode::Complete)
        .sink(MemorySink::new("out"))
        .engine_config(MicroBatchConfig {
            parallelism,
            ..Default::default()
        })
        .start_sync()
        .unwrap();
    for epoch in 0..3i64 {
        for p in 0..2u32 {
            let rows: Vec<Row> = (0..5)
                .map(|i| row![format!("k{}", i % 3), epoch * 10 + i])
                .collect();
            bus.append("in", p, rows).unwrap();
        }
        q.process_available().unwrap();
    }
    let trace: Json = serde_json::from_str(&q.trace().to_chrome_json()).unwrap();
    let trace = trace
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .clone();
    let events = q
        .events_jsonl()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let profiles = q.profiles().into_iter().map(|p| (p.epoch, p)).collect();
    (trace, events, profiles)
}

fn text(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// A JSON object's entries as strings: a string as itself, anything
/// else as its JSON text.
fn as_strings<'a>(
    entries: impl Iterator<Item = (&'a String, &'a Json)>,
) -> BTreeMap<String, String> {
    entries
        .map(|(k, v)| {
            (
                k.clone(),
                v.as_str().map_or_else(|| v.to_string(), str::to_string),
            )
        })
        .collect()
}

#[test]
fn each_phase_and_each_event_has_one_name() {
    for parallelism in [1, 4] {
        let (trace, events, profiles) = run(parallelism);
        assert_eq!(profiles.len(), 3, "parallelism {parallelism}");
        let scheduled = profiles.values().all(|p| p.tasks.is_some());
        assert_eq!(
            scheduled,
            parallelism > 1,
            "the exchange runs tasks above one partition"
        );

        // Spans: walk the engine thread, the one that opens `epoch`.
        let begins = |e: &&Json| text(e, "ph") == "B" && text(e, "name") == "epoch";
        let engine_tid = trace
            .iter()
            .find(begins)
            .expect("an epoch span")
            .get("tid")
            .cloned();
        let mut open: Option<(u64, BTreeSet<String>)> = None;
        let mut checked = 0;
        for e in trace.iter().filter(|e| e.get("tid").cloned() == engine_tid) {
            match (text(e, "ph").as_str(), text(e, "name").as_str(), &mut open) {
                ("B", "epoch", None) => {
                    let epoch = e.get("args").map(|a| text(a, "epoch")).unwrap();
                    open = Some((epoch.parse().unwrap(), BTreeSet::new()));
                }
                ("B", name, Some((_, spans))) => {
                    spans.insert(name.to_string());
                }
                ("E", "epoch", Some(_)) => {
                    let (epoch, spans) = open.take().unwrap();
                    let phases: BTreeSet<String> = profiles[&epoch]
                        .phases
                        .iter()
                        .filter(|p| p.parent.is_none())
                        .map(|p| p.name.clone())
                        .filter(|name| name != "admission" && name != "finalize")
                        .collect();
                    assert_eq!(spans, phases, "epoch {epoch} at parallelism {parallelism}");
                    checked += 1;
                }
                _ => {}
            }
        }
        assert_eq!(checked, 3, "parallelism {parallelism}");

        // Events: each has its instant.
        let instants: Vec<(String, BTreeMap<String, String>)> = trace
            .iter()
            .filter(|e| text(e, "ph") == "i")
            .map(|e| {
                let args = e.get("args").and_then(Json::as_object);
                (
                    text(e, "name"),
                    args.map(|a| as_strings(a.iter())).unwrap_or_default(),
                )
            })
            .collect();
        let fixed = ["ts_us", "event", "query"];
        let kinds: BTreeSet<String> = events.iter().map(|e| text(e, "event")).collect();
        assert!(
            kinds.contains("start") && kinds.contains("progress"),
            "{kinds:?}"
        );
        for event in &events {
            let fields = event
                .as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| !fixed.contains(&k.as_str()));
            let instant = (text(event, "event"), as_strings(fields));
            assert!(
                instants.contains(&instant),
                "no instant {instant:?} at parallelism {parallelism} among {instants:?}"
            );
        }
    }
}
