//! The wire shape of every JSON body the engine serves, pinned: each
//! body is parsed with `serde_json` and its objects' key sets compared
//! against the documented ones. Covers the introspection server
//! (`/queries`, `/query/<name>/{profile,dlq,ha}`, `/trace`, `/events`,
//! its 404 error body) and the SQL service mounted on it (`POST /sql`,
//! `/sql/sessions`, `DELETE /query/<name>`), with a profiled query at 4
//! workers, a poison-record query under quarantine and an HA query in
//! the same manager.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serde_json::Value as Json;
use ss_expr::expr::{Expr, ScalarUdf};
use structured_streaming::prelude::*;
use structured_streaming::ss_common::{Column, ErrorPolicy};
use structured_streaming::ss_core::{HttpExtension, IntrospectServer};
use structured_streaming::ss_multi::{MultiQueryConfig, MultiQueryEngine, SqlService};
use structured_streaming::ss_state::CheckpointBackend;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

fn feed(bus: &MessageBus, topic: &str, rows: std::ops::Range<u64>) {
    for i in rows {
        let r = row![
            format!("k{}", i % 7),
            i as i64,
            Value::Timestamp(i as i64 * 250_000)
        ];
        bus.append(topic, (i % 2) as u32, vec![r]).unwrap();
    }
}

/// `v` is poison when `v % 50 == 7`: the UDF panics on it.
fn validate() -> Expr {
    let udf = ScalarUdf {
        name: "validate".into(),
        return_type: DataType::Boolean,
        func: Arc::new(|cols: &[Column]| {
            let Column::Int64(c) = &cols[0] else {
                panic!("validate: expected BIGINT")
            };
            let vs = c.values();
            if let Some(v) = vs.iter().find(|&&v| v % 50 == 7) {
                panic!("malformed record: v={v}");
            }
            Column::from_values(DataType::Boolean, &vec![Value::Boolean(true); vs.len()])
        }),
    };
    Expr::Udf {
        udf,
        args: vec![col("v")],
    }
}

/// Minimal HTTP/1.1 request over a raw socket; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

fn parse(body: &str) -> Json {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"))
}

fn keys(v: &Json) -> BTreeSet<&str> {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {v}"))
        .keys()
        .map(String::as_str)
        .collect()
}

fn set<'a>(names: &[&'a str]) -> BTreeSet<&'a str> {
    names.iter().copied().collect()
}

/// `v` is an object with exactly these keys.
#[track_caller]
fn exact(v: &Json, names: &[&str]) {
    assert_eq!(keys(v), set(names), "{v}");
}

/// `v` is an object with at least these keys.
#[track_caller]
fn at_least(v: &Json, names: &[&str]) {
    let have = keys(v);
    let missing: Vec<&&str> = names.iter().filter(|k| !have.contains(**k)).collect();
    assert!(missing.is_empty(), "missing {missing:?} in {v}");
}

#[track_caller]
fn at<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v}"))
}

fn items(v: &Json) -> &Vec<Json> {
    v.as_array().unwrap_or_else(|| panic!("not an array: {v}"))
}

fn lines(body: &str) -> Vec<Json> {
    body.lines().map(parse).collect()
}

#[test]
fn every_json_body_keeps_its_key_set() {
    std::panic::set_hook(Box::new(|_| {}));
    let bus = Arc::new(MessageBus::new());
    for topic in ["in", "poison", "ha", "events"] {
        bus.create_topic(topic, 2).unwrap();
    }
    let ctx = StreamingContext::new();
    let source = |topic: &str| Arc::new(BusSource::new(bus.clone(), topic, schema()).unwrap());
    let manager = Arc::new(StreamingQueryManager::new());

    // A windowed aggregate at 4 workers: phases, task skew, shuffle.
    let mut prof = ctx
        .read_source(source("in"))
        .unwrap()
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("k")])
        .count()
        .write_stream()
        .query_name("prof")
        .output_mode(OutputMode::Complete)
        .engine_config(MicroBatchConfig {
            parallelism: 4,
            ..Default::default()
        })
        .sink(MemorySink::new("prof"))
        .start_sync()
        .unwrap();
    feed(&bus, "in", 0..400);
    prof.process_available().unwrap();
    feed(&bus, "in", 400..800);
    prof.process_available().unwrap();
    manager.add(prof).unwrap();

    // Poison records under quarantine: dead letters and `quarantine`
    // events, each also an instant in the trace.
    let mut poison = ctx
        .read_source(source("poison"))
        .unwrap()
        .filter(validate())
        .write_stream()
        .query_name("poison")
        .engine_config(MicroBatchConfig {
            error_policy: ErrorPolicy::Quarantine { max_per_epoch: 10 },
            ..Default::default()
        })
        .sink(MemorySink::new("poison"))
        .start_sync()
        .unwrap();
    feed(&bus, "poison", 0..60);
    poison.process_available().unwrap();
    manager.add(poison).unwrap();

    // A lease-fenced leader over a replicated checkpoint.
    let primary: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let replica: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let lease = Arc::new(LeaseManager::new(
        primary.clone(),
        "leader-a",
        Duration::from_secs(30),
        Duration::from_secs(5),
    ));
    let mut ha = ctx
        .read_source(source("ha"))
        .unwrap()
        .group_by(vec![col("k")])
        .count()
        .write_stream()
        .query_name("ha")
        .output_mode(OutputMode::Complete)
        .engine_config(MicroBatchConfig {
            ha: Some(HaConfig {
                lease,
                replica: Some(replica),
            }),
            ..Default::default()
        })
        .checkpoint(primary)
        .sink(MemorySink::new("ha"))
        .start_sync()
        .unwrap();
    feed(&bus, "ha", 0..40);
    ha.process_available().unwrap();
    manager.add(ha).unwrap();
    let _ = std::panic::take_hook();

    // The SQL service over its own context, on the same server.
    let sql_ctx = StreamingContext::new();
    sql_ctx.read_source(source("events")).unwrap();
    let engine = Arc::new(MultiQueryEngine::new(sql_ctx, MultiQueryConfig::default()));
    let service = SqlService::new(engine.clone());
    let mut server = IntrospectServer::start_with(
        manager.clone(),
        "127.0.0.1:0",
        vec![service as Arc<dyn HttpExtension>],
    )
    .unwrap();
    let addr = server.local_addr();
    let get = |path: &str| {
        let (status, body) = http(addr, "GET", path, "");
        assert_eq!(status, 200, "GET {path}: {body}");
        body
    };

    // /queries: the status object and its last progress record. Both
    // may grow keys; these are the ones clients can rely on.
    let queries = parse(&get("/queries"));
    assert_eq!(items(&queries).len(), 3);
    for q in items(&queries) {
        at_least(
            q,
            &[
                "name",
                "epoch",
                "restarts",
                "state_rows",
                "watermark_us",
                "ha_role",
                "exception",
                "last_progress",
            ],
        );
        at_least(
            at(q, "last_progress"),
            &[
                "epoch",
                "num_input_rows",
                "num_output_rows",
                "batch_duration_us",
                "input_rows_per_second",
                "backlog_rows",
                "state_bytes",
                "tasks_launched",
            ],
        );
    }

    // /query/<name>/profile: the phase tree, task skew and shuffle.
    let profiles = parse(&get("/query/prof/profile"));
    assert_eq!(items(&profiles).len(), 2);
    for p in items(&profiles) {
        exact(
            p,
            &[
                "epoch",
                "total_us",
                "attributed_us",
                "coverage",
                "phases",
                "tasks",
                "shuffle",
                "e2e_latency_us",
            ],
        );
        for phase in items(at(p, "phases")) {
            exact(phase, &["name", "parent", "duration_us"]);
        }
        exact(
            at(p, "tasks"),
            &["count", "min_us", "p50_us", "p99_us", "max_us"],
        );
        exact(
            at(p, "shuffle"),
            &["rows_per_partition", "bytes_per_partition", "key_skew"],
        );
        assert_eq!(items(at(at(p, "shuffle"), "rows_per_partition")).len(), 4);
        exact(at(p, "e2e_latency_us"), &["min", "max"]);
    }

    // /trace: one merged document; each event's keys follow its phase.
    let trace = parse(&get("/trace"));
    exact(&trace, &["traceEvents"]);
    let mut phases = BTreeSet::new();
    for ev in items(at(&trace, "traceEvents")) {
        let ph = at(ev, "ph").as_str().expect("ph is a string").to_string();
        // `args` is optional except on the process-name metadata event.
        let mut want = match ph.as_str() {
            "M" => vec!["name", "ph", "pid", "tid"],
            "X" => vec!["name", "ph", "ts", "pid", "tid", "dur"],
            "i" => vec!["name", "ph", "ts", "pid", "tid", "s"],
            "B" | "E" => vec!["name", "ph", "ts", "pid", "tid"],
            other => panic!("unexpected ph {other}: {ev}"),
        };
        assert!(ph != "M" || ev.get("args").is_some(), "{ev}");
        if let Some(args) = ev.get("args") {
            want.push("args");
            for v in args.as_object().expect("args is an object").values() {
                assert!(v.as_str().is_some(), "trace args are strings: {ev}");
            }
        }
        exact(ev, &want);
        phases.insert(ph);
    }
    assert_eq!(phases, ["B", "E", "M", "X", "i"].map(String::from).into());

    // /events: the fixed keys, then the event's own fields.
    let events = lines(&get("/events"));
    let kind = |e: &Json| at(e, "event").as_str().unwrap().to_string();
    let fixed = ["ts_us", "event", "query"];
    for e in &events {
        at_least(e, &fixed);
    }
    let shape = |k: &str, q: &str, fields: &[&str]| {
        let e = events
            .iter()
            .find(|e| {
                kind(e) == k && at(e, "query").as_str() == Some(q) && e.get("epoch").is_some()
            })
            .unwrap_or_else(|| panic!("no `{k}` event for {q}"));
        exact(e, &[&fixed[..], fields].concat());
    };
    shape("start", "prof", &["engine", "epoch"]);
    shape(
        "progress",
        "prof",
        &["epoch", "rows_in", "rows_out", "duration_us"],
    );
    shape("quarantine", "poison", &["epoch", "records", "action"]);

    // /query/<name>/dlq: one JSON object per quarantined record.
    let letters = lines(&get("/query/poison/dlq"));
    assert_eq!(letters.len(), 2, "v=7 and v=57 are poison");
    for l in &letters {
        exact(
            l,
            &[
                "epoch",
                "source",
                "partition",
                "offset",
                "fingerprint",
                "error",
                "row",
            ],
        );
        exact(at(l, "row"), &["k", "v", "time"]);
        assert_eq!(at(l, "fingerprint").as_str().map(str::len), Some(16));
    }

    // /query/<name>/ha: the full status with HA, one key without.
    let status = parse(&get("/query/ha/ha"));
    exact(
        &status,
        &[
            "configured",
            "role",
            "holder",
            "fencing_epoch",
            "fencing_rejections",
            "failovers",
            "standby",
            "epoch",
            "replication",
        ],
    );
    exact(
        at(&status, "replication"),
        &[
            "mode",
            "mirrored_ops",
            "replica_errors",
            "replication_lag_us",
        ],
    );
    exact(&parse(&get("/query/prof/ha")), &["configured"]);

    // Unknown query: 404 with an error object.
    let (st, body) = http(addr, "GET", "/query/ghost/profile", "");
    assert_eq!(st, 404);
    exact(&parse(&body), &["error"]);

    // The SQL service.
    let q = "SELECT k, COUNT(*) AS c FROM events GROUP BY k";
    for (name, tenant) in [("qa", "acme"), ("qb", "zeta")] {
        let req =
            format!(r#"{{"name":"{name}","sql":"{q}","tenant":"{tenant}","mode":"complete"}}"#);
        let (st, body) = http(addr, "POST", "/sql", &req);
        assert_eq!(st, 200, "{body}");
        exact(&parse(&body), &["started", "tenant", "mode"]);
    }
    let (st, body) = http(addr, "POST", "/sql", "{not json");
    assert_eq!(st, 400);
    exact(&parse(&body), &["error"]);
    let sessions = parse(&get("/sql/sessions"));
    assert_eq!(items(&sessions).len(), 2);
    for s in items(&sessions) {
        exact(
            s,
            &[
                "query",
                "tenant",
                "group",
                "sharing_key",
                "epoch",
                "shares_suffix",
            ],
        );
    }
    let (st, body) = http(addr, "DELETE", "/query/qb", "");
    assert_eq!(st, 200, "{body}");
    exact(
        &parse(&body),
        &["stopped", "group", "remaining", "state_copied"],
    );
    let (st, body) = http(addr, "DELETE", "/query/qb", "");
    assert_eq!(st, 404);
    exact(&parse(&body), &["error"]);

    server.stop();
    manager.stop_all().unwrap();
}
