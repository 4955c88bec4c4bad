//! The epoch profiler and the HTTP introspection server, end to end:
//! a live windowed-aggregation query must attribute ≥95% of the median
//! epoch's wall time to the profiler's phase tree, and the server must
//! serve all five endpoints with well-formed bodies over plain TCP.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use structured_streaming::prelude::*;
use structured_streaming::ss_common::profile::{
    PHASE_EXECUTE, PHASE_SINK_COMMIT, PHASE_SOURCE_READ, PHASE_WAL,
};
use structured_streaming::ss_core::IntrospectServer;

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("k", DataType::Utf8),
        Field::new("time", DataType::Timestamp),
    ])
}

fn rows(n: u64, start: u64) -> Vec<Row> {
    (start..start + n)
        .map(|i| row![format!("k{}", i % 17), Value::Timestamp((i as i64) * 250_000)])
        .collect()
}

/// Minimal HTTP/1.1 GET over a raw socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    // Bodies are sent with Content-Length + Connection: close, so the
    // remainder of the stream is exactly the body.
    (status, body.to_string())
}

/// Build a windowed-aggregation query over the bus and run `epochs`
/// epochs of `per_epoch` rows each.
fn run_profiled_query(
    name: &str,
    parallelism: usize,
    epochs: usize,
    per_epoch: u64,
) -> StreamingQuery {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("k")])
        .count();
    let sink = MemorySink::new("out");
    let mut q = df
        .write_stream()
        .query_name(name)
        .output_mode(OutputMode::Complete)
        .engine_config(MicroBatchConfig {
            parallelism,
            ..Default::default()
        })
        .sink(sink)
        .start_sync()
        .unwrap();
    let mut next = 0u64;
    for _ in 0..epochs {
        bus.append("in", 0, rows(per_epoch / 2, next)).unwrap();
        bus.append("in", 1, rows(per_epoch / 2, next + per_epoch / 2))
            .unwrap();
        next += per_epoch;
        q.process_available().unwrap();
    }
    q
}

#[test]
fn epoch_profile_attributes_wall_time_with_skew_and_shuffle() {
    let q = run_profiled_query("prof", 4, 3, 4_000);
    let profiles = q.profiles();
    assert_eq!(profiles.len(), 3, "one profile per epoch");
    // The acceptance bar: the disjoint top-level phases must account
    // for at least 95% of the measured epoch wall time. Held on the
    // median epoch, so one ~1 ms epoch preempted between two phases
    // on a loaded machine cannot fail the run.
    let mut coverage: Vec<f64> = profiles.iter().map(|p| p.coverage()).collect();
    coverage.sort_by(f64::total_cmp);
    assert!(
        coverage[coverage.len() / 2] >= 0.95,
        "phase trees cover only {coverage:?} of their epochs: {profiles:?}"
    );
    let mut shuffled = 0u64;
    for (e, p) in profiles.iter().enumerate() {
        assert!(p.total_us > 0, "epoch {} measured no wall time", p.epoch);
        for phase in [PHASE_SOURCE_READ, PHASE_EXECUTE, PHASE_SINK_COMMIT, PHASE_WAL] {
            assert!(
                p.phases.iter().any(|d| d.name == phase),
                "epoch {} is missing phase `{phase}`",
                p.epoch
            );
        }
        // Parallel execution: execute has children, tasks carry skew
        // stats, and the shuffle routed every group's partials.
        let children: Vec<&str> = p
            .phases
            .iter()
            .filter(|d| d.parent.as_deref() == Some(PHASE_EXECUTE))
            .map(|d| d.name.as_str())
            .collect();
        assert!(
            children.contains(&"map") && children.contains(&"reduce"),
            "epoch {}: execute children = {children:?}",
            p.epoch
        );
        let tasks = p.tasks.expect("parallel epochs have task skew stats");
        assert!(tasks.count > 0);
        assert!(tasks.min_us <= tasks.p50_us && tasks.p50_us <= tasks.max_us);
        let shuffle = p.shuffle.as_ref().expect("aggregate epochs shuffle");
        assert_eq!(shuffle.rows_per_partition.len(), 4);
        // The exchange moves per-key partials, not input rows: at
        // least one per `(window, k)` group the epoch touched, at most
        // one per group per map chunk.
        let groups = (e as u64 * 4_000..(e as u64 + 1) * 4_000)
            .map(|i| (i / 40, i % 17))
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        let routed = shuffle.total_rows();
        assert!(
            groups <= routed && routed <= groups * 4 && routed < 4_000,
            "epoch {}: {routed} partials for {groups} groups",
            p.epoch
        );
        shuffled += routed;
        assert!(shuffle.total_bytes() > 0);
        assert!(shuffle.key_skew >= 1.0);
        // Ingest stamps come from the bus, so e2e latency is measured.
        let (lat_min, lat_max) = p.e2e_latency_us.expect("bus sources carry ingest stamps");
        assert!(lat_min <= lat_max);
    }
    // The same profile rides on the progress record.
    let last = q.last_progress().expect("progress after 3 epochs");
    let attached = last.profile.as_ref().expect("progress carries the profile");
    assert_eq!(attached.epoch, profiles.last().unwrap().epoch);
    // And the registry carries the per-phase histogram.
    let text = q.metrics().render();
    // Input rows over shuffled partials is the combine ratio.
    let counter = |name: &str| q.metrics().counter(name, &[("op", "agg-0")]).get();
    assert_eq!(counter("ss_exchange_input_rows_total"), 12_000);
    assert_eq!(counter("ss_shuffle_rows_total"), shuffled);
    assert!(shuffled * 2 < 12_000, "combine ratio under 2: {shuffled} partials");
    assert!(text.contains("ss_phase_duration_us"), "missing phase metric");
    assert!(text.contains("phase=\"execute\""), "missing execute series");
    assert!(text.contains("ss_e2e_latency_us"), "missing e2e latency metric");
    q.stop().unwrap();
}

#[test]
fn introspection_server_serves_all_endpoints() {
    let manager = Arc::new(StreamingQueryManager::new());
    manager.add(run_profiled_query("prof", 4, 2, 1_000)).unwrap();
    let mut server = IntrospectServer::start(manager.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // /healthz
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // /metrics: merged Prometheus exposition with a query label on
    // every sample, and every non-comment line numeric.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE ss_epoch_duration_us histogram"));
    assert!(body.contains("query=\"prof\""));
    assert!(body.contains("ss_phase_duration_us"));
    assert!(body.contains("ss_trace_dropped_total"));
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad sample line: {line}"));
    }

    // /queries: JSON array with the query's status and last progress.
    let (status, body) = http_get(addr, "/queries");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("queries JSON parses");
    let arr = parsed.as_array().expect("array of queries");
    assert_eq!(arr.len(), 1);
    let q0 = &arr[0];
    assert_eq!(q0.get("name").and_then(|v| v.as_str()), Some("prof"));
    assert_eq!(q0.get("epoch").and_then(|v| v.as_u64()), Some(2));
    let rows_in = q0
        .get("last_progress")
        .and_then(|p| p.get("num_input_rows"))
        .and_then(|v| v.as_u64())
        .expect("last progress rows");
    assert!(rows_in > 0);
    assert!(q0.get("exception").unwrap().is_null());

    // /query/<name>/profile: the retained epoch profiles.
    let (status, body) = http_get(addr, "/query/prof/profile");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("profile JSON parses");
    let profs = parsed.as_array().expect("array of profiles");
    assert_eq!(profs.len(), 2);
    let phases = profs[0]
        .get("phases")
        .and_then(|v| v.as_array())
        .expect("phases array");
    assert!(phases.len() >= 4);
    let coverage = profs[0]
        .get("coverage")
        .and_then(|v| v.as_f64())
        .expect("coverage");
    assert!(coverage >= 0.95, "served coverage {coverage}");
    let (status, _) = http_get(addr, "/query/ghost/profile");
    assert_eq!(status, 404);

    // /query/<name>/dlq: the dead-letter queue (empty for a healthy
    // query, but the endpoint must resolve).
    let (status, body) = http_get(addr, "/query/prof/dlq");
    assert_eq!(status, 200);
    assert!(body.is_empty(), "healthy query has no dead letters: {body}");
    let (status, _) = http_get(addr, "/query/ghost/dlq");
    assert_eq!(status, 404);

    // /trace: merged chrome://tracing JSON with process names.
    let (status, body) = http_get(addr, "/trace");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents");
    let field = |e: &serde_json::Value, key: &str| -> Option<String> {
        e.get(key).and_then(|v| v.as_str()).map(str::to_string)
    };
    assert!(events.iter().any(|e| {
        field(e, "name").as_deref() == Some("process_name")
            && e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str()) == Some("prof")
    }));
    assert!(events
        .iter()
        .any(|e| field(e, "name").as_deref() == Some("epoch")
            && field(e, "ph").as_deref() == Some("B")));

    // /events: JSON Lines, one parseable object per line, covering the
    // query's lifecycle so far.
    let (status, body) = http_get(addr, "/events");
    assert_eq!(status, 200);
    let mut kinds = Vec::new();
    for line in body.lines() {
        let ev: serde_json::Value = serde_json::from_str(line).expect("event line parses");
        kinds.push(
            ev.get("event")
                .and_then(|v| v.as_str())
                .expect("event kind")
                .to_string(),
        );
    }
    assert!(kinds.contains(&"start".to_string()), "kinds: {kinds:?}");
    assert!(kinds.contains(&"progress".to_string()), "kinds: {kinds:?}");

    // Unknown paths 404; stop() is idempotent and unblocks accept.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    server.stop();
    server.stop();
    manager.stop_all().unwrap();
}

/// `/query/<name>/ha`: a lease-fenced leader over a replicated
/// checkpoint reports its role, lease and replication; a query without
/// HA reports only that; an unknown name is a 404 whose JSON error
/// body survives quotes and backslashes in the name.
#[test]
fn ha_endpoint_reports_lease_and_replication() {
    let manager = Arc::new(StreamingQueryManager::new());
    manager.add(run_profiled_query("plain", 1, 1, 100)).unwrap();

    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 2).unwrap();
    let primary: Arc<dyn structured_streaming::ss_state::CheckpointBackend> =
        Arc::new(MemoryBackend::new());
    let lease = Arc::new(LeaseManager::new(
        primary.clone(),
        "leader-a",
        Duration::from_secs(30),
        Duration::from_secs(5),
    ));
    let repl = Arc::new(ReplicatedBackend::new(primary, Arc::new(MemoryBackend::new())));
    let ctx = StreamingContext::new();
    let mut q = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", schema()).unwrap()))
        .unwrap()
        .group_by(vec![col("k")])
        .count()
        .write_stream()
        .query_name("leader")
        .output_mode(OutputMode::Complete)
        .engine_config(MicroBatchConfig {
            ha: Some(HaConfig::new(lease.clone()).with_replication(repl.clone())),
            ..Default::default()
        })
        .checkpoint(Arc::new(FencedBackend::new(repl, lease)))
        .sink(MemorySink::new("out"))
        .start_sync()
        .unwrap();
    bus.append("in", 0, rows(10, 0)).unwrap();
    q.process_available().unwrap();
    manager.add(q).unwrap();
    let mut server = IntrospectServer::start(manager.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/query/leader/ha");
    assert_eq!(status, 200);
    let ha: serde_json::Value = serde_json::from_str(&body).expect("ha JSON parses");
    let field = |key: &str| ha.get(key).unwrap_or_else(|| panic!("no `{key}` in {body}"));
    assert_eq!(field("configured").as_bool(), Some(true));
    assert_eq!(field("role").as_str(), Some("leader"));
    assert_eq!(field("holder").as_str(), Some("leader-a"));
    assert!(field("fencing_epoch").as_u64().is_some_and(|e| e >= 1), "{body}");
    let mode = field("replication").get("mode").and_then(|m| m.as_str());
    assert_eq!(mode, Some("sync"));

    let (status, body) = http_get(addr, "/query/plain/ha");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"configured":false}"#);

    let (status, body) = http_get(addr, r#"/query/gh"o\st/ha"#);
    assert_eq!(status, 404);
    let err: serde_json::Value = serde_json::from_str(&body).expect("error JSON parses");
    let message = err.get("error").and_then(|e| e.as_str()).expect("error message");
    assert!(message.contains(r#"gh"o\st"#), "{message}");
    server.stop();
    manager.stop_all().unwrap();
}
