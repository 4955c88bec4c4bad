//! The multi-query engine, end to end: shared scans, fingerprint-keyed
//! state sharing, pooled fair scheduling, the SQL service over HTTP,
//! copy-on-detach, and the seeded stop-mid-stream simulation scenario.
//!
//! The oracle discipline throughout: every shared-engine query is
//! compared against an **isolated** engine running the same SQL/plan
//! over the same data — per-query sink contents must be byte-identical
//! (row-for-row, in order). `SS_PARALLELISM` applies to both sides, so
//! CI exercises the matrix at 1 and 4 workers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use structured_streaming::prelude::*;
use structured_streaming::sql;
use structured_streaming::ss_common::XorShift64;
use structured_streaming::ss_core::{HttpExtension, IntrospectServer};
use structured_streaming::ss_state::CheckpointBackend;
use structured_streaming::ss_multi::{
    MultiQueryConfig, MultiQueryEngine, QuerySpec, SqlService,
};

fn event_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("country", DataType::Utf8),
        Field::new("event_type", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("event_time", DataType::Timestamp),
    ])
}

/// Deterministic event feed: `n` rows appended across 2 partitions.
fn feed(bus: &MessageBus, n: u64, start: u64) {
    for i in start..start + n {
        let country = ["CA", "US", "DE", "JP"][(i % 4) as usize];
        let etype = if i % 3 == 0 { "click" } else { "view" };
        bus.append(
            "events",
            (i % 2) as u32,
            vec![row![
                country,
                etype,
                (i % 17) as i64,
                Value::Timestamp((i as i64) * 1_000_000)
            ]],
        )
        .unwrap();
    }
}

fn make_bus() -> Arc<MessageBus> {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("events", 2).unwrap();
    bus
}

/// A fresh multi-query engine whose context resolves `events` over
/// `bus`. Group dispatch runs on one worker so scan-cache hit counts
/// are deterministic; *intra*-epoch parallelism still follows
/// `SS_PARALLELISM`.
fn make_engine(bus: &Arc<MessageBus>) -> Arc<MultiQueryEngine> {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
    ))
    .unwrap();
    Arc::new(MultiQueryEngine::new(
        ctx,
        MultiQueryConfig {
            workers: 1,
            ..MultiQueryConfig::default()
        },
    ))
}

/// Run `sql_text` on an isolated single-query engine over `bus` and
/// drain it; returns its sink.
fn isolated_oracle(bus: &Arc<MessageBus>, name: &str, sql_text: &str) -> Arc<MemorySink> {
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
    ))
    .unwrap();
    let df = sql(&ctx, sql_text).unwrap();
    let sink = MemorySink::new(format!("oracle:{name}"));
    let mut q = df
        .write_stream()
        .query_name(name)
        .output_mode(OutputMode::Complete)
        .sink(sink.clone())
        .start_sync()
        .unwrap();
    q.process_available().unwrap();
    q.stop().unwrap();
    sink
}

/// The CI smoke scenario: 8 SQL queries over one topic, 4 structurally
/// equal (aliases and mirrored comparisons differ — canonicalization
/// must see through both), assert the sharing counters engaged and
/// every query's output is byte-identical to its isolated oracle.
#[test]
fn eight_sql_queries_share_groups_and_match_isolated_oracles() {
    // (name, sql). q1..q4 share one stateful prefix.
    let queries: Vec<(&str, &str)> = vec![
        ("q1", "SELECT country, COUNT(*) AS c FROM events WHERE event_type = 'view' GROUP BY country"),
        ("q2", "SELECT country, COUNT(*) AS total FROM events WHERE event_type = 'view' GROUP BY country"),
        ("q3", "SELECT country, COUNT(*) FROM events WHERE 'view' = event_type GROUP BY country"),
        ("q4", "SELECT country, COUNT(*) AS c FROM events WHERE event_type = 'view' GROUP BY country"),
        ("q5", "SELECT event_type, COUNT(*) FROM events GROUP BY event_type"),
        ("q6", "SELECT country, SUM(v) AS sv FROM events GROUP BY country"),
        ("q7", "SELECT country, COUNT(*) FROM events WHERE event_type = 'click' GROUP BY country"),
        ("q8", "SELECT country, MAX(v) AS mv FROM events GROUP BY country"),
    ];
    let total_rows = 4_000u64;
    let bus = make_bus();
    feed(&bus, total_rows, 0);

    let engine = make_engine(&bus);
    let service = SqlService::new(engine.clone());
    let mut sinks = Vec::new();
    for (name, q) in &queries {
        sinks.push((
            *name,
            *q,
            service
                .start_sql(name, q, "tenant-a", OutputMode::Complete)
                .unwrap(),
        ));
    }

    let stats = engine.stats();
    assert_eq!(stats.queries, 8);
    assert_eq!(stats.groups, 5, "q1..q4 must collapse into one group");
    assert_eq!(stats.attached, 3, "three queries joined an existing group");

    engine.run_until_idle(50).unwrap();

    // Shared scans: 5 groups over one topic cost ONE bus read of the
    // data; the other four reads are cache fan-outs.
    assert_eq!(engine.source_rows_read(), total_rows);
    let scan = engine.stats().scan;
    assert!(scan.hits >= 4, "expected >=4 scan-cache hits, got {scan:?}");
    // 4 of the 5 groups were served from cache; the first populated it.
    assert_eq!(scan.fanned_rows, 4 * total_rows);

    // Shared state: one state namespace for the shared group — total
    // state across 5 groups for 8 queries stays well under 8 isolated
    // copies (the q1..q4 group stores its aggregate once).
    assert!(engine.state_bytes() > 0);

    // Every query's sink must match its isolated oracle byte-for-byte.
    for (name, sql_text, sink) in &sinks {
        let oracle = isolated_oracle(&bus, name, sql_text);
        assert_eq!(
            sink.snapshot(),
            oracle.snapshot(),
            "query `{name}` diverged from its isolated oracle"
        );
    }
}

/// Append-mode suffix sharing: two queries whose stateful prefix
/// (DISTINCT) is equal but whose stateless projections differ share
/// one group; the suffix is applied at each tap, and both match their
/// isolated oracles.
#[test]
fn append_suffix_sharing_applies_projection_at_the_tap() {
    let bus = make_bus();
    feed(&bus, 500, 0);

    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
    ))
    .unwrap();
    let base = ctx
        .table("events")
        .unwrap()
        .select(vec![col("country"), col("event_type")])
        .distinct();
    let plan_full = base.plan();
    let plan_projected = base.select(vec![col("country")]).plan();

    let engine = Arc::new(MultiQueryEngine::new(
        ctx,
        MultiQueryConfig {
            workers: 1,
            ..MultiQueryConfig::default()
        },
    ));
    let sink_full = MemorySink::new("full");
    let sink_proj = MemorySink::new("proj");
    engine
        .submit(QuerySpec {
            name: "q-full".into(),
            tenant: "t".into(),
            plan: plan_full.clone(),
            output_mode: OutputMode::Append,
            sink: sink_full.clone(),
        })
        .unwrap();
    engine
        .submit(QuerySpec {
            name: "q-proj".into(),
            tenant: "t".into(),
            plan: plan_projected.clone(),
            output_mode: OutputMode::Append,
            sink: sink_proj.clone(),
        })
        .unwrap();
    let stats = engine.stats();
    assert_eq!(
        stats.groups, 1,
        "projection above DISTINCT must peel into a tap suffix"
    );
    assert_eq!(stats.attached, 1);
    engine.run_until_idle(50).unwrap();

    // Feed more and re-run: suffixes apply per epoch, not just once.
    feed(&bus, 300, 500);
    engine.run_until_idle(50).unwrap();

    for (name, plan, sink) in [
        ("o-full", plan_full, sink_full),
        ("o-proj", plan_projected, sink_proj),
    ] {
        let ctx = StreamingContext::new();
        ctx.read_source(Arc::new(
            BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
        ))
        .unwrap();
        let oracle = MemorySink::new(name);
        let mut q = ctx
            .dataframe_from_plan(plan)
            .write_stream()
            .query_name(name)
            .output_mode(OutputMode::Append)
            .sink(oracle.clone())
            .start_sync()
            .unwrap();
        // Same epoch schedule as the shared run: 500 rows, then 300.
        q.process_available().unwrap();
        q.process_available().unwrap();
        q.stop().unwrap();
        assert_eq!(sink.snapshot(), oracle.snapshot(), "{name} diverged");
    }
}

/// Stopping one member of a sharing group snapshots the group state
/// for it (copy-on-detach) and leaves the survivor bit-exact with a
/// never-shared run.
#[test]
fn copy_on_detach_preserves_survivor_output_and_state() {
    let sql_text = "SELECT country, COUNT(*) AS c FROM events GROUP BY country";
    let bus = make_bus();
    let engine = make_engine(&bus);
    let service = SqlService::new(engine.clone());
    let keep = service
        .start_sql("keep", sql_text, "t", OutputMode::Complete)
        .unwrap();
    let _stop = service
        .start_sql("stop", sql_text, "t", OutputMode::Complete)
        .unwrap();
    assert_eq!(engine.stats().groups, 1);

    feed(&bus, 400, 0);
    engine.run_until_idle(50).unwrap();

    // Stop one member mid-stream: the report carries a private copy of
    // the group's checkpoint namespace (WAL + state), so the departed
    // query could restart isolated from exactly this boundary.
    let report = engine.stop_query("stop").unwrap();
    assert_eq!(report.remaining, 1);
    let copy = report.checkpoint_copy.expect("copy-on-detach snapshot");
    assert!(
        !copy.list("").unwrap().is_empty(),
        "detach copy must contain the group's checkpoint keys"
    );
    assert_eq!(engine.stats().detach_copies, 1);

    feed(&bus, 350, 400);
    engine.run_until_idle(50).unwrap();
    assert_eq!(engine.query_names(), vec!["keep".to_string()]);

    // Never-shared oracle over the same feed schedule.
    let oracle = isolated_oracle(&bus, "oracle-keep", sql_text);
    assert_eq!(keep.snapshot(), oracle.snapshot());

    // Last member leaving dissolves the group entirely.
    let report = engine.stop_query("keep").unwrap();
    assert_eq!(report.remaining, 0);
    assert!(report.checkpoint_copy.is_none());
    assert_eq!(engine.stats().groups, 0);
}

/// Per-tenant admission budgets throttle a hungry tenant's groups:
/// an over-budget tenant's group skips ticks until refills clear its
/// debt, while an unthrottled tenant proceeds.
#[test]
fn tenant_admission_budget_defers_over_budget_groups() {
    let bus = make_bus();
    feed(&bus, 1_000, 0);
    let engine = make_engine(&bus);
    let service = SqlService::new(engine.clone());
    let throttled = service
        .start_sql(
            "throttled",
            "SELECT country, COUNT(*) FROM events GROUP BY country",
            "small-tenant",
            OutputMode::Complete,
        )
        .unwrap();
    service
        .start_sql(
            "free",
            "SELECT event_type, COUNT(*) FROM events GROUP BY event_type",
            "big-tenant",
            OutputMode::Complete,
        )
        .unwrap();
    // 100 rows/tick against a 1000-row epoch: the first epoch runs
    // (admission is post-hoc) and leaves ~9 ticks of debt.
    engine.set_tenant_budget("small-tenant", 100, 100);

    let t1 = engine.tick().unwrap();
    assert_eq!(t1.epochs, 2, "both groups run their first epoch");

    feed(&bus, 200, 1_000);
    let t2 = engine.tick().unwrap();
    // The throttled group sits out while its tenant is in debt; the
    // unthrottled one drains the new rows.
    assert_eq!(t2.skipped, 1);
    assert_eq!(t2.epochs, 1);

    // Refills eventually clear the debt and the backlog drains.
    engine.run_until_idle(50).unwrap();
    let oracle = isolated_oracle(
        &bus,
        "o",
        "SELECT country, COUNT(*) FROM events GROUP BY country",
    );
    let listed = engine
        .sessions()
        .iter()
        .any(|s| s.query == "throttled" && s.tenant == "small-tenant");
    assert!(listed);
    // Throttling delays epochs; it never changes what they compute.
    assert_eq!(throttled.snapshot(), oracle.snapshot());
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
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

/// One key of a JSON object body.
fn field(body: &str, key: &str) -> serde_json::Value {
    let v: serde_json::Value = serde_json::from_str(body).expect("JSON body");
    v.get(key).cloned().unwrap_or_else(|| panic!("no `{key}` in {body}"))
}

/// `(query, tenant)` of each session in a `/sql/sessions` body.
fn sessions(body: &str) -> Vec<(String, String)> {
    let v: serde_json::Value = serde_json::from_str(body).expect("JSON body");
    let text = |s: &serde_json::Value, k: &str| s.get(k).and_then(|v| v.as_str()).unwrap().into();
    let list = v.as_array().expect("array of sessions");
    list.iter().map(|s| (text(s, "query"), text(s, "tenant"))).collect()
}

/// The SQL service over real HTTP: POST /sql starts sharing queries,
/// GET /sql/sessions lists them, GET /metrics carries query+tenant
/// labels without duplicated TYPE headers, DELETE /query/<name> stops
/// with copy-on-detach, and built-in routes still work underneath.
#[test]
fn sql_service_http_endpoints() {
    let bus = make_bus();
    feed(&bus, 600, 0);
    let engine = make_engine(&bus);
    let service = SqlService::new(engine.clone());
    let manager = Arc::new(StreamingQueryManager::new());
    let mut server = IntrospectServer::start_with(
        manager,
        "127.0.0.1:0",
        vec![service.clone() as Arc<dyn HttpExtension>],
    )
    .unwrap();
    let addr = server.local_addr();

    let q = "SELECT country, COUNT(*) AS c FROM events GROUP BY country";
    let (st, body) = http(
        addr,
        "POST",
        "/sql",
        &format!(r#"{{"name":"qa","sql":"{q}","tenant":"acme","mode":"complete"}}"#),
    );
    assert_eq!(st, 200, "{body}");
    assert_eq!(field(&body, "started").as_str(), Some("qa"));
    let (st, _) = http(
        addr,
        "POST",
        "/sql",
        &format!(r#"{{"name":"qb","sql":"{q}","tenant":"zeta","mode":"complete"}}"#),
    );
    assert_eq!(st, 200);

    // Duplicate names, bad JSON, bad SQL, bad mode: 400 with an error.
    let (st, body) = http(
        addr,
        "POST",
        "/sql",
        &format!(r#"{{"name":"qa","sql":"{q}"}}"#),
    );
    assert_eq!(st, 400);
    let error = field(&body, "error");
    assert!(error.as_str().unwrap().contains("already running"), "{body}");
    let (st, _) = http(addr, "POST", "/sql", "{not json");
    assert_eq!(st, 400);
    let (st, body) = http(
        addr,
        "POST",
        "/sql",
        r#"{"name":"qz","sql":"SELECT FROM WHERE"}"#,
    );
    assert_eq!(st, 400);
    let error = field(&body, "error");
    assert!(error.as_str().unwrap().contains("at token"), "positioned error, got: {body}");
    let (st, _) = http(
        addr,
        "POST",
        "/sql",
        &format!(r#"{{"name":"qz","sql":"{q}","mode":"sideways"}}"#),
    );
    assert_eq!(st, 400);

    let (st, body) = http(addr, "GET", "/sql/sessions", "");
    assert_eq!(st, 200);
    assert_eq!(
        sessions(&body),
        vec![("qa".into(), "acme".into()), ("qb".into(), "zeta".into())]
    );

    engine.run_until_idle(50).unwrap();

    // Merged exposition: per-query AND per-tenant labels, one TYPE
    // header per family even though both queries share one group.
    let (st, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(st, 200);
    assert!(metrics.contains("query=\"qa\""), "{metrics}");
    assert!(metrics.contains("tenant=\"acme\""));
    assert!(metrics.contains("tenant=\"zeta\""));
    let mut type_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .collect();
    let before = type_lines.len();
    type_lines.dedup();
    assert_eq!(type_lines.len(), before, "duplicated TYPE header");
    assert!(before > 0);

    // DELETE stops one member; the survivor keeps its session.
    let (st, body) = http(addr, "DELETE", "/query/qb", "");
    assert_eq!(st, 200, "{body}");
    assert_eq!(field(&body, "state_copied").as_bool(), Some(true));
    let (_, body) = http(addr, "GET", "/sql/sessions", "");
    assert_eq!(sessions(&body), vec![("qa".into(), "acme".into())]);
    let (st, _) = http(addr, "DELETE", "/query/nope", "");
    assert_eq!(st, 404);

    // Built-ins still answer underneath the extension...
    let (st, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(st, 200);
    assert_eq!(body, "ok\n");
    // ...and non-GET methods nothing claims get 405, not a hang.
    let (st, _) = http(addr, "POST", "/healthz", "");
    assert_eq!(st, 405);

    server.stop();
}

fn sim_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("SS_SIM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    if let Ok(seed) = std::env::var("SS_SIM_SEED") {
        return vec![seed.parse().expect("SS_SIM_SEED must be a u64")];
    }
    (0..n).collect()
}

/// PR 9 sim integration: a seedable scenario with two sharing queries
/// where one is stopped mid-stream. For every seed, the survivor's
/// sink must be byte-identical to a never-shared run over the same
/// feed schedule — sharing (and un-sharing) must be invisible in the
/// output.
#[test]
fn sim_seeded_stop_mid_stream_is_invisible_to_the_survivor() {
    let sql_text = "SELECT country, COUNT(*) AS c, SUM(v) AS s FROM events GROUP BY country";
    for seed in sim_seeds() {
        let mut rng = XorShift64::new(seed);
        let waves: u64 = 2 + rng.gen_range(1, 4); // 3..=5 waves
        let stop_after = 1 + rng.gen_range(0, waves - 1); // 1..waves-1
        let sizes: Vec<u64> = (0..waves).map(|_| rng.gen_range(1, 120)).collect();

        // Shared run: two identical queries; `victim` leaves after
        // `stop_after` waves with backlog still arriving.
        let bus = make_bus();
        let engine = make_engine(&bus);
        let service = SqlService::new(engine.clone());
        let survivor = service
            .start_sql("survivor", sql_text, "t1", OutputMode::Complete)
            .unwrap();
        service
            .start_sql("victim", sql_text, "t2", OutputMode::Complete)
            .unwrap();
        assert_eq!(engine.stats().groups, 1, "seed {seed}: queries must share");
        let mut next = 0u64;
        for (w, n) in sizes.iter().enumerate() {
            feed(&bus, *n, next);
            next += n;
            engine.tick().unwrap();
            if w as u64 + 1 == stop_after {
                let report = engine.stop_query("victim").unwrap();
                assert_eq!(report.remaining, 1, "seed {seed}");
                assert!(report.checkpoint_copy.is_some(), "seed {seed}");
            }
        }
        engine.run_until_idle(100).unwrap();

        // Never-shared run: one isolated engine, same wave schedule.
        let bus2 = make_bus();
        let ctx = StreamingContext::new();
        ctx.read_source(Arc::new(
            BusSource::new(bus2.clone(), "events", event_schema()).unwrap(),
        ))
        .unwrap();
        let oracle = MemorySink::new("oracle");
        let mut q = sql(&ctx, sql_text)
            .unwrap()
            .write_stream()
            .query_name("oracle")
            .output_mode(OutputMode::Complete)
            .sink(oracle.clone())
            .start_sync()
            .unwrap();
        let mut next = 0u64;
        for n in &sizes {
            feed(&bus2, *n, next);
            next += n;
            q.process_available().unwrap();
        }
        q.stop().unwrap();

        assert_eq!(
            survivor.snapshot(),
            oracle.snapshot(),
            "seed {seed}: survivor diverged from the never-shared run"
        );
    }
}

/// Groups run concurrently: three groups on four pool workers, with a
/// first wave larger than the default quantum. Every tick runs each
/// admissible group exactly once, every sink equals its isolated
/// oracle, and concurrent scan-cache misses stay single-flight — the
/// bus is read once per range however the groups interleave.
#[test]
fn concurrent_groups_run_once_per_tick_and_read_each_range_once() {
    let queries = [
        (
            "qa",
            "SELECT country, COUNT(*) AS c FROM events GROUP BY country",
        ),
        (
            "qb",
            "SELECT event_type, COUNT(*) FROM events GROUP BY event_type",
        ),
        (
            "qc",
            "SELECT country, SUM(v) AS sv FROM events WHERE event_type = 'view' GROUP BY country",
        ),
    ];
    let waves = [MultiQueryConfig::default().quantum + 20_000, 3_000, 500];
    let bus = make_bus();
    let ctx = StreamingContext::new();
    ctx.read_source(Arc::new(
        BusSource::new(bus.clone(), "events", event_schema()).unwrap(),
    ))
    .unwrap();
    let engine = Arc::new(MultiQueryEngine::new(
        ctx,
        MultiQueryConfig {
            workers: 4,
            ..MultiQueryConfig::default()
        },
    ));
    let service = SqlService::new(engine.clone());
    let sinks: Vec<Arc<MemorySink>> = queries
        .iter()
        .map(|(name, q)| {
            service
                .start_sql(name, q, name, OutputMode::Complete)
                .unwrap()
        })
        .collect();
    assert_eq!(engine.stats().groups, 3);

    let epochs = || -> Vec<u64> {
        engine.sessions().iter().map(|s| s.epoch).collect()
    };
    let mut fed = 0u64;
    for (tick, n) in waves.into_iter().enumerate() {
        feed(&bus, n, fed);
        fed += n;
        let before = epochs();
        let report = engine.tick().unwrap();
        assert_eq!(
            (report.epochs, report.rows, report.skipped),
            (3, 3 * n, 0),
            "tick {tick}: every group runs one epoch over the whole wave"
        );
        let after = epochs();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(
                *a,
                b + 1,
                "tick {tick}: each group advances exactly one epoch"
            );
        }
    }
    assert_eq!(
        engine.stats().scan.underlying_rows,
        fed,
        "one bus read per range"
    );

    for ((name, sql_text), sink) in queries.iter().zip(&sinks) {
        let oracle = isolated_oracle(&bus, name, sql_text);
        assert_eq!(
            sink.snapshot(),
            oracle.snapshot(),
            "query `{name}` diverged"
        );
    }
}
