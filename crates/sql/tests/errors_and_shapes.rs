//! Parse-error behavior and round-trips for the query shapes the
//! benchmarks and the multi-query smoke suite rely on.
//!
//! Two guarantees: (1) malformed SQL — bad tokens, unbalanced parens,
//! unsupported clauses — always comes back as a **positioned**
//! `SsError::Parse` (never a panic), and (2) every bench/smoke query
//! shape parses to a plan that survives analysis, optimization, and
//! streaming validation in the output mode the bench runs it in.

use std::collections::HashMap;

use ss_common::{DataType, Field, Schema, SchemaRef, SsError};
use ss_plan::{LogicalPlan, OutputMode};
use ss_sql::parse_query;

fn resolver() -> HashMap<String, (SchemaRef, bool)> {
    let mut m = HashMap::new();
    m.insert(
        "events".to_string(),
        (
            Schema::of(vec![
                Field::new("ad_id", DataType::Int64),
                Field::new("country", DataType::Utf8),
                Field::new("event_type", DataType::Utf8),
                Field::new("v", DataType::Int64),
                Field::new("event_time", DataType::Timestamp),
            ]),
            true,
        ),
    );
    m.insert(
        "campaigns".to_string(),
        (
            Schema::of(vec![
                Field::new("c_ad_id", DataType::Int64),
                Field::new("campaign_id", DataType::Int64),
            ]),
            false,
        ),
    );
    m
}

fn parse_err(sql: &str) -> String {
    match parse_query(sql, &resolver()) {
        Err(SsError::Parse(msg)) => msg,
        Err(other) => panic!("`{sql}` should be a Parse error, got: {other}"),
        Ok(_) => panic!("`{sql}` should not parse"),
    }
}

#[test]
fn bad_tokens_are_positioned_parse_errors() {
    // Lexer-level garbage: unknown characters, unterminated strings,
    // malformed numerics. All are Parse errors, none panic.
    for bad in [
        "SELECT # FROM events",
        "SELECT country @ 3 FROM events",
        "SELECT 'unterminated FROM events",
        "SELECT 1.2.3 FROM events",
    ] {
        match parse_query(bad, &resolver()) {
            Err(SsError::Parse(_)) => {}
            other => panic!("`{bad}` should be a Parse error, got {other:?}"),
        }
    }
    // Parser-level junk reports *where* it gave up.
    let msg = parse_err("SELECT FROM WHERE");
    assert!(msg.contains("at token"), "unpositioned error: {msg}");
}

#[test]
fn unbalanced_parens_are_positioned_parse_errors() {
    for bad in [
        "SELECT COUNT(* FROM events",
        "SELECT (v + 1 FROM events",
        "SELECT v FROM events WHERE (event_type = 'view'",
        "SELECT v FROM events WHERE event_type IN ('a', 'b'",
        "SELECT window_start FROM events GROUP BY WINDOW(event_time, '10 seconds'",
    ] {
        let msg = parse_err(bad);
        assert!(msg.contains("at token"), "`{bad}` gave unpositioned: {msg}");
    }
    // A stray closing paren is trailing garbage, also positioned.
    let msg = parse_err("SELECT v FROM events)");
    assert!(msg.contains("at token"), "{msg}");
}

#[test]
fn unsupported_clauses_are_parse_errors_not_panics() {
    // Clauses where the parser itself stops report their position.
    for bad in [
        "SELECT v FROM events UNION SELECT v FROM events",
        "SELECT v FROM events, campaigns",
        "SELECT v FROM (SELECT v FROM events)",
        "SELECT v FROM events LEFT JOIN campaigns ON ad_id = c_ad_id USING (ad_id)",
        "WITH t AS (SELECT v FROM events) SELECT v FROM t",
        "INSERT INTO events VALUES (1)",
        "SELECT v OVER (PARTITION BY country) FROM events",
    ] {
        let msg = parse_err(bad);
        assert!(msg.contains("at token"), "`{bad}` gave unpositioned: {msg}");
    }
    // Constructs that parse as something else (ROLLUP looks like a
    // function call) may fail later in lowering — but still as a clean
    // error, never a panic.
    match parse_query("SELECT v FROM events GROUP BY ROLLUP(country)", &resolver()) {
        Err(SsError::Parse(msg)) | Err(SsError::Plan(msg)) => assert!(!msg.is_empty()),
        other => panic!("ROLLUP should fail, got {other:?}"),
    }
}

/// The Yahoo shape the repo benchmark's `fleet_shared` fleet is built
/// on and every shape the CI smoke test submits, with the output mode
/// each runs in. Parsing must produce a
/// plan that analyzes, optimizes, and validates for streaming in that
/// mode — the full path the SQL service takes before an engine ever
/// starts.
#[test]
fn bench_query_shapes_round_trip_to_valid_streaming_plans() {
    let shapes: Vec<(&str, OutputMode, Vec<&str>)> = vec![
        (
            // The Yahoo streaming benchmark query (bench + README).
            "SELECT window_start, campaign_id, COUNT(*) AS views \
             FROM events JOIN campaigns ON ad_id = c_ad_id \
             WHERE event_type = 'view' \
             GROUP BY WINDOW(event_time, '10 seconds'), campaign_id",
            OutputMode::Update,
            vec!["window_start", "campaign_id", "views"],
        ),
        (
            "SELECT country, COUNT(*) AS c FROM events WHERE event_type = 'view' GROUP BY country",
            OutputMode::Complete,
            vec!["country", "c"],
        ),
        (
            "SELECT country, COUNT(*) AS total FROM events WHERE event_type = 'view' GROUP BY country",
            OutputMode::Complete,
            vec!["country", "total"],
        ),
        (
            "SELECT country, COUNT(*) FROM events WHERE 'view' = event_type GROUP BY country",
            OutputMode::Complete,
            vec!["country", "count(*)"],
        ),
        (
            "SELECT event_type, COUNT(*) FROM events GROUP BY event_type",
            OutputMode::Complete,
            vec!["event_type", "count(*)"],
        ),
        (
            "SELECT country, SUM(v) AS sv FROM events GROUP BY country",
            OutputMode::Complete,
            vec!["country", "sv"],
        ),
        (
            "SELECT country, COUNT(*) FROM events WHERE event_type = 'click' GROUP BY country",
            OutputMode::Complete,
            vec!["country", "count(*)"],
        ),
        (
            "SELECT country, MAX(v) AS mv FROM events GROUP BY country",
            OutputMode::Complete,
            vec!["country", "mv"],
        ),
    ];
    for (sql, mode, cols) in shapes {
        let plan = parse_query(sql, &resolver())
            .unwrap_or_else(|e| panic!("`{sql}` failed to parse: {e}"));
        assert!(plan.is_streaming(), "`{sql}` should be streaming");
        assert_eq!(
            plan.schema().unwrap().field_names(),
            cols,
            "`{sql}` output schema"
        );
        let analyzed = ss_plan::analyze(&plan).unwrap();
        ss_plan::validate_streaming(&analyzed, mode)
            .unwrap_or_else(|e| panic!("`{sql}` invalid for {mode:?}: {e}"));
        let optimized = ss_plan::optimize(&analyzed).unwrap();
        // Optimization must preserve the output schema exactly.
        assert_eq!(
            optimized.schema().unwrap().field_names(),
            plan.schema().unwrap().field_names(),
            "`{sql}` schema changed under optimization"
        );
        assert_eq!(optimized.count_aggregates(), 1, "`{sql}`");
    }
}

/// Structural-equality invariant the multi-query engine's sharing key
/// rests on: alias renames and mirrored comparisons don't change the
/// canonical fingerprint of the stateful prefix; different filters or
/// aggregates do.
#[test]
fn structurally_equal_sql_shares_a_fingerprint() {
    let r = resolver();
    let fp = |sql: &str| {
        let plan = parse_query(sql, &r).unwrap();
        let optimized = ss_plan::optimize(&ss_plan::analyze(&plan).unwrap()).unwrap();
        let split = ss_plan::sharing_split(&optimized, true);
        assert!(
            matches!(&*split.prefix, LogicalPlan::Aggregate { .. }),
            "`{sql}` prefix should peel down to the aggregate"
        );
        split.key
    };
    let base = fp("SELECT country, COUNT(*) AS c FROM events WHERE event_type = 'view' GROUP BY country");
    let alias = fp("SELECT country, COUNT(*) AS total FROM events WHERE event_type = 'view' GROUP BY country");
    let mirror = fp("SELECT country, COUNT(*) FROM events WHERE 'view' = event_type GROUP BY country");
    assert_eq!(base, alias);
    assert_eq!(base, mirror);
    let other_filter =
        fp("SELECT country, COUNT(*) FROM events WHERE event_type = 'click' GROUP BY country");
    let other_agg = fp("SELECT country, SUM(v) AS c FROM events WHERE event_type = 'view' GROUP BY country");
    assert_ne!(base, other_filter);
    assert_ne!(base, other_agg);
}
