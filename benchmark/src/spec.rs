//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `../BENCHMARK.json` lists the same names
//! (`benchmark manifest` prints the file from these tables, and a unit
//! test compares the two).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "yahoo_drain",
        why: "closed loop, serial: Yahoo Fig. 6a query over a preloaded topic; per-row bus decode and the stateless chain dominate, state/WAL/sink are negligible",
    },
    Workload {
        name: "yahoo_exchange",
        why: "same topic and query at parallelism 2 with 4 shuffle partitions: the map, hash scatter, shuffle, reduce, merge path on the task scheduler",
    },
    Workload {
        name: "sessions_drain",
        why: "closed loop, state-heavy: Zipf users x 10 s windows under a watermark with late events, FsBackend delta checkpoints every epoch; state store and WAL do the work",
    },
    Workload {
        name: "sessions_paced",
        why: "open loop at a frozen rate, 25 ms trigger: small epochs make per-epoch fixed costs (offset log, state delta, commit, trigger gap) the event latency",
    },
    Workload {
        name: "continuous_paced",
        why: "open loop through the continuous engine (Fig. 7): the per-record path shares expressions and bus with the batch path but none of its kernels",
    },
    Workload {
        name: "fleet_shared",
        why: "closed loop, 8 SQL queries in 3 sharing groups on MultiQueryEngine: scan-cache fan-out, pooled scheduling, fan-out suffixes; parse/plan/submit is the set-up",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen before a change is rejected. Every workload reports
/// every one of them, from the untraced run only.
pub const END_TO_END: [(Metric, f64); 6] = [
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("throughput_rps", "1/s", Better::Higher), 0.25),
    (m("latency_p50_ms", "ms", Better::Lower), 0.25),
    (m("latency_p95_ms", "ms", Better::Lower), 0.25),
    (m("delivered_ratio", "ratio", Better::Higher), 0.01),
    (m("rss_peak_mb", "MB", Better::Lower), 0.10),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Per-layer metrics (layer = crate), from the traced run only. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [Metric; 76] = [
    // bus
    m("bus.read_decode_ns_per_row", "ns", Better::Lower),
    m("bus.read_calls", "count", Better::Lower),
    m("bus.read_rows", "count", Better::Lower),
    m("bus.append_ns_per_row", "ns", Better::Lower),
    m("bus.backlog_rows_p95", "count", Better::Lower),
    m("bus.sink_commit_us_p50", "us", Better::Lower),
    m("bus.sink_rows", "count", Better::Lower),
    m("bus.scan_underlying_ratio", "ratio", Better::Lower),
    m("bus.scan_fanned_rows", "count", Better::Higher),
    // common
    m("common.batch_from_rows_ns_per_row", "ns", Better::Lower),
    m("common.shuffle_hash_ns_per_row", "ns", Better::Lower),
    // expr
    m("expr.filter_pred_ns_per_row", "ns", Better::Lower),
    m("expr.window_ns_per_row", "ns", Better::Lower),
    m("expr.eval_row_ns_per_row", "ns", Better::Lower),
    // exec
    m("exec.filter_ns_per_row", "ns", Better::Lower),
    m("exec.project_ns_per_row", "ns", Better::Lower),
    m("exec.join_probe_ns_per_row", "ns", Better::Lower),
    m("exec.agg_lowcard_ns_per_row", "ns", Better::Lower),
    m("exec.agg_highcard_ns_per_row", "ns", Better::Lower),
    // state
    m("state.put_ns_per_key", "ns", Better::Lower),
    m("state.get_ns_per_key", "ns", Better::Lower),
    m("state.checkpoint_us_p50", "us", Better::Lower),
    m("state.checkpoint_bytes_per_epoch", "bytes", Better::Lower),
    m("state.restore_ms", "ms", Better::Lower),
    m("state.rows_peak", "count", Better::Lower),
    m("state.bytes_peak", "bytes", Better::Lower),
    m("state.rows_end", "count", Better::Lower),
    // wal
    m("wal.write_offsets_us_p50", "us", Better::Lower),
    m("wal.write_commit_us_p50", "us", Better::Lower),
    m("wal.bytes_per_epoch", "bytes", Better::Lower),
    m("wal.recovery_point_ms", "ms", Better::Lower),
    // sched
    m("sched.tasks_per_epoch", "count", Better::Lower),
    m("sched.task_us_p50", "us", Better::Lower),
    m("sched.task_us_max", "us", Better::Lower),
    m("sched.queue_wait_us", "us", Better::Lower),
    // sql / plan
    m("sql.parse_us", "us", Better::Lower),
    m("plan.analyze_optimize_us", "us", Better::Lower),
    m("plan.fingerprint_us", "us", Better::Lower),
    m("plan.sharing_split_us", "us", Better::Lower),
    // core
    m("core.epochs", "count", Better::Lower),
    m("core.rows_per_epoch_p50", "count", Better::Higher),
    m("core.epoch_us_p50", "us", Better::Lower),
    m("core.epoch_us_p95", "us", Better::Lower),
    m("core.self_us_per_epoch", "us", Better::Lower),
    m("core.self_share_of_epoch", "ratio", Better::Lower),
    m("core.phase_us.admission", "us", Better::Lower),
    m("core.phase_us.source-read", "us", Better::Lower),
    m("core.phase_us.execute", "us", Better::Lower),
    m("core.phase_us.sink-commit", "us", Better::Lower),
    m("core.phase_us.wal", "us", Better::Lower),
    m("core.phase_us.state-commit", "us", Better::Lower),
    m("core.phase_us.finalize", "us", Better::Lower),
    m("core.phase_us.execute-map", "us", Better::Lower),
    m("core.phase_us.execute-shuffle-write", "us", Better::Lower),
    m("core.phase_us.execute-shuffle-read", "us", Better::Lower),
    m("core.phase_us.execute-reduce", "us", Better::Lower),
    m("core.phase_us.execute-merge", "us", Better::Lower),
    m("core.xcheck_source_ratio", "ratio", Better::Lower),
    m("core.xcheck_sink_ratio", "ratio", Better::Lower),
    m("core.trigger_gap_us_p50", "us", Better::Lower),
    m("core.late_dropped_rows", "count", Better::Lower),
    m("core.restart_start_ms", "ms", Better::Lower),
    m("core.restart_first_epoch_ms", "ms", Better::Lower),
    m("core.recovery_ms", "ms", Better::Lower),
    m("core.continuous_process_ns_per_row", "ns", Better::Lower),
    // multi
    m("multi.submit_us_per_query", "us", Better::Lower),
    m("multi.tick_us_p50", "us", Better::Lower),
    m("multi.groups", "count", Better::Lower),
    m("multi.fanout_commit_us_p50", "us", Better::Lower),
    m("multi.state_bytes_vs_single", "ratio", Better::Lower),
    // driver (the harness itself)
    m("driver.generator_lag_ms_p95", "ms", Better::Lower),
    m("driver.latency_p99_ms", "ms", Better::Lower),
    m("driver.latency_samples", "count", Better::Higher),
    m("driver.trace_overhead_ratio", "ratio", Better::Lower),
    m("driver.untraced_throughput_rps", "1/s", Better::Higher),
    m("driver.untraced_latency_p50_ms", "ms", Better::Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_meet_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        let setup_bound = END_TO_END[0].1;
        assert_eq!(END_TO_END[0].0.name, "setup_s");
        assert!(END_TO_END
            .iter()
            .all(|(_, b)| *b <= setup_bound && *b <= 0.25));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(crate::RUN_SECONDS));
    }
}
