//! Query progress metrics (§7.4 Monitoring).
//!
//! "Streaming systems need to give operators clear visibility into
//! system load, backlogs, state size and other metrics." Every epoch
//! produces one [`QueryProgress`] record, carrying its profile; the
//! engine keeps one bounded history of them and the query handle
//! exposes the latest snapshot.

use std::collections::VecDeque;

use serde::Serialize;
use ss_common::profile::EpochProfile;

/// Time spent in one operator during one epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct OpDuration {
    /// The operator's stable label, e.g. `"scan:clicks"` or `"agg-0"`.
    pub op: String,
    /// Rows the operator produced this epoch.
    pub rows_out: u64,
    /// Inclusive evaluation time (µs): a node's time contains its
    /// children's, like a flame graph.
    pub duration_us: u64,
}

/// Metrics for one executed epoch; served whole as `/queries`'
/// `last_progress`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryProgress {
    pub epoch: u64,
    /// Rows read from all sources this epoch.
    pub num_input_rows: u64,
    /// Rows delivered to the sink this epoch.
    pub num_output_rows: u64,
    /// Wall-clock duration of the epoch (µs).
    pub batch_duration_us: i64,
    /// Input throughput for the epoch (rows/s).
    pub input_rows_per_second: f64,
    /// The event-time watermark in force (µs; `i64::MIN` before data).
    pub watermark_us: i64,
    /// How far the watermark trails the newest observed event time
    /// (µs); `None` when the query has no watermark or no data yet.
    pub watermark_lag_us: Option<i64>,
    /// Total keys across all stateful operators after the epoch — the
    /// "state size" metric of §2.3.
    pub state_rows: u64,
    /// Records known to exist in the sources but not yet processed
    /// (backlog).
    pub backlog_rows: u64,
    /// Per-operator evaluation breakdown for this epoch, in plan
    /// traversal order.
    pub operator_durations: Vec<OpDuration>,
    /// Time spent committing this epoch's output to the sink (µs).
    pub sink_commit_us: i64,
    /// Supervisor restarts the query has survived so far (0 for a
    /// query that has never failed).
    pub restarts: u64,
    /// How late this epoch started versus the trigger interval (µs) —
    /// the primary overload signal (0 when keeping up or when no rate
    /// controller is configured).
    pub scheduling_delay_us: u64,
    /// Rows the admission controller let into this epoch (equals
    /// `num_input_rows`; named separately because under overload it is
    /// a *decision*, not just an observation).
    pub admitted_rows: u64,
    /// The admission rate limit in force (rows/s); `None` when no rate
    /// controller is configured or it has not seeded yet.
    pub rate_limit: Option<f64>,
    /// Approximate bytes of stateful-operator state held in memory.
    pub state_bytes: u64,
    /// Approximate bytes of state spilled to the checkpoint backend
    /// under memory pressure.
    pub spilled_bytes: u64,
    /// Records shed so far by bounded bus topics feeding this query
    /// (cumulative; 0 for non-bus sources or non-shedding policies).
    pub shed_records: u64,
    /// Tasks the exchange scheduled this epoch (0 at one partition).
    pub tasks_launched: u64,
    /// Wall-clock duration of the slowest task this epoch (µs; 0 at
    /// one partition). The gap to `batch_duration_us` is scheduling
    /// plus merge overhead; a single dominant task signals skew.
    pub max_task_duration_us: u64,
    /// Poison records diverted to the dead-letter queue (or dropped,
    /// per the query's error policy) instead of failing this epoch (0
    /// outside isolation mode).
    pub quarantined_records: u64,
    /// The epoch profiler's phase-tree breakdown for this epoch:
    /// where the wall time went (admission → source read → execute →
    /// commit), task skew and shuffle attribution. `None` only for
    /// engines that do not profile (the continuous engine's epoch
    /// markers).
    pub profile: Option<EpochProfile>,
    /// High-availability role when HA is configured (`"leader"`,
    /// `"standby"` or `"fenced"`); `None` for queries without a lease.
    pub ha_role: Option<String>,
}

impl QueryProgress {
    /// Render as a one-line human-readable summary. The watermark is
    /// shown as `-` before any data has established one.
    pub fn summary(&self) -> String {
        let wm = if self.watermark_us == i64::MIN {
            "-".to_string()
        } else {
            format!("{}", self.watermark_us)
        };
        let mut s = format!(
            "epoch={} in={} out={} dur={:.1}ms rate={:.0}/s wm={} state={} backlog={}",
            self.epoch,
            self.num_input_rows,
            self.num_output_rows,
            self.batch_duration_us as f64 / 1000.0,
            self.input_rows_per_second,
            wm,
            self.state_rows,
            self.backlog_rows
        );
        if let Some(limit) = self.rate_limit {
            s.push_str(&format!(
                " limit={limit:.0}/s delay={:.1}ms",
                self.scheduling_delay_us as f64 / 1000.0
            ));
        }
        if self.spilled_bytes > 0 {
            s.push_str(&format!(" spilled={}B", self.spilled_bytes));
        }
        if self.shed_records > 0 {
            s.push_str(&format!(" shed={}", self.shed_records));
        }
        if self.tasks_launched > 0 {
            s.push_str(&format!(
                " tasks={} max_task={:.1}ms",
                self.tasks_launched,
                self.max_task_duration_us as f64 / 1000.0
            ));
        }
        if self.quarantined_records > 0 {
            s.push_str(&format!(" quarantined={}", self.quarantined_records));
        }
        if let Some(role) = &self.ha_role {
            s.push_str(&format!(" role={role}"));
        }
        s
    }
}

/// Observer of query lifecycle events (the `StreamingQueryListener`
/// surface of §7.4). Register on a query handle or engine; callbacks
/// run on the query's execution thread, so keep them short.
pub trait StreamingQueryListener: Send + Sync {
    /// Called once after every non-idle epoch with that epoch's
    /// progress record.
    fn on_progress(&self, _progress: &QueryProgress) {}

    /// Called once when the query stops, with its name and the error
    /// that terminated it (`None` for a clean stop).
    fn on_terminated(&self, _name: &str, _error: Option<&str>) {}
}

/// Progress records — and so epoch profiles — retained per query.
pub const PROGRESS_HISTORY: usize = 128;

/// The last [`PROGRESS_HISTORY`] progress records.
#[derive(Debug, Default)]
pub struct ProgressHistory {
    records: VecDeque<QueryProgress>,
    total_input_rows: u64,
    total_output_rows: u64,
}

impl ProgressHistory {
    pub fn push(&mut self, p: QueryProgress) {
        self.total_input_rows += p.num_input_rows;
        self.total_output_rows += p.num_output_rows;
        if self.records.len() == PROGRESS_HISTORY {
            self.records.pop_front();
        }
        self.records.push_back(p);
    }

    pub fn last(&self) -> Option<&QueryProgress> {
        self.records.back()
    }

    pub fn all(&self) -> impl Iterator<Item = &QueryProgress> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Cumulative rows across all epochs (not just retained ones).
    pub fn total_input_rows(&self) -> u64 {
        self.total_input_rows
    }

    pub fn total_output_rows(&self) -> u64 {
        self.total_output_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(epoch: u64, rows: u64) -> QueryProgress {
        QueryProgress {
            epoch,
            num_input_rows: rows,
            num_output_rows: rows / 2,
            batch_duration_us: 1000,
            input_rows_per_second: rows as f64 * 1000.0,
            watermark_us: 0,
            watermark_lag_us: None,
            state_rows: 3,
            backlog_rows: 0,
            operator_durations: vec![],
            sink_commit_us: 0,
            restarts: 0,
            scheduling_delay_us: 0,
            admitted_rows: rows,
            rate_limit: None,
            state_bytes: 0,
            spilled_bytes: 0,
            shed_records: 0,
            tasks_launched: 0,
            max_task_duration_us: 0,
            quarantined_records: 0,
            profile: None,
            ha_role: None,
        }
    }

    #[test]
    fn history_is_bounded_but_totals_are_not() {
        let mut h = ProgressHistory::default();
        let last = PROGRESS_HISTORY as u64 + 2;
        for e in 1..=last {
            h.push(progress(e, 10));
        }
        assert_eq!(h.len(), PROGRESS_HISTORY);
        assert_eq!(h.last().unwrap().epoch, last);
        assert_eq!(h.all().next().unwrap().epoch, 3);
        assert_eq!(h.total_input_rows(), 10 * last);
        assert_eq!(h.total_output_rows(), 5 * last);
    }

    #[test]
    fn summary_is_readable() {
        let s = progress(3, 100).summary();
        assert!(s.contains("epoch=3"));
        assert!(s.contains("in=100"));
        assert!(s.contains("wm=0"));
    }

    #[test]
    fn summary_shows_overload_fields_only_when_engaged() {
        let calm = progress(1, 10);
        assert!(!calm.summary().contains("limit="));
        assert!(!calm.summary().contains("spilled="));
        assert!(!calm.summary().contains("shed="));
        let mut hot = progress(2, 10);
        hot.rate_limit = Some(1234.0);
        hot.scheduling_delay_us = 2500;
        hot.spilled_bytes = 4096;
        hot.shed_records = 7;
        let s = hot.summary();
        assert!(s.contains("limit=1234/s"), "got: {s}");
        assert!(s.contains("delay=2.5ms"), "got: {s}");
        assert!(s.contains("spilled=4096B"), "got: {s}");
        assert!(s.contains("shed=7"), "got: {s}");
    }

    #[test]
    fn summary_shows_task_fields_only_under_parallel_execution() {
        let serial = progress(1, 10);
        assert!(!serial.summary().contains("tasks="));
        let mut par = progress(2, 10);
        par.tasks_launched = 8;
        par.max_task_duration_us = 1500;
        let s = par.summary();
        assert!(s.contains("tasks=8"), "got: {s}");
        assert!(s.contains("max_task=1.5ms"), "got: {s}");
    }

    #[test]
    fn summary_shows_quarantine_only_when_engaged() {
        let clean = progress(1, 10);
        assert!(!clean.summary().contains("quarantined="));
        let mut poisoned = progress(2, 10);
        poisoned.quarantined_records = 3;
        let s = poisoned.summary();
        assert!(s.contains("quarantined=3"), "got: {s}");
    }

    #[test]
    fn summary_shows_ha_role_only_when_configured() {
        let plain = progress(1, 10);
        assert!(!plain.summary().contains("role="));
        let mut ha = progress(2, 10);
        ha.ha_role = Some("leader".into());
        assert!(ha.summary().contains("role=leader"), "got: {}", ha.summary());
    }

    #[test]
    fn summary_renders_unset_watermark_as_dash() {
        let mut p = progress(1, 10);
        p.watermark_us = i64::MIN;
        let s = p.summary();
        assert!(s.contains("wm=-"), "got: {s}");
        // Not the raw i64::MIN sentinel.
        assert!(!s.contains("-9223372036854775808"), "got: {s}");
    }
}
