//! The epoch profiler: attributes each epoch's wall-clock time to a
//! fixed phase tree, so an operator can see *where* an epoch's time
//! went, not just how long it took (§7.4 Monitoring, and the
//! prerequisite for any adaptive execution decision).
//!
//! The phase tree mirrors the epoch protocol:
//!
//! ```text
//! epoch
//! ├─ admission        offset snapshots, backlog accounting, budgeting
//! ├─ source-read      reading the logged offset ranges
//! ├─ quarantine-probe per-row poison probe (isolation mode only)
//! ├─ execute          the incremental plan
//! │  ├─ map           map-stage scatter (parallel path)
//! │  ├─ shuffle-write bucketing rows by key into partitions
//! │  ├─ shuffle-read  collecting buckets into per-partition inputs
//! │  ├─ reduce        reduce-stage scatter (sharded stateful kernels)
//! │  └─ merge         deterministic merge/sort of partition outputs
//! ├─ sink-commit      delivering the epoch's output
//! ├─ wal              offset + commit log appends
//! ├─ state-commit     state checkpoint, manifest, retention GC
//! └─ finalize         rate-controller update, progress assembly
//! ```
//!
//! Top-level phases are disjoint wall-time intervals measured on the
//! engine thread, so they sum to (almost all of) the epoch's total;
//! the `execute` children overlap the parent and — for `shuffle-write`,
//! which runs inside map tasks — are CPU time summed across workers,
//! so children may legitimately exceed their parent on multi-core runs.
//!
//! A profile is one of the two records an epoch writes (the other is
//! the event log): the engine times each top-level phase at one site,
//! which also opens the phase's trace span under the same name, and
//! the profile rides on the epoch's progress record. The query's
//! progress history is therefore the profile history too; the
//! introspection server's `/query/<name>/profile` endpoint renders it.

use serde::{Content, Serialize};

/// Top-level phases (disjoint engine-thread intervals).
pub const PHASE_ADMISSION: &str = "admission";
pub const PHASE_SOURCE_READ: &str = "source-read";
pub const PHASE_QUARANTINE_PROBE: &str = "quarantine-probe";
pub const PHASE_EXECUTE: &str = "execute";
pub const PHASE_SINK_COMMIT: &str = "sink-commit";
pub const PHASE_WAL: &str = "wal";
pub const PHASE_STATE_COMMIT: &str = "state-commit";
pub const PHASE_FINALIZE: &str = "finalize";

/// Children of [`PHASE_EXECUTE`] on the data-parallel path.
pub const PHASE_MAP: &str = "map";
pub const PHASE_SHUFFLE_WRITE: &str = "shuffle-write";
pub const PHASE_SHUFFLE_READ: &str = "shuffle-read";
pub const PHASE_REDUCE: &str = "reduce";
pub const PHASE_MERGE: &str = "merge";

/// Time attributed to one phase of one epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PhaseDuration {
    /// Phase name (one of the `PHASE_*` constants).
    pub name: String,
    /// Parent phase, `None` for top-level phases.
    pub parent: Option<String>,
    pub duration_us: u64,
}

/// Per-task skew statistics for one epoch's scheduled tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TaskSkew {
    /// Tasks launched.
    pub count: u64,
    pub min_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl TaskSkew {
    /// Compute skew stats from raw per-task durations. `None` when no
    /// tasks ran.
    pub fn from_durations(durations: &[u64]) -> Option<TaskSkew> {
        if durations.is_empty() {
            return None;
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |p: f64| sorted[(((n - 1) as f64) * p).round() as usize];
        Some(TaskSkew {
            count: n as u64,
            min_us: sorted[0],
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: sorted[n - 1],
        })
    }
}

/// Shuffle-exchange attribution for one epoch.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ShuffleProfile {
    /// Rows routed to each reduce partition.
    pub rows_per_partition: Vec<u64>,
    /// Approximate bytes routed to each reduce partition.
    pub bytes_per_partition: Vec<u64>,
    /// Hottest partition's rows over the mean partition's rows
    /// (1.0 = perfectly balanced; 0.0 when the epoch shuffled nothing).
    pub key_skew: f64,
}

impl ShuffleProfile {
    /// Build from per-partition row/byte tallies.
    pub fn new(rows: Vec<u64>, bytes: Vec<u64>) -> ShuffleProfile {
        let total: u64 = rows.iter().sum();
        let key_skew = if total == 0 || rows.is_empty() {
            0.0
        } else {
            let mean = total as f64 / rows.len() as f64;
            *rows.iter().max().unwrap() as f64 / mean
        };
        ShuffleProfile {
            rows_per_partition: rows,
            bytes_per_partition: bytes,
            key_skew,
        }
    }

    pub fn total_rows(&self) -> u64 {
        self.rows_per_partition.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_partition.iter().sum()
    }
}

/// One epoch's complete profile: the phase tree plus task-skew,
/// shuffle and end-to-end latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    pub epoch: u64,
    /// The epoch's measured wall-clock total (µs).
    pub total_us: u64,
    pub phases: Vec<PhaseDuration>,
    /// Skew stats across all tasks the scheduler launched this epoch;
    /// `None` on the serial path.
    pub tasks: Option<TaskSkew>,
    /// Shuffle-exchange attribution; `None` when the epoch ran no
    /// shuffle.
    pub shuffle: Option<ShuffleProfile>,
    /// `(min, max)` end-to-end event latency observed at sink commit
    /// (sink-commit time − record ingest time, µs); `None` when the
    /// sources carry no ingest timestamps or the epoch had no input.
    pub e2e_latency_us: Option<(u64, u64)>,
}

impl EpochProfile {
    pub fn new(epoch: u64) -> EpochProfile {
        EpochProfile {
            epoch,
            total_us: 0,
            phases: Vec::new(),
            tasks: None,
            shuffle: None,
            e2e_latency_us: None,
        }
    }

    /// Attribute `duration_us` to `name` (accumulating — phases like
    /// `wal` are recorded from more than one site per epoch).
    pub fn record(&mut self, name: &str, parent: Option<&str>, duration_us: u64) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.duration_us += duration_us;
            return;
        }
        self.phases.push(PhaseDuration {
            name: name.to_string(),
            parent: parent.map(str::to_string),
            duration_us,
        });
    }

    /// The duration attributed to one phase (0 when absent).
    pub fn phase_us(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.duration_us)
    }

    /// Sum of the top-level (parentless) phases — the wall time the
    /// profiler can account for.
    pub fn attributed_us(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.parent.is_none())
            .map(|p| p.duration_us)
            .sum()
    }

    /// Fraction of the epoch's measured wall time the phase tree
    /// attributes (1.0 = fully accounted for).
    pub fn coverage(&self) -> f64 {
        if self.total_us == 0 {
            return 1.0;
        }
        self.attributed_us() as f64 / self.total_us as f64
    }
}

// Hand-written: `attributed_us` and `coverage` are computed, and the
// `(min, max)` end-to-end latency is a `{min, max}` object.
impl Serialize for EpochProfile {
    fn ser(&self) -> Content {
        let k = |s: &str| Content::Str(s.into());
        let e2e = self.e2e_latency_us.map_or(Content::Null, |(min, max)| {
            Content::Map(vec![(k("min"), min.ser()), (k("max"), max.ser())])
        });
        Content::Map(vec![
            (k("epoch"), self.epoch.ser()),
            (k("total_us"), self.total_us.ser()),
            (k("attributed_us"), self.attributed_us().ser()),
            (k("coverage"), self.coverage().ser()),
            (k("phases"), self.phases.ser()),
            (k("tasks"), self.tasks.ser()),
            (k("shuffle"), self.shuffle.ser()),
            (k("e2e_latency_us"), e2e),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let mut p = EpochProfile::new(3);
        p.record(PHASE_WAL, None, 10);
        p.record(PHASE_WAL, None, 5);
        p.record(PHASE_MAP, Some(PHASE_EXECUTE), 7);
        assert_eq!(p.phase_us(PHASE_WAL), 15);
        assert_eq!(p.phase_us(PHASE_MAP), 7);
        // Children do not count toward the top-level attribution.
        assert_eq!(p.attributed_us(), 15);
    }

    #[test]
    fn coverage_is_attributed_over_total() {
        let mut p = EpochProfile::new(1);
        p.record(PHASE_EXECUTE, None, 95);
        p.total_us = 100;
        assert!((p.coverage() - 0.95).abs() < 1e-9);
        let empty = EpochProfile::new(2);
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn task_skew_from_durations() {
        assert_eq!(TaskSkew::from_durations(&[]), None);
        let s = TaskSkew::from_durations(&[40, 10, 20, 30]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min_us, 10);
        assert_eq!(s.max_us, 40);
        assert!(s.p50_us >= 10 && s.p50_us <= 40);
        assert_eq!(s.p99_us, 40);
    }

    #[test]
    fn shuffle_profile_key_skew() {
        let s = ShuffleProfile::new(vec![10, 10, 10, 10], vec![100, 100, 100, 100]);
        assert!((s.key_skew - 1.0).abs() < 1e-9);
        assert_eq!(s.total_rows(), 40);
        assert_eq!(s.total_bytes(), 400);
        let hot = ShuffleProfile::new(vec![30, 5, 5, 0], vec![0, 0, 0, 0]);
        assert!((hot.key_skew - 3.0).abs() < 1e-9);
        let empty = ShuffleProfile::new(vec![0, 0], vec![0, 0]);
        assert_eq!(empty.key_skew, 0.0);
    }

    #[test]
    fn json_shape_is_parseable() {
        let mut p = EpochProfile::new(7);
        p.total_us = 1000;
        p.record(PHASE_EXECUTE, None, 800);
        p.record(PHASE_MAP, Some(PHASE_EXECUTE), 300);
        p.tasks = TaskSkew::from_durations(&[100, 200]);
        p.shuffle = Some(ShuffleProfile::new(vec![3, 1], vec![64, 16]));
        p.e2e_latency_us = Some((5, 50));
        let json = crate::to_json(&vec![p]);
        let head = r#"[{"epoch":7,"total_us":1000,"attributed_us":800,"coverage":0.8,"#;
        assert!(json.starts_with(head), "{json}");
        assert!(json.contains("\"name\":\"execute\",\"parent\":null"));
        assert!(json.contains("\"name\":\"map\",\"parent\":\"execute\""));
        assert!(json.contains("\"tasks\":{\"count\":2,\"min_us\":100,"), "{json}");
        assert!(json.contains("\"rows_per_partition\":[3,1]"), "{json}");
        assert!(json.contains("\"key_skew\":1.5}"), "{json}");
        assert!(json.ends_with("\"e2e_latency_us\":{\"min\":5,\"max\":50}}]"), "{json}");
    }
}
