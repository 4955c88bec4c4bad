//! # ss-common — data model for the Structured Streaming reproduction
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`DataType`] / [`Value`] — the scalar type system (null, boolean,
//!   64-bit integer, 64-bit float, UTF-8 string, microsecond timestamp).
//! * [`Schema`] / [`Field`] — named, typed, nullable columns.
//! * [`Bitmap`] — a packed validity bitmap.
//! * [`Column`] — a typed, vectorized column of values (the stand-in for
//!   Spark's Tungsten columnar format; vectorized kernels over these
//!   columns play the role the paper assigns to runtime code generation).
//! * [`RecordBatch`] — a horizontal slice of a table: a schema plus one
//!   column per field, all the same length.
//! * [`Row`] — a boxed row of values, used for state-store entries and
//!   low-volume paths (per-record continuous processing).
//! * [`time`] — event-time helpers: duration parsing and window
//!   bucketing arithmetic used by the `window()` expression.
//! * [`clock`] — the unified [`Clock`] trait ([`SystemClock`] /
//!   [`SimClock`]): how every engine component reads time and sleeps,
//!   so deterministic-simulation tests can run on virtual time.
//! * [`metrics`] — counters/gauges/histograms with a Prometheus-text
//!   [`MetricsRegistry`]; the substrate of the observability layer.
//! * [`profile`] — the epoch profile: per-epoch phase-tree wall-time
//!   attribution with task-skew and shuffle statistics.
//! * [`eventlog`] — a bounded JSONL structured event log of query
//!   lifecycle events (start/progress/restart/spill/terminate/…).
//! * [`trace`] — epoch-scoped trace spans, dumpable as a
//!   chrome://tracing-compatible JSON event log, derived from the
//!   profile's phases and the event log.
//! * [`fault`] — named fail points (one-shot / every-Nth / probabilistic)
//!   wired into the engine's durability paths for chaos testing.
//! * [`isolate`] — error isolation: per-query [`ErrorPolicy`], failure
//!   fingerprinting for deterministic-failure classification, and the
//!   [`Deadline`] watchdog token.
//! * [`retry`] — [`RetryPolicy`] with exponential backoff and decorrelated
//!   jitter for transient failures.
//! * [`frame`] — CRC32 integrity frames around WAL records and
//!   checkpoint blobs.
//! * [`codec`] — the binary [`Value`]/[`Row`] encoding state checkpoints
//!   are written in, with a bounds-checked reader.
//! * [`shuffle`] — the stable FNV-1a row hash that assigns keys to
//!   shuffle partitions in data-parallel execution.
//! * [`SsError`] — the error type shared across the workspace.

pub mod batch;
pub mod bitmap;
pub mod clock;
pub mod codec;
pub mod column;
pub mod error;
pub mod eventlog;
pub mod fault;
pub mod frame;
pub mod isolate;
pub mod metrics;
pub mod profile;
pub mod offsets;
pub mod retry;
pub mod rng;
pub mod row;
pub mod schema;
pub mod shuffle;
pub mod time;
pub mod trace;
pub mod types;

pub use batch::{RecordBatch, VECTOR_ROWS};
pub use bitmap::Bitmap;
pub use clock::{
    system_clock, Clock, ClockRef, Participation, SimClock, StepClock, SystemClock,
};
pub use column::{Column, ColumnBuilder};
pub use error::{Result, SsError};
pub use eventlog::{EventLog, StructuredEvent};
pub use fault::{FaultMode, FaultRegistry, FaultTrigger};
pub use isolate::{failure_fingerprint, panic_message, Deadline, ErrorPolicy, FailureTracker};
pub use metrics::{Counter, Gauge, Histogram, MetricSample, MetricValue, MetricsRegistry};
pub use profile::{EpochProfile, PhaseDuration, ShuffleProfile, TaskSkew};
pub use retry::{retry, retry_result, RetryOutcome, RetryPolicy};
pub use rng::XorShift64;
pub use offsets::{OffsetRange, PartitionOffsets};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use shuffle::{shuffle_hash, shuffle_partition};
pub use trace::{TraceEvent, TraceLog, TraceSpan};
pub use types::{DataType, Value};

/// `value` as compact JSON: the one writer of every JSON body the
/// engine serves (introspection, event log, dead letters, SQL service).
pub fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("string-keyed JSON always serializes")
}
