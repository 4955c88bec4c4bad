//! # structured-streaming
//!
//! A from-scratch Rust reproduction of **"Structured Streaming: A
//! Declarative API for Real-Time Applications in Apache Spark"**
//! (SIGMOD 2018): a streaming engine that automatically
//! **incrementalizes a static relational query** (DataFrame or SQL) and
//! executes it with exactly-once semantics over replayable sources and
//! idempotent sinks — including every substrate the paper's system
//! depends on (relational engine, message bus, write-ahead log, state
//! store, cluster scheduler) and the baselines its evaluation compares
//! against.
//!
//! ## Quickstart (the paper's §4.1 example)
//!
//! ```
//! use std::sync::Arc;
//! use structured_streaming::prelude::*;
//!
//! // A Kafka-like topic of click events.
//! let bus = Arc::new(MessageBus::new());
//! bus.create_topic("clicks", 4).unwrap();
//! let schema = Schema::of(vec![
//!     Field::new("country", DataType::Utf8),
//!     Field::new("time", DataType::Timestamp),
//! ]);
//!
//! // counts = data.groupBy($"country").count()
//! let ctx = StreamingContext::new();
//! let data = ctx
//!     .read_source(Arc::new(BusSource::new(bus.clone(), "clicks", schema).unwrap()))
//!     .unwrap();
//! let counts = data.group_by(vec![col("country")]).count();
//!
//! // counts.writeStream.outputMode("complete").start(...)
//! let sink = MemorySink::new("counts");
//! let mut query = counts
//!     .write_stream()
//!     .output_mode(OutputMode::Complete)
//!     .sink(sink.clone())
//!     .start_sync()
//!     .unwrap();
//!
//! bus.append("clicks", 0, vec![row!["CA", Value::Timestamp(0)]]).unwrap();
//! query.process_available().unwrap();
//! assert_eq!(sink.snapshot(), vec![row!["CA", 1i64]]);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ss_common`] | types, rows, columnar batches, schemas, time |
//! | [`ss_expr`] | expressions, vectorized kernels, aggregates |
//! | [`ss_plan`] | logical plans, analyzer (§5.1), optimizer (§5.3) |
//! | [`ss_exec`] | vectorized physical operators + batch executor |
//! | [`ss_state`] | versioned state store with durable checkpoints (§6.1) |
//! | [`ss_wal`] | JSON write-ahead log: offsets + commits (§6.1, §7.2) |
//! | [`ss_bus`] | replayable message bus, sources, idempotent sinks (§3) |
//! | [`ss_core`] | the engine: incrementalizer, watermarks, microbatch + continuous execution (§4–§7) |
//! | [`ss_cluster`] | discrete-event cluster simulator (§6.2, Figure 6b) |
//! | [`ss_baselines`] | Flink-like / Kafka-Streams-like comparison systems (§9.1) |
//! | [`ss_sql`] | SQL front end |
//! | [`ss_multi`] | multi-query engine: shared scans, fingerprint-keyed state sharing, one-scatter ticks under per-tenant admission budgets, SQL service |

pub use ss_baselines;
pub use ss_bus;
pub use ss_cluster;
pub use ss_common;
pub use ss_core;
pub use ss_exec;
pub use ss_expr;
pub use ss_multi;
pub use ss_plan;
pub use ss_sql;
pub use ss_state;
pub use ss_wal;

pub mod sim;

use ss_common::Result;
use ss_core::{DataFrame, StreamingContext};

/// Run a SQL query against a context's registered sources and tables,
/// returning a DataFrame (streaming iff it scans a streaming source) —
/// the "users can write SQL directly" half of §4.1.
pub fn sql(ctx: &StreamingContext, query: &str) -> Result<DataFrame> {
    struct CtxResolver<'a>(&'a StreamingContext);
    impl ss_sql::TableResolver for CtxResolver<'_> {
        fn resolve(&self, name: &str) -> Result<(ss_common::SchemaRef, bool)> {
            self.0
                .catalog_entries()
                .into_iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, schema, streaming)| (schema, streaming))
                .ok_or_else(|| {
                    ss_common::SsError::Plan(format!("unknown table `{name}`"))
                })
        }
    }
    let plan = ss_sql::parse_query(query, &CtxResolver(ctx))?;
    Ok(ctx.dataframe_from_plan(plan))
}

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::sql;
    pub use ss_bus::{
        BusSink, BusSource, CallbackSink, EpochOutput, FileSink, FileSource, GeneratorSource,
        MemorySink, MessageBus, OverflowPolicy, Sink, Source, TopicConfig,
    };
    pub use ss_common::{
        row, DataType, ErrorPolicy, FaultMode, FaultRegistry, FaultTrigger, Field, RecordBatch,
        RetryPolicy, Row, Schema, SchemaRef, SsError, Value,
    };
    pub use ss_core::prelude::*;
    pub use ss_plan::stateful::StateTimeout;
    pub use ss_plan::SortKey;
    pub use ss_state::{FsBackend, MemoryBackend, ReplicatedBackend};
    pub use ss_wal::{FencedBackend, HaRole, LeaseManager};
}

#[cfg(test)]
mod tests {
    use super::*;
    use prelude::*;
    use std::sync::Arc;

    #[test]
    fn sql_and_dataframe_agree() {
        let ctx = StreamingContext::new();
        let batch = RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            &[row!["a", 1i64], row!["b", 2i64], row!["a", 3i64]],
        )
        .unwrap();
        ctx.read_table("t", vec![batch]).unwrap();
        let df = sql(&ctx, "SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k").unwrap();
        assert!(!df.is_streaming());
        let out = df.collect().unwrap();
        assert_eq!(out.to_rows(), vec![row!["a", 4i64], row!["b", 2i64]]);
    }

    #[test]
    fn sql_over_streams_is_streaming() {
        let ctx = StreamingContext::new();
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 1).unwrap();
        let schema = Schema::of(vec![Field::new("x", DataType::Int64)]);
        ctx.read_source(Arc::new(BusSource::new(bus, "t", schema).unwrap()))
            .unwrap();
        let df = sql(&ctx, "SELECT x FROM t WHERE x > 0").unwrap();
        assert!(df.is_streaming());
        assert!(sql(&ctx, "SELECT * FROM missing").is_err());
    }
}
