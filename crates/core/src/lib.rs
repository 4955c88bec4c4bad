//! # ss-core — Structured Streaming
//!
//! The paper's primary contribution: a declarative streaming engine that
//! **automatically incrementalizes** a static relational query and
//! executes it with exactly-once semantics over replayable sources and
//! idempotent sinks.
//!
//! The pieces, mapped to the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`context`] / [`dataframe`] | §4 programming model: `readStream` → DataFrame ops → `writeStream` |
//! | [`incremental`] | §5.2 incrementalization: logical plan → stateful operator DAG |
//! | [`watermark`] | §4.3.1 event-time watermarks |
//! | [`stateful`] | §4.3.2 `mapGroupsWithState` / `flatMapGroupsWithState` execution |
//! | [`sjoin`] | §5.2 stream–stream joins with buffered, watermark-evicted state |
//! | [`microbatch`] | §6.1–6.2 epoch protocol, WAL, state checkpoints, recovery, adaptive batching |
//! | [`continuous`] | §6.3 continuous processing mode |
//! | [`query`] | §7 operational surface: queries, progress metrics, rollback |
//!
//! ## A taste (the paper's §4.1 example, in Rust)
//!
//! ```
//! use std::sync::Arc;
//! use ss_core::prelude::*;
//!
//! // A bus topic ("Kafka") with click events.
//! let bus = Arc::new(ss_bus::MessageBus::new());
//! bus.create_topic("clicks", 1).unwrap();
//! let schema = ss_common::Schema::of(vec![
//!     ss_common::Field::new("country", ss_common::DataType::Utf8),
//! ]);
//! bus.append("clicks", 0, vec![ss_common::row!["CA"], ss_common::row!["US"]]).unwrap();
//!
//! // counts = data.groupBy($"country").count()
//! let ctx = StreamingContext::new();
//! let data = ctx
//!     .read_source(Arc::new(ss_bus::BusSource::new(bus, "clicks", schema).unwrap()))
//!     .unwrap();
//! let counts = data.group_by(vec![col("country")]).agg(vec![count_star()]);
//!
//! let sink = ss_bus::MemorySink::new("counts");
//! let mut query = counts
//!     .write_stream()
//!     .output_mode(OutputMode::Complete)
//!     .sink(sink.clone())
//!     .start_sync()
//!     .unwrap();
//! query.process_available().unwrap();
//! assert_eq!(sink.snapshot().len(), 2);
//! ```

pub mod admission;
pub mod context;
pub mod continuous;
pub mod dataframe;
pub mod ha;
pub mod incremental;
pub mod introspect;
pub mod metrics;
pub mod microbatch;
pub mod parallel;
pub mod query;
pub mod sjoin;
pub mod stateful;
pub mod upgrade;
pub mod watermark;

pub use admission::{PidRateController, RateControllerConfig};
pub use context::StreamingContext;
pub use dataframe::{DataFrame, DataStreamWriter, Trigger};
pub use ha::{HaConfig, StandbyStatus};
pub use introspect::{HttpExtension, HttpRequest, IntrospectServer};
pub use metrics::{OpDuration, QueryProgress, StreamingQueryListener};
pub use microbatch::MicroBatchExecution;
pub use query::{QuerySnapshot, RestartPolicy, StreamingQuery, StreamingQueryManager};
pub use upgrade::{check_compatibility, MigrationAction, StateMigration};

/// Everything a typical application needs.
pub mod prelude {
    pub use crate::admission::RateControllerConfig;
    pub use crate::context::StreamingContext;
    pub use ss_state::MemoryBudget;
    pub use crate::dataframe::{DataFrame, DataStreamWriter, Trigger};
    pub use crate::ha::{HaConfig, StandbyStatus};
    pub use crate::introspect::IntrospectServer;
    pub use crate::microbatch::MicroBatchConfig;
    pub use crate::metrics::{QueryProgress, StreamingQueryListener};
    pub use crate::query::{RestartPolicy, StreamingQuery, StreamingQueryManager};
    pub use ss_expr::{avg, col, count, count_star, lit, max, min, sum, window, window_sliding};
    pub use ss_plan::{JoinType, OutputMode};
}
