//! # ss-multi — multi-query execution
//!
//! The paper manages fleets of declarative queries
//! (`StreamingQueryManager`, §4.2); this crate makes a fleet *cheap*.
//! Three sharing layers sit over the single-query engine:
//!
//! 1. **Shared scans** — every sharing group reads its sources through
//!    one [`ss_bus::ScanCache`], so N groups over one topic cost one
//!    bus read per (source, offset-range) per epoch.
//! 2. **Shared operator state** — queries whose *stateful prefix* is
//!    structurally equal (canonical plan fingerprints) attach to one
//!    [`ss_core::MicroBatchExecution`]: one WAL, one state namespace,
//!    one incremental update per epoch, fanned to per-query output
//!    taps ([`FanoutSink`]) that apply each query's stateless
//!    `Project`/`Filter` suffix. Detaching a query snapshots the
//!    group's checkpoint for it (copy-on-detach).
//! 3. **Pooled scheduling** — a tick runs every admissible group's
//!    epoch as one scatter on one [`ss_sched::WorkerPool`]; per-tenant
//!    admission budgets decide which groups are admissible, and a
//!    shared epoch's rows are billed to its tenants in equal shares.
//!
//! [`SqlService`] is the front end: a long-lived session layer that
//! turns `POST /sql` into a running, sharing query.

pub mod engine;
pub mod fanout;
pub mod service;

pub use engine::{
    DetachReport, MultiQueryConfig, MultiQueryEngine, QuerySpec, Session, SharingStats,
    TickReport,
};
pub use fanout::FanoutSink;
pub use service::SqlService;
