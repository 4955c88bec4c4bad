//! # ss-exec — vectorized physical operators and the batch executor
//!
//! The execution layer of the relational engine (the stand-in for Spark
//! SQL's physical operators, §5.2/§5.3):
//!
//! * [`ops`] — stateless per-batch operators: filter, project, sort,
//!   limit, distinct.
//! * [`aggregate`] — [`HashAggregator`]: hash aggregation with group
//!   keys, event-time window expansion (tumbling *and* sliding), partial
//!   states that serialize to/from the state store, per-epoch
//!   changed-key tracking and watermark-based finalization. This is the
//!   operator the incrementalizer maps a streaming `Aggregate` onto.
//! * [`join`] — hash equi-joins (inner / left-outer / right-outer) and
//!   the symmetric-join building blocks the streaming engine buffers.
//! * [`executor`] — executes a whole [`LogicalPlan`] over a
//!   [`Catalog`] of named tables; this is the batch path, and also what
//!   the paper's "run the same code as a batch job" (§7.3) uses.
//!
//! [`LogicalPlan`]: ss_plan::LogicalPlan
//! [`HashAggregator`]: aggregate::HashAggregator
//! [`Catalog`]: executor::Catalog

pub mod aggregate;
pub mod executor;
pub mod join;
pub mod ops;

pub use aggregate::HashAggregator;
pub use executor::{execute, execute_optimized, Catalog, MemoryCatalog};
pub use join::hash_join;
