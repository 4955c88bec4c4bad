//! # ss-bus — replayable message bus and connectors
//!
//! The I/O layer of the reproduction:
//!
//! * [`bus`] — an in-process, partitioned, offset-addressed message bus:
//!   the Kafka/Kinesis stand-in. Topics are divided into partitions,
//!   each an ordered log addressable by offset and stored as typed
//!   column chunks (a batch read is a slice copy), so any range of recent
//!   input can be re-read after a failure — the *replayability*
//!   requirement the paper places on sources (§3, §6.1). Retention can
//!   be truncated to simulate expired data.
//! * [`source`] — the [`Source`] trait plus connectors: [`BusSource`]
//!   (read a topic), [`GeneratorSource`] (deterministic synthetic data,
//!   replayable by construction), [`FileSource`] (JSON files appearing
//!   in a directory — the paper's §4.1 example).
//! * [`sink`] — the [`Sink`] trait plus connectors with *idempotent
//!   epoch commits* (§3, §6.1): [`MemorySink`] (queryable result table),
//!   [`FileSink`] (epoch-named JSON files; complete mode replaces a
//!   whole result file, as in §4.1), [`BusSink`] (write back to a
//!   topic, the "stream-to-stream transform" deployment of §6.3).
//! * [`json`] — row ⇄ JSON conversion shared by the file connectors and
//!   the Kafka-Streams-style baseline (which pays this cost per hop).
//! * [`dlq`] — the [`DeadLetterQueue`]: an epoch-committed, idempotent
//!   destination for quarantined poison records with failure metadata.
//! * [`scan_cache`] — the multi-query [`ScanCache`] and
//!   [`SharedScanSource`]: N queries over one topic share one bus read
//!   per `(topic, offset-range)`, fanned out through a ref-counted
//!   cache of materialized batches.

pub mod bus;
pub mod dlq;
pub mod json;
pub mod metrics;
pub mod scan_cache;
pub mod sink;
pub mod source;

pub use bus::{MessageBus, OverflowPolicy, Record, TopicConfig};
pub use dlq::{DeadLetterQueue, DeadLetterRecord};
pub use metrics::{SinkMetrics, SourceMetrics};
pub use scan_cache::{ScanCache, ScanCacheStats, SharedScanSource};
pub use sink::{BusSink, CallbackSink, EpochOutput, FenceGuard, FencedSink, FileSink, MemorySink, Sink};
pub use source::{BusSource, FileSource, GeneratorSource, Source};
