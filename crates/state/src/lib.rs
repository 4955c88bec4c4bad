//! # ss-state — the state store (§6.1)
//!
//! "The system uses a larger-scale state store to hold snapshots of
//! operator states for long-running aggregation operators. These are
//! written asynchronously, and may be 'behind' the latest data written
//! to the output sink."
//!
//! This crate provides exactly that component:
//!
//! * [`StateStore`] — keyed state for any number of stateful operators
//!   (aggregations, stream–stream join buffers, `mapGroupsWithState`
//!   keys), tagged with the epoch of each checkpoint;
//! * delta + periodic full checkpoints in one compact binary encoding
//!   (below), written atomically through a pluggable
//!   [`CheckpointBackend`] (local filesystem standing in for HDFS/S3,
//!   plus an in-memory backend for tests);
//! * point-in-time [`StateStore::restore`] to any retained epoch, which
//!   is what both failure recovery and manual rollback (§7.2) build on;
//! * [`StateStore::truncate_after`] to discard checkpoints past a
//!   rollback point;
//! * [`StateStore::dump_json`] to read any retained checkpoint as JSON;
//! * **typed residency** ([`TypedTable`]): an operator may declare its
//!   namespace in the store in its own representation — the aggregate's
//!   group table — so the state exists once, in one form for life; the
//!   rules (declare, restore, spill) are in [`store`]'s docs.
//!
//! ## Checkpoint format
//!
//! A blob is `state/chk-<epoch>-{full,delta}.bin`: an `ss_common::frame`
//! CRC32C frame around a body encoded by reference from the operator
//! maps and typed tables (rows and values as in [`ss_common::codec`];
//! varints are LEB128, zigzag where signed):
//!
//! ```text
//! body    = "SSCK", version u8 (2), kind u8 (0 delta | 1 full),
//!           epoch u64 LE, varint #ops, op*
//! op      = name (varint length, UTF-8), form u8, section
//! section = form 0: varint #entries, entry*, varint #removed, row*
//!         | form 1: header, varint #runs, run*, varint #runs, keys*
//! entry   = key row, timeout value (NULL | Int64), varint #values, row*
//! header  = key u8 (0 row | 1 BIGINT | 2 TIMESTAMP | +2 after a window),
//!           varint #slots, slot u8* (0 count | 1 BIGINT | 2 TIMESTAMP |
//!           3 state row)
//! run     = keys, one column per slot
//! keys    = window start zigzag varint, varint n, key column
//! column  = count, BIGINT, TIMESTAMP, integer key: a NULL bitmap
//!           ((n+7)/8 bytes), a zigzag varint per non-NULL | state row,
//!           row key: row*n
//! ```
//!
//! Removed keys are deltas' only. Map namespaces write form 0, a
//! declared group table form 1 ([`section`] reads it back as the form-0
//! entries it stands for); a v1 body (no form bytes) still reads. A
//! spill blob (`state/spill/<op>.bin`) is a full body holding one
//! operator. Every count is checked against the bytes that remain, so a
//! malformed body is `Corruption` (which `restore_best` skips); a
//! version newer than this build is `Unsupported`, which propagates —
//! skipping it would roll state back and prune the newer chain. Blobs
//! written by older builds (`….json`, the serde form of the same
//! document) are still read; nothing writes them. The WAL, the manifest
//! and the HA lease remain JSON.

pub mod backend;
pub mod metrics;
pub mod replicate;
pub mod section;
pub mod store;

pub use backend::{CheckpointBackend, FsBackend, MemoryBackend};
pub use metrics::StateMetrics;
pub use replicate::{ReplicatedBackend, ScrubReport};
pub use store::{
    BudgetReport, MemoryBudget, OpState, StateEntry, StateStore, TypedTable,
};
