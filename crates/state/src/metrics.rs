//! State-store instrumentation: per-store counters for key access,
//! evictions, and checkpoint/restore latency, registered under the
//! `ss_state_*` metric families.

use std::sync::Arc;

use ss_common::{Counter, Gauge, Histogram, MetricsRegistry};

/// Shared instrument handles for one [`crate::StateStore`]. Cloned into
/// every [`crate::OpState`] the store hands out so hot-path key
/// operations record without reaching back into the store.
#[derive(Debug, Clone)]
pub struct StateMetrics {
    /// `ss_state_gets_total` — key lookups.
    pub gets: Counter,
    /// `ss_state_puts_total` — key writes.
    pub puts: Counter,
    /// `ss_state_removes_total` — key deletions (evictions included).
    pub removes: Counter,
    /// `ss_state_evictions_total` — watermark/timeout-driven deletions
    /// (a subset of `removes`).
    pub evictions: Counter,
    /// `ss_state_keys` — keys currently held in memory across all
    /// operators (spilled operators' keys are not counted).
    pub keys: Gauge,
    /// `ss_state_bytes` — approximate bytes of in-memory state.
    pub bytes: Gauge,
    /// `ss_state_spills_total` — operators spilled to the checkpoint
    /// backend under memory pressure.
    pub spills: Counter,
    /// `ss_state_spilled_bytes` — approximate bytes currently resident
    /// in spill blobs instead of memory.
    pub spilled_bytes: Gauge,
    /// `ss_state_spill_reloads_total` — spilled operators transparently
    /// reloaded on access.
    pub spill_reloads: Counter,
    /// `ss_state_checkpoint_us` — time to write one checkpoint.
    pub checkpoint_us: Histogram,
    /// `ss_state_checkpoint_bytes` — framed size of each checkpoint blob.
    pub checkpoint_bytes: Histogram,
    /// `ss_state_restore_us` — time to restore from checkpoints.
    pub restore_us: Histogram,
}

impl StateMetrics {
    pub fn new(registry: &MetricsRegistry) -> Arc<StateMetrics> {
        registry.describe("ss_state_gets_total", "State-store key lookups.");
        registry.describe("ss_state_puts_total", "State-store key writes.");
        registry.describe("ss_state_removes_total", "State-store key deletions.");
        registry.describe(
            "ss_state_evictions_total",
            "Watermark/timeout-driven state deletions (subset of removes).",
        );
        registry.describe("ss_state_keys", "Keys currently held in the state store.");
        registry.describe("ss_state_bytes", "Approximate bytes of in-memory state.");
        registry.describe(
            "ss_state_spills_total",
            "Operators spilled to the checkpoint backend under memory pressure.",
        );
        registry.describe(
            "ss_state_spilled_bytes",
            "Approximate bytes resident in spill blobs instead of memory.",
        );
        registry.describe(
            "ss_state_spill_reloads_total",
            "Spilled operators transparently reloaded on access.",
        );
        registry.describe("ss_state_checkpoint_us", "State checkpoint write latency.");
        registry.describe("ss_state_checkpoint_bytes", "Bytes written per state checkpoint.");
        registry.describe("ss_state_restore_us", "State restore latency.");
        Arc::new(StateMetrics {
            gets: registry.counter("ss_state_gets_total", &[]),
            puts: registry.counter("ss_state_puts_total", &[]),
            removes: registry.counter("ss_state_removes_total", &[]),
            evictions: registry.counter("ss_state_evictions_total", &[]),
            keys: registry.gauge("ss_state_keys", &[]),
            bytes: registry.gauge("ss_state_bytes", &[]),
            spills: registry.counter("ss_state_spills_total", &[]),
            spilled_bytes: registry.gauge("ss_state_spilled_bytes", &[]),
            spill_reloads: registry.counter("ss_state_spill_reloads_total", &[]),
            checkpoint_us: registry.histogram("ss_state_checkpoint_us", &[]),
            checkpoint_bytes: registry.histogram("ss_state_checkpoint_bytes", &[]),
            restore_us: registry.histogram("ss_state_restore_us", &[]),
        })
    }
}
