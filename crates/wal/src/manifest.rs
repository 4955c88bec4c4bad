//! The checkpoint `MANIFEST`: a versioned, self-describing summary of a
//! checkpoint directory, making the checkpoint a **contract between
//! deployments** rather than an opaque pile of epoch files.
//!
//! One CRC-framed, atomically-written JSON document at the root of the
//! checkpoint backend records:
//!
//! * the manifest **format version** (a newer-than-supported version is
//!   refused — forward-compat guard — while a checkpoint with *no*
//!   manifest reads as legacy v0 and skips compatibility checking);
//! * the **engine** that wrote it (microbatch vs continuous state
//!   layouts are not interchangeable);
//! * the query's progress **as of the last manifest write** (not the
//!   last epoch): epoch, per-source offsets and the event-time
//!   watermark — informational; recovery takes all three from the WAL;
//! * whether the checkpoint was **sealed** by a graceful drain (a
//!   sealed checkpoint has no in-flight epoch to re-run);
//! * the canonical **plan fingerprint** plus, per stateful operator, a
//!   stable id and its semantic signature ([`OperatorSignature`]) — the
//!   inputs to restart-time compatibility checking.
//!
//! The manifest is advisory metadata *about* the WAL and state files
//! next to it; recovery correctness never depends on it being current.
//! A run writes it with its first checkpoint, again whenever a
//! layout-bearing field (everything but the three progress fields)
//! changes, and sealed on graceful stop.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ss_common::frame;
use ss_common::offsets::PartitionOffsets;
use ss_common::{Result, SsError};
use ss_plan::OperatorSignature;
use ss_state::CheckpointBackend;

/// Backend key of the manifest document. Lives at the checkpoint root,
/// outside the `wal/` and `state/` prefixes, so log truncation and
/// state purges never touch it.
pub const MANIFEST_KEY: &str = "MANIFEST.json";

/// Newest manifest format this build can read and the version it
/// writes. Checkpoints without a manifest are format 0 (the layout of
/// builds that predate manifests). v2 marks a directory whose state
/// checkpoints are binary `.bin` blobs: a v1 build would not see them
/// and restore a stale JSON one, so it must refuse the directory. v1
/// manifests (JSON state blobs, which this build still reads) load.
pub const MANIFEST_VERSION: u32 = 2;

/// The manifest document. See the module docs for field semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version (currently [`MANIFEST_VERSION`]).
    pub version: u32,
    /// The query name the checkpoint belongs to.
    pub query_name: String,
    /// `microbatch` or `continuous`.
    pub engine: String,
    /// The newest epoch when this manifest was written (later epochs
    /// do not rewrite it; see the module docs).
    pub last_epoch: u64,
    /// Source name → end offsets consumed through `last_epoch`.
    pub sources: BTreeMap<String, PartitionOffsets>,
    /// Event-time watermark at `last_epoch` (µs; `i64::MIN` = none).
    pub watermark_us: i64,
    /// True once a graceful drain sealed the checkpoint: every defined
    /// epoch is committed and no in-flight work remains.
    pub sealed: bool,
    /// Canonical whole-plan fingerprint (informational; per-operator
    /// decisions use `operators`).
    pub plan_fingerprint: String,
    /// Signature of every stateful operator, in incrementalizer id
    /// order.
    pub operators: Vec<OperatorSignature>,
    /// Number of shuffle partitions the stateful operators' checkpoints
    /// are sharded into. `None` (manifests written before data-parallel
    /// execution; absent fields deserialize as `None`) and `Some(1)`
    /// both mean the serial unsharded layout (`{op_id}`); `Some(N)` for
    /// `N > 1` means per-partition namespaces (`{op_id}/p{r}`). Restart
    /// with a different partition count repartitions the restored state
    /// by shuffle hash. Read through
    /// [`Manifest::state_partitions`](Self::state_partitions) rather
    /// than the raw field.
    pub state_partitions: Option<u32>,
    /// Fencing epoch of the lease held when this manifest was written,
    /// when HA is enabled (`None` otherwise and in manifests written
    /// before HA existed; absent fields deserialize as `None`). A
    /// standby promoting over this checkpoint must hold a fencing epoch
    /// strictly greater than this value.
    pub fencing_epoch: Option<u64>,
}

impl Manifest {
    /// The state-shard count this checkpoint was written with (absent =
    /// legacy serial layout = 1).
    pub fn state_partitions(&self) -> u32 {
        self.state_partitions.unwrap_or(1).max(1)
    }

    /// Read the manifest from a checkpoint backend.
    ///
    /// * `Ok(None)` — no manifest: a legacy **v0** checkpoint (or a
    ///   fresh directory); callers skip compatibility checking and rely
    ///   on the WAL/state files alone, exactly as older builds did.
    /// * `Err(IncompatibleUpgrade)` — the manifest declares a format
    ///   version newer than this build understands; refusing early
    ///   beats misreading a future layout.
    /// * `Err(Corruption)` — the document exists but fails CRC or JSON
    ///   validation.
    pub fn load(backend: &Arc<dyn CheckpointBackend>) -> Result<Option<Manifest>> {
        let Some(data) = backend.read(MANIFEST_KEY)? else {
            return Ok(None);
        };
        let bytes = if frame::is_framed(&data) {
            frame::decode(&data)
                .map_err(|e| SsError::Corruption(format!("checkpoint manifest: {e}")))?
        } else {
            &data
        };
        let manifest: Manifest = serde_json::from_slice(bytes)
            .map_err(|e| SsError::Corruption(format!("checkpoint manifest: bad JSON: {e}")))?;
        if manifest.version > MANIFEST_VERSION {
            return Err(SsError::IncompatibleUpgrade(format!(
                "checkpoint manifest is format v{} but this build supports at most v{}; \
                 upgrade the engine before resuming from this checkpoint",
                manifest.version, MANIFEST_VERSION
            )));
        }
        Ok(Some(manifest))
    }

    /// Atomically (re)write the manifest, CRC-framed.
    pub fn write(&self, backend: &Arc<dyn CheckpointBackend>) -> Result<()> {
        let data = serde_json::to_vec_pretty(self)
            .map_err(|e| SsError::Serde(format!("manifest encode: {e}")))?;
        backend.write_atomic(MANIFEST_KEY, &frame::encode(&data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_state::MemoryBackend;

    fn backend() -> Arc<dyn CheckpointBackend> {
        Arc::new(MemoryBackend::new())
    }

    fn manifest() -> Manifest {
        let mut sources = BTreeMap::new();
        sources.insert("kafka".to_string(), PartitionOffsets::from([(0, 42)]));
        Manifest {
            version: MANIFEST_VERSION,
            query_name: "q".into(),
            engine: "microbatch".into(),
            last_epoch: 7,
            sources,
            watermark_us: 1_000_000,
            sealed: false,
            plan_fingerprint: "00ff00ff00ff00ff".into(),
            operators: Vec::new(),
            state_partitions: None,
            fencing_epoch: None,
        }
    }

    #[test]
    fn round_trips_through_backend() {
        let b = backend();
        assert_eq!(Manifest::load(&b).unwrap(), None); // v0: no manifest
        let m = manifest();
        m.write(&b).unwrap();
        assert_eq!(Manifest::load(&b).unwrap(), Some(m));
    }

    #[test]
    fn is_crc_framed_human_readable_json() {
        let b = backend();
        manifest().write(&b).unwrap();
        let raw = b.read(MANIFEST_KEY).unwrap().unwrap();
        assert!(frame::is_framed(&raw));
        let text = String::from_utf8(frame::decode(&raw).unwrap().to_vec()).unwrap();
        assert!(text.contains("\"engine\": \"microbatch\""));
        assert!(text.contains("\"last_epoch\": 7"));
    }

    #[test]
    fn manifests_without_state_partitions_default_to_serial_layout() {
        // A manifest written before data-parallel execution existed has
        // no `state_partitions` field; it must read as 1 (unsharded).
        let b = backend();
        let legacy = r#"{
            "version": 1,
            "query_name": "q",
            "engine": "microbatch",
            "last_epoch": 7,
            "sources": {},
            "watermark_us": 0,
            "sealed": false,
            "plan_fingerprint": "00ff00ff00ff00ff",
            "operators": []
        }"#;
        b.write_atomic(MANIFEST_KEY, legacy.as_bytes()).unwrap();
        let m = Manifest::load(&b).unwrap().unwrap();
        assert_eq!(m.state_partitions, None);
        assert_eq!(m.state_partitions(), 1);
        let mut sharded = manifest();
        sharded.state_partitions = Some(4);
        assert_eq!(sharded.state_partitions(), 4);
    }

    #[test]
    fn newer_format_version_is_refused() {
        let b = backend();
        let mut m = manifest();
        m.version = MANIFEST_VERSION + 1;
        m.write(&b).unwrap();
        let err = Manifest::load(&b).unwrap_err();
        assert_eq!(err.category(), "incompatible_upgrade");
        let newer = format!("format v{}", MANIFEST_VERSION + 1);
        assert!(err.to_string().contains(&newer), "{err}");
    }

    #[test]
    fn torn_manifest_is_corruption_not_silence() {
        let b = backend();
        manifest().write(&b).unwrap();
        let mut raw = b.read(MANIFEST_KEY).unwrap().unwrap();
        raw.truncate(raw.len() / 2);
        b.write_atomic(MANIFEST_KEY, &raw).unwrap();
        assert_eq!(Manifest::load(&b).unwrap_err().category(), "corruption");
    }

    #[test]
    fn unframed_manifest_from_interrupted_tooling_still_reads() {
        // Mirrors the WAL's legacy-read policy: raw JSON (no frame) is
        // accepted so hand-edited manifests keep working.
        let b = backend();
        let data = serde_json::to_vec_pretty(&manifest()).unwrap();
        b.write_atomic(MANIFEST_KEY, &data).unwrap();
        assert_eq!(Manifest::load(&b).unwrap(), Some(manifest()));
    }
}
