//! The versioned, keyed state store.
//!
//! One [`StateStore`] serves all stateful operators of a query. Each
//! operator owns a keyed map ([`OpState`]) of [`Row`] → [`StateEntry`];
//! the store checkpoints every operator's map together, tagged with the
//! epoch, as either a **delta** (keys changed/removed since the previous
//! checkpoint) or a periodic **full snapshot** used as a compaction
//! point. Restoring to epoch *e* loads the newest full snapshot ≤ *e*
//! and replays deltas — this is the "reconstruct the application's
//! in-memory state from the last epoch written to the state store" step
//! of the recovery protocol (§6.1), and also the substrate for manual
//! rollback (§7.2).
//!
//! Checkpoints are one compact binary encoding (the format is laid out
//! in the crate docs), written by reference straight from the operator
//! maps and tables; [`StateStore::dump_json`] renders any retained checkpoint as
//! JSON for a person to read.
//!
//! **Typed residency.** A namespace is one kind for life, so its state
//! exists once: the `Row → StateEntry` map, or the [`TypedTable`] its
//! operator declared ([`OpState::table`], before any restore).
//! - **Declare.** Nothing converts one kind into the other: map access
//!   to a table is an invariant violation and panics, naming it.
//! - **Restore.** Each checkpointed entry goes into its namespace
//!   through one call, [`TypedTable::restore_entry`] for a table, past
//!   the owner's route ([`StateStore::restore_best_routed`]) in the same
//!   pass; a namespace no entry reaches is not created. A table writes
//!   its own [`section`] form, which reads back as the map's entries.
//! - **Spill.** The table is written out and emptied, keeping its kind;
//!   the reload refills it entry by entry.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

use ss_common::codec::{put_row, put_str, put_varint, Reader};
use ss_common::fault::FaultRegistry;
use ss_common::{frame, MetricsRegistry, Result, Row, SsError};

use crate::backend::CheckpointBackend;
use crate::metrics::StateMetrics;
use crate::section::{self, put_entry};

/// Fail-point names fired by the state store.
pub mod failpoints {
    /// Before a checkpoint blob is written to the backend.
    pub const CHECKPOINT_WRITE: &str = "state.checkpoint.write";
    /// Before a checkpoint blob is read during restore.
    pub const CHECKPOINT_LOAD: &str = "state.checkpoint.load";
}

/// The state attached to one key of one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEntry {
    /// Operator-defined payload: aggregate partial states, buffered join
    /// rows, or a `mapGroupsWithState` user state row.
    pub values: Vec<Row>,
    /// Pending timeout deadline (µs), for stateful operators with
    /// timeouts (§4.3.2).
    pub timeout_at: Option<i64>,
}

impl StateEntry {
    pub fn new(values: Vec<Row>) -> StateEntry {
        StateEntry {
            values,
            timeout_at: None,
        }
    }
}

/// One namespace's state in its operator's own representation, owned by
/// the store (see the module docs). What it reports must be what its
/// entries would as a map: `num_keys` their number, `approx_bytes` the
/// sum of their [`OpState::entry_bytes_of`].
pub trait TypedTable: Any + Send + fmt::Debug {
    fn num_keys(&self) -> usize;
    fn approx_bytes(&self) -> usize;
    /// Nothing changed or removed since the last `clear_tracking`.
    fn is_clean(&self) -> bool;
    /// Append the crate docs' `op` after its name — a form byte and its
    /// [`section`]: every entry when `full`, else the unsaved ones and
    /// the removed keys. Repeatable — a failed checkpoint write is
    /// retried.
    fn encode(&self, full: bool, out: &mut Vec<u8>);
    /// The last `encode` is durable: forget unsaved and removed.
    fn clear_tracking(&mut self);
    /// `(puts, evictions)` since the last call, for the state metrics.
    fn take_counts(&mut self) -> (u64, u64);
    /// Add one entry as read from a checkpoint or spill blob: clean, in
    /// no delta. An entry the table cannot hold is an error (and fails
    /// the restore).
    fn restore_entry(&mut self, key: Row, entry: StateEntry) -> Result<()>;
    /// Drop every entry and all tracking (spill, restore).
    fn clear(&mut self);
}

/// Keyed state for one operator, with dirty-key tracking for delta
/// checkpoints and approximate byte accounting for the memory budget.
#[derive(Debug, Default)]
pub struct OpState {
    /// The namespace's name, for the kind checks' panics.
    name: String,
    map: FxHashMap<Row, StateEntry>,
    dirty: FxHashSet<Row>,
    removed: FxHashSet<Row>,
    /// The namespace's table when it is declared as one; `map`, `dirty`
    /// and `removed` then stay empty for life.
    table: Option<Box<dyn TypedTable>>,
    /// `(keys, bytes)` of `table` as last added to the metric gauges.
    synced: (usize, usize),
    metrics: Option<Arc<StateMetrics>>,
    /// Approximate bytes held by `map` ([`Row::approx_bytes`]-based).
    bytes: usize,
    /// Store-level access tick, used to rank operators coldest-first
    /// when the memory budget forces a spill.
    last_access: u64,
}

impl OpState {
    fn payload_bytes(entry: &StateEntry) -> usize {
        std::mem::size_of::<StateEntry>()
            + entry.values.iter().map(Row::approx_bytes).sum::<usize>()
    }

    fn entry_bytes(key: &Row, entry: &StateEntry) -> usize {
        key.approx_bytes() + Self::payload_bytes(entry)
    }

    /// What [`OpState::approx_bytes`] counts for one entry, from its
    /// key's and its value rows' [`Row::approx_bytes`] — the formula a
    /// [`TypedTable`] accounts by.
    pub fn entry_bytes_of(key_bytes: usize, values_bytes: usize) -> usize {
        key_bytes + std::mem::size_of::<StateEntry>() + values_bytes
    }

    /// The namespace's table, created with `make` when the namespace is
    /// new — the operator's declaration (module docs). A namespace that
    /// holds map entries, or a table of another type, is not one: that
    /// is an invariant violation, and nothing is converted.
    pub fn table<T: TypedTable>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        if self.table.is_none() {
            let new = self.map.is_empty() && self.removed.is_empty();
            assert!(new, "state namespace `{}` holds map entries, not a table", self.name);
            self.table = Some(Box::new(make()));
        }
        let table = self.table.as_deref_mut().expect("declared above");
        (table as &mut dyn Any).downcast_mut().expect("one table type per namespace")
    }

    /// Feed the state metrics from the typed table at an epoch
    /// boundary: its puts and evictions since the last call, and the
    /// change in its keys and bytes.
    pub fn sync_table_metrics(&mut self) {
        let Some(table) = &mut self.table else { return };
        let (puts, evictions) = table.take_counts();
        let now = (table.num_keys(), table.approx_bytes());
        if let Some(m) = &self.metrics {
            m.puts.add(puts);
            m.removes.add(evictions);
            m.evictions.add(evictions);
            m.keys.add(now.0 as i64 - self.synced.0 as i64);
            m.bytes.add(now.1 as i64 - self.synced.1 as i64);
        }
        self.synced = now;
    }

    /// The map, which a table-kind namespace does not have (module docs).
    fn map_kind(&self) -> &FxHashMap<Row, StateEntry> {
        assert!(self.table.is_none(), "state namespace `{}` is a table, not a map", self.name);
        &self.map
    }

    pub fn get(&self, key: &Row) -> Option<&StateEntry> {
        if let Some(m) = &self.metrics {
            m.gets.inc();
        }
        self.map_kind().get(key)
    }

    pub fn put(&mut self, key: Row, entry: StateEntry) {
        self.map_kind();
        self.removed.remove(&key);
        if !self.dirty.contains(&key) {
            self.dirty.insert(key.clone());
        }
        let key_bytes = key.approx_bytes();
        let new_payload = Self::payload_bytes(&entry);
        let prev = self.map.insert(key, entry);
        // The key is unchanged on overwrite, so only the payload delta
        // counts; a fresh key adds both.
        let delta = match &prev {
            Some(p) => new_payload as i64 - Self::payload_bytes(p) as i64,
            None => (key_bytes + new_payload) as i64,
        };
        self.bytes = (self.bytes as i64 + delta).max(0) as usize;
        if let Some(m) = &self.metrics {
            m.puts.inc();
            m.bytes.add(delta);
            if prev.is_none() {
                m.keys.add(1);
            }
        }
    }

    pub fn remove(&mut self, key: &Row) -> Option<StateEntry> {
        self.map_kind();
        let old = self.map.remove(key);
        if let Some(old_entry) = &old {
            self.dirty.remove(key);
            self.removed.insert(key.clone());
            let freed = Self::entry_bytes(key, old_entry);
            self.bytes = self.bytes.saturating_sub(freed);
            if let Some(m) = &self.metrics {
                m.removes.inc();
                m.keys.add(-1);
                m.bytes.add(-(freed as i64));
            }
        }
        old
    }

    /// Approximate in-memory bytes held by this operator's state.
    pub fn approx_bytes(&self) -> usize {
        self.table.as_ref().map_or(self.bytes, |t| t.approx_bytes())
    }

    /// True when all in-memory content has been captured by the last
    /// checkpoint (nothing dirty, nothing removed) — the precondition
    /// for spilling this operator without losing delta information.
    fn is_clean(&self) -> bool {
        self.dirty.is_empty()
            && self.removed.is_empty()
            && self.table.as_ref().is_none_or(|t| t.is_clean())
    }

    /// Remove a key because the watermark or a timeout made it
    /// unreachable; counted separately from plain [`OpState::remove`]
    /// so operators can watch state-cleanup progress.
    pub fn evict(&mut self, key: &Row) -> Option<StateEntry> {
        let old = self.remove(key);
        if old.is_some() {
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
        }
        old
    }

    pub fn len(&self) -> usize {
        self.table.as_ref().map_or(self.map.len(), |t| t.num_keys())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map's entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &StateEntry)> {
        self.map_kind().iter()
    }

    /// Keys with a timeout deadline at or before `now_us`.
    pub fn expired_keys(&self, now_us: i64) -> Vec<Row> {
        let mut keys: Vec<Row> = self
            .iter()
            .filter(|(_, e)| e.timeout_at.is_some_and(|t| t <= now_us))
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Fill with restored entries. A map namespace that is still empty
    /// takes them whole: no second map is built (and faulted in).
    fn restore(&mut self, entries: FxHashMap<Row, StateEntry>) -> Result<()> {
        if self.table.is_some() || !self.map.is_empty() {
            return entries.into_iter().try_for_each(|(key, entry)| self.restore_entry(key, entry));
        }
        self.bytes = entries.iter().map(|(key, entry)| Self::entry_bytes(key, entry)).sum();
        self.map = entries;
        Ok(())
    }

    /// Add one entry as read from a checkpoint or spill blob (clean).
    fn restore_entry(&mut self, key: Row, entry: StateEntry) -> Result<()> {
        if let Some(table) = &mut self.table {
            return table.restore_entry(key, entry);
        }
        self.bytes += Self::entry_bytes(&key, &entry);
        self.map.insert(key, entry);
        Ok(())
    }

    /// Empty the namespace, keeping its kind (spill, restore).
    fn clear(&mut self) {
        if let Some(table) = &mut self.table {
            table.clear();
        }
        self.map.clear();
        self.dirty.clear();
        self.removed.clear();
        self.bytes = 0;
        self.synced = (0, 0);
    }

    fn clear_tracking(&mut self) {
        self.dirty.clear();
        self.removed.clear();
        if let Some(t) = &mut self.table {
            t.clear_tracking();
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct SerializedEntry {
    key: Row,
    entry: StateEntry,
}

#[derive(Debug, Serialize, Deserialize)]
struct OpCheckpoint {
    op: String,
    /// Full snapshot: all entries. Delta: changed entries only.
    entries: Vec<SerializedEntry>,
    /// Delta only: keys removed since the previous checkpoint.
    removed: Vec<Row>,
}

/// A decoded checkpoint. Binary blobs decode into it, legacy (v1) JSON
/// blobs *are* its serde form, and [`StateStore::dump_json`] renders
/// it; nothing on the write path builds one.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointFile {
    epoch: u64,
    kind: String, // "full" | "delta"
    ops: Vec<OpCheckpoint>,
}

/// First bytes of a binary checkpoint body; legacy bodies start with `{`.
const BODY_MAGIC: &[u8; 4] = b"SSCK";
/// Body format this build writes, and the newest it reads: v2 gave each
/// `op` a form byte (see [`section`]).
const BODY_VERSION: u8 = 2;

/// Append a checkpoint body, encoded by reference from the operator
/// maps and typed tables: every entry of each operator when `full`,
/// else its dirty entries and removed keys (see the crate docs for the
/// layout).
fn encode_body<'a>(
    out: &mut Vec<u8>,
    epoch: u64,
    full: bool,
    ops: impl ExactSizeIterator<Item = (&'a str, &'a OpState)>,
) {
    out.extend_from_slice(BODY_MAGIC);
    out.extend_from_slice(&[BODY_VERSION, u8::from(full)]);
    out.extend_from_slice(&epoch.to_le_bytes());
    put_varint(out, ops.len() as u64);
    for (id, st) in ops {
        put_str(out, id);
        if let Some(table) = &st.table {
            table.encode(full, out);
            continue;
        }
        out.push(section::ENTRIES);
        if full {
            put_varint(out, st.map.len() as u64);
            st.map.iter().for_each(|(k, e)| put_entry(out, k, e));
            put_varint(out, 0);
        } else {
            // Every dirty key is in the map: `put` adds it to both and
            // `remove` takes it from both, so the count is exact.
            put_varint(out, st.dirty.len() as u64);
            st.dirty.iter().for_each(|k| put_entry(out, k, &st.map[k]));
            put_varint(out, st.removed.len() as u64);
            st.removed.iter().for_each(|k| put_row(out, k));
        }
    }
}

/// Parse a binary body. Counts are checked against the bytes that
/// remain before anything is reserved (the argument of `count` is the
/// smallest encoding of one element), so a malformed body is
/// `Corruption`, never a panic or an outsized allocation.
fn decode_body(body: &[u8]) -> Result<CheckpointFile> {
    let bad = |what: &str| SsError::Corruption(what.to_string());
    let mut rd = Reader(body);
    if rd.bytes(4)? != BODY_MAGIC {
        return Err(bad("not a checkpoint body"));
    }
    let formed = match rd.u8()? {
        0 => return Err(bad("state format v0 does not exist")),
        v @ 1..=BODY_VERSION => v >= 2,
        // Not corruption: `restore_best` must stop here, not skip the
        // blob and prune the chain a newer build wrote.
        v => {
            return Err(SsError::Unsupported(format!(
                "state format v{v} is newer than this build reads (v{BODY_VERSION})"
            )))
        }
    };
    let kind = match rd.u8()? {
        0 => "delta",
        1 => "full",
        _ => return Err(bad("unknown checkpoint kind")),
    };
    let epoch = rd.u64()?;
    let mut ops = Vec::new();
    for _ in 0..rd.count(3)? {
        let op = rd.str()?.to_string();
        let (entries, removed) = section::read_op(&mut rd, formed)?;
        let entries = entries.into_iter().map(|(key, entry)| SerializedEntry { key, entry });
        ops.push(OpCheckpoint { op, entries: entries.collect(), removed });
    }
    if !rd.0.is_empty() {
        return Err(bad("trailing bytes after the last operator"));
    }
    Ok(CheckpointFile { epoch, kind: kind.into(), ops })
}

/// A checkpoint chain folded into one map per namespace.
type Chain = BTreeMap<String, FxHashMap<Row, StateEntry>>;

/// Where a restored entry goes ([`StateStore::restore_best_routed`]).
type Route<'a> = &'a mut dyn FnMut(&str, &Row, &mut StateEntry) -> Option<String>;

/// Soft and hard bounds on the store's approximate in-memory bytes.
///
/// Past the soft limit, [`StateStore::enforce_budget`] spills cold,
/// clean operators to the checkpoint backend (reloaded transparently on
/// next access). Past the hard limit, [`StateStore::check_hard_limit`]
/// returns [`SsError::ResourceExhausted`] — the graceful stand-in for
/// an OOM kill. `None` disables the respective bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    pub soft_limit_bytes: Option<usize>,
    pub hard_limit_bytes: Option<usize>,
}

/// What [`StateStore::enforce_budget`] did and where memory stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetReport {
    /// Approximate in-memory bytes after enforcement.
    pub memory_bytes: usize,
    /// Operators spilled by *this* enforcement pass.
    pub ops_spilled: usize,
    /// Approximate bytes resident in spill blobs (cumulative).
    pub spilled_bytes: u64,
}

/// The state store: every stateful operator's keyed state plus the
/// checkpoint/restore machinery.
pub struct StateStore {
    backend: Arc<dyn CheckpointBackend>,
    ops: BTreeMap<String, OpState>,
    /// Write a full snapshot every N checkpoints (1 = always full).
    snapshot_interval: u64,
    checkpoints_taken: u64,
    metrics: Option<Arc<StateMetrics>>,
    faults: FaultRegistry,
    budget: MemoryBudget,
    /// Operators currently resident in spill blobs, with their
    /// approximate byte sizes.
    spilled: BTreeMap<String, u64>,
    /// Monotonic tick stamped on each [`StateStore::operator`] access.
    access_clock: u64,
    /// Spill-reload failures stashed by the infallible
    /// [`StateStore::operator`]; surfaced by
    /// [`StateStore::check_health`] before results become durable.
    reload_errors: Vec<SsError>,
    /// Legacy-named (`.json`) checkpoint blobs found in the backend,
    /// listed at the first checkpoint (`None` until then).
    legacy_blobs: Option<Vec<String>>,
    /// Length of the last delta and the last full blob written, which
    /// size the next one's buffer.
    blob_len: [usize; 2],
}

impl StateStore {
    pub fn new(backend: Arc<dyn CheckpointBackend>) -> StateStore {
        StateStore {
            backend,
            ops: BTreeMap::new(),
            snapshot_interval: 10,
            checkpoints_taken: 0,
            metrics: None,
            faults: FaultRegistry::new(),
            budget: MemoryBudget::default(),
            spilled: BTreeMap::new(),
            access_clock: 0,
            reload_errors: Vec::new(),
            legacy_blobs: None,
            blob_len: [0; 2],
        }
    }

    /// Attach a fail-point registry; the [`failpoints`] in this module
    /// fire through it.
    pub fn set_faults(&mut self, faults: FaultRegistry) {
        self.faults = faults;
    }

    /// Set how often a full snapshot (vs. a delta) is written.
    pub fn with_snapshot_interval(mut self, every: u64) -> StateStore {
        assert!(every >= 1);
        self.snapshot_interval = every;
        self
    }

    /// Set the memory budget.
    pub fn set_budget(&mut self, budget: MemoryBudget) {
        self.budget = budget;
    }

    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Register `ss_state_*` metrics on `registry` and start recording.
    /// The key-count gauge is synced to the current contents.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let metrics = StateMetrics::new(registry);
        metrics.keys.set(self.total_keys() as i64);
        metrics.bytes.set(self.memory_bytes() as i64);
        metrics.spilled_bytes.set(self.spilled_bytes() as i64);
        for op in self.ops.values_mut() {
            op.metrics = Some(metrics.clone());
        }
        self.metrics = Some(metrics);
    }

    /// Access (creating if needed) the state of one operator. If the
    /// operator was spilled under memory pressure it is transparently
    /// reloaded; a reload failure is stashed (this accessor is on the
    /// hot path and infallible) and must be surfaced via
    /// [`StateStore::check_health`] before the epoch's output is made
    /// durable.
    pub fn operator(&mut self, id: &str) -> &mut OpState {
        self.access_clock += 1;
        let tick = self.access_clock;
        if self.spilled.contains_key(id) {
            if let Err(e) = self.reload_spilled(id) {
                self.reload_errors.push(e);
            }
        }
        let op = self.namespace(id);
        op.last_access = tick;
        op
    }

    /// The namespace `id`, created — a map, until declared — if new.
    fn namespace(&mut self, id: &str) -> &mut OpState {
        let metrics = &self.metrics;
        let new = || OpState { name: id.into(), metrics: metrics.clone(), ..OpState::default() };
        self.ops.entry(id.to_string()).or_insert_with(new)
    }

    /// Read-only operator access.
    pub fn operator_ref(&self, id: &str) -> Option<&OpState> {
        self.ops.get(id)
    }

    /// Take ownership of one operator's state, removing it from the
    /// store. Spilled state is reloaded first (failures stashed for
    /// [`StateStore::check_health`], like [`StateStore::operator`]).
    ///
    /// Parallel tasks move the [`OpState`] shards they own into worker
    /// closures — Rust has no way to hand out several `&mut OpState`
    /// from one store — and give them back with [`StateStore::put_op`]
    /// when the stage completes. Between take and put the store simply
    /// doesn't contain the operator; a crash in between loses only
    /// in-memory state, which recovery rebuilds from the checkpoint.
    pub fn take_op(&mut self, id: &str) -> OpState {
        self.operator(id);
        self.ops.remove(id).expect("created by `operator`")
    }

    /// Return an operator taken with [`StateStore::take_op`]. Dirty /
    /// removed tracking and byte accounting accumulated while the shard
    /// was out travel with the [`OpState`], so the next delta
    /// checkpoint and memory-budget pass stay correct.
    pub fn put_op(&mut self, id: &str, mut op: OpState) {
        self.access_clock += 1;
        op.last_access = self.access_clock;
        self.ops.insert(id.to_string(), op);
    }

    /// Operator ids present in the store.
    pub fn operator_ids(&self) -> Vec<String> {
        self.ops.keys().cloned().collect()
    }

    /// Total keys across operators (the "state size" metric of §2.3).
    /// Counts in-memory keys only; spilled operators contribute zero
    /// until their next access reloads them.
    pub fn total_keys(&self) -> usize {
        self.ops.values().map(|o| o.len()).sum()
    }

    /// Approximate in-memory bytes across all operators.
    pub fn memory_bytes(&self) -> usize {
        self.ops.values().map(|o| o.approx_bytes()).sum()
    }

    /// Approximate bytes currently resident in spill blobs.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled.values().sum()
    }

    /// Operator ids currently spilled to the backend.
    pub fn spilled_ops(&self) -> Vec<String> {
        self.spilled.keys().cloned().collect()
    }

    fn key_for(epoch: u64, full: bool) -> String {
        // Zero-padded so lexicographic listing equals numeric order.
        let kind = if full { "full" } else { "delta" };
        format!("state/chk-{epoch:020}-{kind}.bin")
    }

    fn spill_key(op: &str) -> String {
        // Distinct prefix from `state/chk-` so checkpoint listings and
        // epoch parsing never see spill blobs.
        format!("state/spill/{op}.bin")
    }

    /// `(epoch, is_full)` of a checkpoint key; `.json` is the suffix of
    /// the legacy (v1) blobs, which are still read but never written.
    fn parse_key(key: &str) -> Option<(u64, bool)> {
        let name = key.strip_prefix("state/chk-")?;
        let (epoch_str, kind) = name.split_once('-')?;
        let epoch = epoch_str.parse().ok()?;
        match kind {
            "full.bin" | "full.json" => Some((epoch, true)),
            "delta.bin" | "delta.json" => Some((epoch, false)),
            _ => None,
        }
    }

    /// Decode a state blob: unwrap the CRC frame, then parse the binary
    /// body — or, for a blob an older build wrote, the v1 JSON document
    /// (this is the one legacy reader; the oldest were not framed).
    /// Integrity failures are [`SsError::Corruption`] naming the blob; a
    /// body newer than this build is [`SsError::Unsupported`].
    fn decode_checkpoint(data: &[u8], key: &str) -> Result<CheckpointFile> {
        let named = |e: SsError| match e {
            SsError::Corruption(m) => SsError::Corruption(format!("checkpoint {key}: {m}")),
            SsError::Unsupported(m) => SsError::Unsupported(format!("checkpoint {key}: {m}")),
            other => other,
        };
        let bytes = if frame::is_framed(data) {
            frame::decode(data).map_err(named)?
        } else {
            data
        };
        let parsed = if bytes.starts_with(BODY_MAGIC) {
            decode_body(bytes)
        } else {
            serde_json::from_slice(bytes)
                .map_err(|e| SsError::Corruption(format!("bad JSON: {e}")))
        };
        parsed.map_err(named)
    }

    /// Write one operator's full contents to its spill blob and drop it
    /// from memory. Caller guarantees the operator exists, is clean,
    /// and is not already spilled.
    fn spill_op(&mut self, id: &str) -> Result<u64> {
        let op = self.ops.get_mut(id).expect("spill candidate exists");
        debug_assert!(op.is_clean(), "only clean operators may spill");
        let freed = op.approx_bytes() as u64;
        let keys_freed = op.len() as i64;
        let mut body = Vec::new();
        encode_body(&mut body, 0, true, std::iter::once((id, &*op)));
        self.backend
            .write_atomic(&Self::spill_key(id), &frame::encode(&body))?;
        op.clear();
        self.spilled.insert(id.to_string(), freed);
        if let Some(m) = &self.metrics {
            m.spills.inc();
            m.keys.add(-keys_freed);
            m.bytes.add(-(freed as i64));
            m.spilled_bytes.set(self.spilled_bytes() as i64);
        }
        Ok(freed)
    }

    /// Load a spilled operator back into memory and delete its blob.
    fn reload_spilled(&mut self, id: &str) -> Result<()> {
        let key = Self::spill_key(id);
        let data = self.backend.read(&key)?.ok_or_else(|| {
            SsError::Execution(format!("spill blob {key} disappeared before reload"))
        })?;
        let spilled = Self::decode_checkpoint(&data, &key)?.ops.pop().ok_or_else(|| {
            SsError::Corruption(format!("spill {key} holds no operator"))
        })?;
        let op = self.namespace(id);
        op.restore(spilled.entries.into_iter().map(|e| (e.key, e.entry)).collect())?;
        op.synced = (op.len(), op.approx_bytes());
        let (keys_loaded, bytes_loaded) = (op.synced.0 as i64, op.synced.1 as i64);
        self.backend.delete(&key)?;
        self.spilled.remove(id);
        if let Some(m) = &self.metrics {
            m.spill_reloads.inc();
            m.keys.add(keys_loaded);
            m.bytes.add(bytes_loaded);
            m.spilled_bytes.set(self.spilled_bytes() as i64);
        }
        Ok(())
    }

    /// Surface any spill-reload failure stashed by the infallible
    /// [`StateStore::operator`] accessor. The engine calls this after
    /// executing an epoch and *before* committing its output, so a
    /// failed reload (which handed an operator empty state) can never
    /// make a wrong result durable.
    pub fn check_health(&mut self) -> Result<()> {
        match self.reload_errors.pop() {
            Some(e) => {
                self.reload_errors.clear();
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// Enforce the soft memory limit: while in-memory bytes exceed it,
    /// spill clean operators coldest-first (by last access) to the
    /// checkpoint backend. Call right after a checkpoint, when every
    /// operator is clean and therefore spillable. Dirty operators are
    /// never spilled (their delta information would be lost).
    pub fn enforce_budget(&mut self) -> Result<BudgetReport> {
        let mut ops_spilled = 0usize;
        if let Some(soft) = self.budget.soft_limit_bytes {
            if self.memory_bytes() > soft {
                let mut candidates: Vec<(u64, String)> = self
                    .ops
                    .iter()
                    .filter(|(id, op)| {
                        !op.is_empty() && op.is_clean() && !self.spilled.contains_key(*id)
                    })
                    .map(|(id, op)| (op.last_access, id.clone()))
                    .collect();
                candidates.sort();
                for (_, id) in candidates {
                    if self.memory_bytes() <= soft {
                        break;
                    }
                    self.spill_op(&id)?;
                    ops_spilled += 1;
                }
            }
        }
        Ok(BudgetReport {
            memory_bytes: self.memory_bytes(),
            ops_spilled,
            spilled_bytes: self.spilled_bytes(),
        })
    }

    /// Fail with [`SsError::ResourceExhausted`] when in-memory state
    /// exceeds the hard limit — the graceful alternative to an OOM
    /// kill. The engine checks this before committing an epoch, so the
    /// offending epoch aborts and can be retried (or the query fails)
    /// with all durable state intact.
    pub fn check_hard_limit(&self) -> Result<()> {
        if let Some(hard) = self.budget.hard_limit_bytes {
            let bytes = self.memory_bytes();
            if bytes > hard {
                return Err(SsError::ResourceExhausted(format!(
                    "state store holds ~{bytes} bytes in memory, over the hard \
                     limit of {hard} bytes"
                )));
            }
        }
        Ok(())
    }

    /// Delete every spill blob and forget the spill markers. Called
    /// when in-memory state is wholesale replaced (restore) or dropped
    /// (clear): checkpoints are authoritative for recovery, so stale
    /// spill blobs must not survive to shadow them.
    fn purge_spill_blobs(&mut self) -> Result<()> {
        for key in self.backend.list("state/spill/")? {
            self.backend.delete(&key)?;
        }
        self.spilled.clear();
        self.reload_errors.clear();
        if let Some(m) = &self.metrics {
            m.spilled_bytes.set(0);
        }
        Ok(())
    }

    /// Checkpoint all operator state, tagged with `epoch`. Writes a
    /// full snapshot every `snapshot_interval` checkpoints (and always
    /// for the first one); deltas otherwise.
    pub fn checkpoint(&mut self, epoch: u64) -> Result<()> {
        let started = Instant::now();
        let full = self.checkpoints_taken.is_multiple_of(self.snapshot_interval);
        if full {
            // A full snapshot must capture spilled operators too: their
            // in-memory maps are empty, so reload them first. (Deltas
            // can skip them — a spilled operator is clean by
            // construction, so its delta is empty.)
            for id in self.spilled.keys().cloned().collect::<Vec<_>>() {
                self.reload_spilled(&id)?;
            }
        }
        self.faults.fire(failpoints::CHECKPOINT_WRITE)?;
        let ops = self.ops.iter().map(|(id, st)| (id.as_str(), st));
        // Sized from the last blob of this kind, with room in front of
        // the body for the frame header: no regrow, no second copy.
        let expected_len = self.blob_len[usize::from(full)];
        let mut buf = Vec::with_capacity((expected_len + expected_len / 8).max(64 * 1024));
        buf.resize(frame::HEADER_ROOM, 0);
        encode_body(&mut buf, epoch, full, ops);
        let blob = frame::encode_in_place(&mut buf);
        self.replace_legacy_blobs(epoch)?;
        self.backend.write_atomic(&Self::key_for(epoch, full), blob)?;
        self.blob_len[usize::from(full)] = blob.len();
        for st in self.ops.values_mut() {
            st.clear_tracking();
        }
        self.checkpoints_taken += 1;
        if let Some(m) = &self.metrics {
            m.checkpoint_us.observe(started.elapsed().as_micros() as u64);
            m.checkpoint_bytes.observe(blob.len() as u64);
        }
        Ok(())
    }

    /// One blob per epoch: delete the legacy-named (`.json`) blob an
    /// older build left for `epoch`, so a restore chain never holds an
    /// epoch under both suffixes. Only a directory resumed from such a
    /// build has any; it is listed once, at the first checkpoint.
    fn replace_legacy_blobs(&mut self, epoch: u64) -> Result<()> {
        if self.legacy_blobs.is_none() {
            let mut keys = self.backend.list("state/chk-")?;
            keys.retain(|k| k.ends_with(".json"));
            self.legacy_blobs = Some(keys);
        }
        let legacy = self.legacy_blobs.as_mut().expect("listed above");
        let of_epoch = |k: &String| Self::parse_key(k).is_some_and(|(e, _)| e == epoch);
        while let Some(i) = legacy.iter().position(of_epoch) {
            self.backend.delete(&legacy[i])?;
            legacy.swap_remove(i);
        }
        Ok(())
    }

    /// Render the retained checkpoint of `epoch` (either format) as
    /// pretty JSON — the human-readable view of what is on disk.
    pub fn dump_json(&self, epoch: u64) -> Result<String> {
        let keys = self.backend.list("state/chk-")?;
        let key = keys
            .iter()
            .find(|k| Self::parse_key(k).is_some_and(|(e, _)| e == epoch))
            .ok_or_else(|| SsError::Execution(format!("no state checkpoint for epoch {epoch}")))?;
        let data = self.backend.read(key)?.ok_or_else(|| {
            SsError::Execution(format!("checkpoint {key} disappeared during dump"))
        })?;
        serde_json::to_string_pretty(&Self::decode_checkpoint(&data, key)?)
            .map_err(|e| SsError::Serde(format!("checkpoint dump: {e}")))
    }

    /// Epochs with a retained checkpoint, ascending.
    pub fn retained_epochs(&self) -> Result<Vec<u64>> {
        let mut epochs: Vec<u64> = self
            .backend
            .list("state/chk-")?
            .iter()
            .filter_map(|k| Self::parse_key(k).map(|(e, _)| e))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        Ok(epochs)
    }

    /// The newest checkpoint epoch ≤ `at` (or the newest overall when
    /// `at` is `None`).
    pub fn latest_checkpoint(&self, at: Option<u64>) -> Result<Option<u64>> {
        Ok(self
            .retained_epochs()?
            .into_iter().rfind(|&e| at.is_none_or(|a| e <= a)))
    }

    /// Read the checkpoint chain ending at `epoch` (which must exist):
    /// the last full snapshot at or before it, then every delta up to
    /// it. Reads the backend only.
    fn read_chain(&self, epoch: u64) -> Result<Chain> {
        let keys = self.backend.list("state/chk-")?;
        let mut chain: Vec<(u64, bool, String)> = keys
            .iter()
            .filter_map(|k| Self::parse_key(k).map(|(e, f)| (e, f, k.clone())))
            .filter(|(e, _, _)| *e <= epoch)
            .collect();
        chain.sort();
        // Find the last full snapshot at or before `epoch`.
        let base_idx = chain
            .iter()
            .rposition(|(_, full, _)| *full)
            .ok_or_else(|| {
                SsError::Execution(format!("no full state snapshot at or before epoch {epoch}"))
            })?;
        if chain[chain.len() - 1].0 != epoch {
            return Err(SsError::Execution(format!(
                "no state checkpoint for epoch {epoch}"
            )));
        }
        // Load base, then apply deltas in order.
        let mut state = Chain::new();
        for (i, (_, _, key)) in chain.iter().enumerate().skip(base_idx) {
            self.faults.fire(failpoints::CHECKPOINT_LOAD)?;
            let data = self.backend.read(key)?.ok_or_else(|| {
                SsError::Execution(format!("checkpoint {key} disappeared during restore"))
            })?;
            let file = Self::decode_checkpoint(&data, key)?;
            let is_base = i == base_idx;
            for op in file.ops {
                let map = state.entry(op.op).or_default();
                if is_base {
                    map.clear();
                }
                for e in op.entries {
                    map.insert(e.key, e.entry);
                }
                for k in op.removed {
                    map.remove(&k);
                }
            }
        }
        Ok(state)
    }

    /// Replace in-memory state with `state`, read since `started`, each
    /// entry passed through `route` on its way into its namespace.
    /// Tables keep their kind and are refilled; other namespaces are
    /// rebuilt as maps, if any entry reaches them.
    fn install(&mut self, state: Chain, started: Instant, owner: bool, route: Route) -> Result<()> {
        if owner {
            // Spill blobs describe the state being replaced.
            self.purge_spill_blobs()?;
        }
        self.ops.retain(|_, op| op.table.is_some());
        self.ops.values_mut().for_each(OpState::clear);
        let mut moved = false;
        for (id, mut entries) in state {
            let mut routed = Vec::new();
            entries.retain(|key, entry| {
                let to = route(&id, key, entry);
                to.map(|to| routed.push((to, key.clone(), entry.clone()))).is_none()
            });
            moved |= !routed.is_empty();
            if !entries.is_empty() {
                self.namespace(&id).restore(entries)?;
            }
            for (to, key, entry) in routed {
                self.namespace(&to).restore_entry(key, entry)?;
            }
        }
        if moved {
            self.checkpoints_taken = 0; // the next checkpoint is full
        }
        for op in self.ops.values_mut() {
            op.synced = (op.len(), op.approx_bytes());
        }
        if let Some(m) = &self.metrics {
            m.keys.set(self.total_keys() as i64);
            m.bytes.set(self.memory_bytes() as i64);
            m.restore_us.observe(started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Load checkpoint `epoch` (which must exist) into memory **without
    /// writing to the backend**: the read half of
    /// [`restore`](Self::restore), for a reader that does not own the
    /// checkpoint (a warm standby tailing a live leader's directory).
    pub fn load(&mut self, epoch: u64) -> Result<()> {
        let started = Instant::now();
        let state = self.read_chain(epoch)?;
        self.install(state, started, false, &mut |_, _, _| None)
    }

    /// Restore all operator state as of checkpoint `epoch` (which must
    /// exist). In-memory state is replaced.
    pub fn restore(&mut self, epoch: u64) -> Result<()> {
        let started = Instant::now();
        let state = self.read_chain(epoch)?;
        self.install(state, started, true, &mut |_, _, _| None)
    }

    /// Install the newest checkpoint at or below `at` whose chain reads.
    /// Candidates are tried newest-first; one whose chain contains a
    /// corrupt blob is skipped (an older full snapshot may still be
    /// intact — the WAL replays the missing epochs). Other read errors
    /// (backend I/O, an environment failure) propagate, and so does an
    /// entry a table rejects: that fails the restore, not rolls it back.
    fn best(&mut self, at: Option<u64>, owner: bool, route: Route) -> Result<Option<u64>> {
        let candidates = self.retained_epochs()?;
        for epoch in candidates.into_iter().rev().filter(|&e| at.is_none_or(|a| e <= a)) {
            let started = Instant::now();
            match self.read_chain(epoch) {
                Ok(state) => {
                    self.install(state, started, owner, route)?;
                    return Ok(Some(epoch));
                }
                Err(SsError::Corruption(_)) => continue,
                Err(other) => return Err(other),
            }
        }
        Ok(None)
    }

    /// [`load`](Self::load) the newest loadable checkpoint at or below
    /// `at` — [`restore_best`](Self::restore_best) without its two
    /// ownership actions (no spill purge, no pruning of newer
    /// checkpoints), so it never writes. Returns the loaded epoch, or
    /// `None` (memory untouched) if nothing could be loaded.
    pub fn load_best(&mut self, at: Option<u64>) -> Result<Option<u64>> {
        self.best(at, false, &mut |_, _, _| None)
    }

    /// Restore to the newest *restorable* checkpoint at or below `at`
    /// (candidates tried newest-first, corrupt chains skipped). Once a
    /// restore succeeds, all checkpoints newer than the restored epoch
    /// are deleted so a later delta written against discarded state can
    /// never corrupt a future restore chain. Returns the restored epoch,
    /// or `None` if no checkpoint could be restored (recovery starts
    /// from empty state and recomputes via the WAL).
    pub fn restore_best(&mut self, at: Option<u64>) -> Result<Option<u64>> {
        self.restore_best_routed(at, |_, _, _| None)
    }

    /// [`restore_best`](Self::restore_best) through `route(namespace,
    /// key, entry)`, which may rewrite each entry and returns `None` to
    /// leave it where it was, unchanged, or the namespace it goes to:
    /// how the owner re-lays state out and migrates it, in one pass.
    /// After a restore that moved or rewrote any entry the next
    /// checkpoint is a full snapshot: no chain mixes two layouts.
    pub fn restore_best_routed(
        &mut self,
        at: Option<u64>,
        mut route: impl FnMut(&str, &Row, &mut StateEntry) -> Option<String>,
    ) -> Result<Option<u64>> {
        let restored = self.best(at, true, &mut route)?;
        match restored {
            Some(epoch) => self.truncate_after(epoch)?,
            None => self.clear_memory(),
        }
        Ok(restored)
    }

    /// Delete all checkpoints after `epoch` (manual rollback, §7.2).
    pub fn truncate_after(&self, epoch: u64) -> Result<()> {
        for key in self.backend.list("state/chk-")? {
            if let Some((e, _)) = Self::parse_key(&key) {
                if e > epoch {
                    self.backend.delete(&key)?;
                }
            }
        }
        Ok(())
    }

    /// The oldest epoch with a retained **full** snapshot — the floor of
    /// what [`restore`](Self::restore) can reach, and hence the oldest
    /// valid rollback target.
    pub fn earliest_full_epoch(&self) -> Result<Option<u64>> {
        Ok(self
            .backend
            .list("state/chk-")?
            .iter()
            .filter_map(|k| Self::parse_key(k))
            .filter_map(|(e, full)| full.then_some(e))
            .min())
    }

    /// Checkpoint GC: delete every checkpoint blob **strictly older**
    /// than the newest full snapshot at or before `horizon`. Deltas
    /// chained off a retained full snapshot are never orphaned — the
    /// purge boundary is always a full-snapshot epoch, so every epoch ≥
    /// the boundary remains restorable. A no-op (returns 0) when no full
    /// snapshot exists at or before `horizon`. Returns the number of
    /// blobs deleted; the new restore floor is
    /// [`earliest_full_epoch`](Self::earliest_full_epoch).
    pub fn purge_before(&self, horizon: u64) -> Result<usize> {
        let keys = self.backend.list("state/chk-")?;
        let base = keys
            .iter()
            .filter_map(|k| Self::parse_key(k))
            .filter_map(|(e, full)| (full && e <= horizon).then_some(e))
            .max();
        let Some(base) = base else {
            return Ok(0);
        };
        let mut deleted = 0usize;
        for key in &keys {
            if let Some((e, _)) = Self::parse_key(key) {
                if e < base {
                    self.backend.delete(key)?;
                    deleted += 1;
                }
            }
        }
        Ok(deleted)
    }

    /// Drop all in-memory state (e.g. before a restore or when starting
    /// a fresh query against an existing checkpoint directory). Spill
    /// blobs are purged best-effort: the spill markers are forgotten
    /// regardless, so a blob left behind by a backend error is inert
    /// (never reloaded, overwritten atomically by any future spill).
    pub fn clear_memory(&mut self) {
        let _ = self.purge_spill_blobs();
        self.spilled.clear();
        self.reload_errors.clear();
        self.ops.clear();
        if let Some(m) = &self.metrics {
            m.keys.set(0);
            m.bytes.set(0);
            m.spilled_bytes.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use ss_common::{row, Value};

    fn store() -> StateStore {
        StateStore::new(Arc::new(MemoryBackend::new())).with_snapshot_interval(3)
    }

    fn entry(v: i64) -> StateEntry {
        StateEntry::new(vec![row![v]])
    }

    #[test]
    fn put_get_remove() {
        let mut s = store();
        let op = s.operator("agg");
        op.put(row!["a"], entry(1));
        assert_eq!(op.get(&row!["a"]), Some(&entry(1)));
        assert_eq!(op.len(), 1);
        assert_eq!(op.remove(&row!["a"]), Some(entry(1)));
        assert_eq!(op.get(&row!["a"]), None);
        assert_eq!(s.total_keys(), 0);
    }

    #[test]
    fn take_op_and_put_op_preserve_checkpoint_tracking() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        // Mutate the shard while it is out of the store.
        let mut op = s.take_op("agg");
        assert!(s.operator_ref("agg").is_none());
        op.put(row!["b"], entry(2));
        op.remove(&row!["a"]);
        s.put_op("agg", op);
        s.checkpoint(2).unwrap();
        // The delta built from out-of-store tracking must restore.
        s.restore(2).unwrap();
        let op = s.operator_ref("agg").unwrap();
        assert_eq!(op.get(&row!["a"]), None);
        assert_eq!(op.get(&row!["b"]), Some(&entry(2)));
    }

    #[test]
    fn take_op_reloads_spilled_state_first() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        assert!(s.spill_op("agg").unwrap() > 0);
        let op = s.take_op("agg");
        assert_eq!(op.get(&row!["a"]), Some(&entry(1)));
        s.check_health().unwrap();
    }

    #[test]
    fn purge_before_keeps_the_delta_chain_restorable() {
        let mut s = store(); // full snapshot every 3rd checkpoint: 1, 4, 7
        for e in 1..=8 {
            s.operator("agg").put(row!["k"], entry(e as i64));
            s.checkpoint(e).unwrap();
        }
        assert_eq!(s.earliest_full_epoch().unwrap(), Some(1));

        // Horizon 6: newest full ≤ 6 is epoch 4 — epochs 1..=3 go.
        assert_eq!(s.purge_before(6).unwrap(), 3);
        assert_eq!(s.earliest_full_epoch().unwrap(), Some(4));
        assert_eq!(s.retained_epochs().unwrap(), vec![4, 5, 6, 7, 8]);
        // Every surviving epoch still restores (5 and 6 chain off 4).
        for e in 4..=8 {
            s.restore(e).unwrap();
            assert_eq!(s.operator("agg").get(&row!["k"]), Some(&entry(e as i64)));
        }
        // Restoring a purged epoch is a clean error, not silence.
        assert!(s.restore(3).is_err());

        // Horizon below any full snapshot: nothing to do.
        assert_eq!(s.purge_before(3).unwrap(), 0);
        // Idempotent at the same horizon.
        assert_eq!(s.purge_before(6).unwrap(), 0);
    }

    #[test]
    fn checkpoint_and_restore_round_trip() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.operator("join").put(row![7i64], entry(2));
        s.checkpoint(1).unwrap();
        s.operator("agg").put(row!["a"], entry(10));
        s.operator("agg").put(row!["b"], entry(3));
        s.checkpoint(2).unwrap();

        let mut fresh = StateStore::new(Arc::new(MemoryBackend::new()));
        // Can't restore from an empty backend.
        assert!(fresh.restore(2).is_err());

        s.restore(1).unwrap();
        assert_eq!(s.operator("agg").get(&row!["a"]), Some(&entry(1)));
        assert_eq!(s.operator("agg").get(&row!["b"]), None);
        assert_eq!(s.operator("join").get(&row![7i64]), Some(&entry(2)));

        s.restore(2).unwrap();
        assert_eq!(s.operator("agg").get(&row!["a"]), Some(&entry(10)));
        assert_eq!(s.operator("agg").get(&row!["b"]), Some(&entry(3)));
    }

    #[test]
    fn deltas_capture_removals() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.operator("agg").put(row!["b"], entry(2));
        s.checkpoint(1).unwrap(); // full
        s.operator("agg").remove(&row!["a"]);
        s.checkpoint(2).unwrap(); // delta with removal
        s.restore(2).unwrap();
        assert_eq!(s.operator("agg").get(&row!["a"]), None);
        assert_eq!(s.operator("agg").get(&row!["b"]), Some(&entry(2)));
    }

    #[test]
    fn snapshot_interval_produces_full_snapshots() {
        let mut s = store(); // interval 3: epochs 1,4 full; 2,3,5 delta
        for e in 1..=5u64 {
            s.operator("agg").put(row![e as i64], entry(e as i64));
            s.checkpoint(e).unwrap();
        }
        assert_eq!(s.retained_epochs().unwrap(), vec![1, 2, 3, 4, 5]);
        // Restore to a delta epoch: base (4) + nothing vs base(1)+deltas.
        s.restore(3).unwrap();
        assert_eq!(s.total_keys(), 3);
        s.restore(5).unwrap();
        assert_eq!(s.total_keys(), 5);
    }

    #[test]
    fn latest_checkpoint_filters_by_epoch() {
        let mut s = store();
        s.checkpoint(2).unwrap();
        s.checkpoint(5).unwrap();
        assert_eq!(s.latest_checkpoint(None).unwrap(), Some(5));
        assert_eq!(s.latest_checkpoint(Some(4)).unwrap(), Some(2));
        assert_eq!(s.latest_checkpoint(Some(1)).unwrap(), None);
    }

    #[test]
    fn truncate_after_enables_rollback() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.operator("agg").put(row!["a"], entry(99));
        s.checkpoint(2).unwrap();
        s.truncate_after(1).unwrap();
        assert_eq!(s.retained_epochs().unwrap(), vec![1]);
        assert!(s.restore(2).is_err());
        s.restore(1).unwrap();
        assert_eq!(s.operator("agg").get(&row!["a"]), Some(&entry(1)));
    }

    #[test]
    fn expired_keys_respect_deadlines() {
        let mut s = store();
        let op = s.operator("sess");
        let mut e1 = entry(1);
        e1.timeout_at = Some(100);
        let mut e2 = entry(2);
        e2.timeout_at = Some(200);
        op.put(row!["x"], e1);
        op.put(row!["y"], e2);
        op.put(row!["z"], entry(3)); // no timeout
        assert_eq!(op.expired_keys(150), vec![row!["x"]]);
        assert_eq!(op.expired_keys(250).len(), 2);
        assert!(op.expired_keys(50).is_empty());
    }

    #[test]
    fn restore_replaces_memory_state() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        // Uncheckpointed garbage must vanish on restore.
        s.operator("agg").put(row!["junk"], entry(9));
        s.operator("other").put(row!["junk"], entry(9));
        s.restore(1).unwrap();
        assert_eq!(s.total_keys(), 1);
        assert!(s.operator_ref("other").is_none_or(|o| o.is_empty()));
    }

    #[test]
    fn metrics_track_keys_gets_puts_and_evictions() {
        use ss_common::{MetricValue, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let mut s = store();
        s.operator("agg").put(row!["pre"], entry(0)); // before attach
        s.attach_metrics(&registry);
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(1)));

        let op = s.operator("agg");
        op.put(row!["a"], entry(1));
        op.put(row!["a"], entry(2)); // overwrite: put counted, key count unchanged
        op.get(&row!["a"]);
        op.remove(&row!["a"]);
        op.evict(&row!["pre"]);
        op.evict(&row!["missing"]); // no-op eviction is not counted

        assert_eq!(registry.value("ss_state_puts_total", &[]), Some(MetricValue::Counter(2)));
        assert_eq!(registry.value("ss_state_gets_total", &[]), Some(MetricValue::Counter(1)));
        assert_eq!(registry.value("ss_state_removes_total", &[]), Some(MetricValue::Counter(2)));
        assert_eq!(
            registry.value("ss_state_evictions_total", &[]),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(0)));

        // Checkpoint/restore record latency and resync the key gauge.
        s.operator("agg").put(row!["b"], entry(3));
        s.checkpoint(1).unwrap();
        s.operator("agg").put(row!["c"], entry(4));
        s.restore(1).unwrap();
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(1)));
        match registry.value("ss_state_checkpoint_us", &[]) {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(count, 1),
            other => panic!("missing checkpoint histogram: {other:?}"),
        }
        match registry.value("ss_state_checkpoint_bytes", &[]) {
            Some(MetricValue::Histogram { count, sum }) => assert!(count == 1 && sum > 0),
            other => panic!("missing checkpoint-bytes histogram: {other:?}"),
        }
        match registry.value("ss_state_restore_us", &[]) {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(count, 1),
            other => panic!("missing restore histogram: {other:?}"),
        }
        s.clear_memory();
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(0)));
    }

    /// What the v1 writer produced: the serde form of the checkpoint,
    /// pretty-printed, CRC-framed, under a `.json` key.
    fn write_legacy(backend: &MemoryBackend, epoch: u64, full: bool, ops: Vec<OpCheckpoint>) {
        let kind = if full { "full" } else { "delta" };
        let file = CheckpointFile { epoch, kind: kind.into(), ops };
        let key = format!("state/chk-{epoch:020}-{kind}.json");
        let data = serde_json::to_vec_pretty(&file).unwrap();
        backend.write_atomic(&key, &frame::encode(&data)).unwrap();
    }

    fn legacy_op(op: &str, entries: Vec<(Row, StateEntry)>, removed: Vec<Row>) -> OpCheckpoint {
        let entries = entries
            .into_iter()
            .map(|(key, entry)| SerializedEntry { key, entry })
            .collect();
        OpCheckpoint { op: op.into(), entries, removed }
    }

    type Model = BTreeMap<String, BTreeMap<Row, StateEntry>>;

    /// The store's non-empty operators, ordered for comparison.
    fn contents(s: &StateStore) -> Model {
        let mut model = Model::new();
        for id in s.operator_ids() {
            let op = s.operator_ref(&id).unwrap();
            if !op.is_empty() {
                model.insert(id, op.iter().map(|(k, e)| (k.clone(), e.clone())).collect());
            }
        }
        model
    }

    /// Heterogeneous state rows: NULLs, strings, floats, timeouts.
    fn mixed_entry(rng: &mut ss_common::XorShift64) -> StateEntry {
        use ss_common::Value;
        let n = rng.gen_range(0, 4);
        let values = (0..n)
            .map(|i| match i % 3 {
                0 => row![rng.gen_range(0, 1000) as i64, Value::Null, "ünï"],
                1 => row![rng.next_f64(), true],
                _ => Row::empty(),
            })
            .collect();
        let timeout_at = (rng.gen_range(0, 2) == 0).then(|| rng.gen_range(0, 1 << 40) as i64);
        StateEntry { values, timeout_at }
    }

    #[test]
    fn bodies_round_trip() {
        let mut rng = ss_common::XorShift64::new(11);
        let mut full_op = OpState::default();
        for k in 0..20i64 {
            full_op.put(row![k, "k"], mixed_entry(&mut rng));
        }
        full_op.put(Row::empty(), StateEntry::new(vec![])); // empty key, empty payload
        let empty_op = OpState::default();
        let mut removed_only = OpState::default();
        removed_only.put(row!["gone"], entry(1));
        removed_only.clear_tracking();
        removed_only.remove(&row!["gone"]);
        let ops = [("a", &full_op), ("empty", &empty_op), ("removed-only", &removed_only)];

        for full in [true, false] {
            let mut body = Vec::new();
            encode_body(&mut body, 42, full, ops.into_iter());
            let file = decode_body(&body).unwrap();
            assert_eq!((file.epoch, file.kind.as_str()), (42, if full { "full" } else { "delta" }));
            assert_eq!(file.ops.len(), 3);
            let decoded: BTreeMap<Row, StateEntry> =
                file.ops[0].entries.iter().map(|e| (e.key.clone(), e.entry.clone())).collect();
            assert_eq!(decoded, full_op.iter().map(|(k, e)| (k.clone(), e.clone())).collect());
            assert!(file.ops[1].entries.is_empty() && file.ops[1].removed.is_empty());
            assert!(file.ops[2].entries.is_empty());
            let expect_removed = if full { vec![] } else { vec![row!["gone"]] };
            assert_eq!(file.ops[2].removed, expect_removed);
        }
    }

    #[test]
    fn mixed_legacy_and_binary_chain_restores_at_every_epoch() {
        let backend = Arc::new(MemoryBackend::new());
        let mut rng = ss_common::XorShift64::new(0x5EED);
        let mut models: BTreeMap<u64, Model> = BTreeMap::new();

        // Epochs 1 (full) and 2 (delta) as an older build left them.
        let (e1, e2, e3) = (mixed_entry(&mut rng), mixed_entry(&mut rng), mixed_entry(&mut rng));
        write_legacy(
            &backend,
            1,
            true,
            vec![
                legacy_op("agg", vec![(row![1i64], e1.clone()), (row![2i64], e2.clone())], vec![]),
                legacy_op("sess", vec![(row!["u"], e3.clone())], vec![]),
            ],
        );
        write_legacy(
            &backend,
            2,
            false,
            vec![legacy_op("agg", vec![(row![2i64], e3.clone())], vec![row![1i64]])],
        );
        let mut model = Model::new();
        model.insert("agg".into(), BTreeMap::from([(row![1i64], e1), (row![2i64], e2)]));
        model.insert("sess".into(), BTreeMap::from([(row!["u"], e3.clone())]));
        models.insert(1, model.clone());
        model.get_mut("agg").unwrap().remove(&row![1i64]);
        model.get_mut("agg").unwrap().insert(row![2i64], e3);
        models.insert(2, model.clone());

        // This build resumes at 2 and writes binary: deltas at 3 and 4,
        // a full at 5, deltas, a full at 8, a delta at 9.
        let mut s = StateStore::new(backend.clone()).with_snapshot_interval(3);
        s.restore(2).unwrap();
        assert_eq!(contents(&s), models[&2]);
        s.checkpoints_taken = 1;
        for epoch in 3..=9u64 {
            for _ in 0..12 {
                let op = if rng.gen_range(0, 2) == 0 { "agg" } else { "sess" };
                let key = row![rng.gen_range(0, 8) as i64];
                if rng.gen_range(0, 3) == 0 {
                    s.operator(op).remove(&key);
                    model.entry(op.into()).or_default().remove(&key);
                } else {
                    let e = mixed_entry(&mut rng);
                    s.operator(op).put(key.clone(), e.clone());
                    model.entry(op.into()).or_default().insert(key, e);
                }
            }
            s.checkpoint(epoch).unwrap();
            model.retain(|_, m| !m.is_empty());
            models.insert(epoch, model.clone());
        }
        let kinds: Vec<(u64, bool)> = backend
            .list("state/chk-")
            .unwrap()
            .iter()
            .filter(|k| k.ends_with(".bin"))
            .map(|k| StateStore::parse_key(k).unwrap())
            .collect();
        let expect = [(3, false), (4, false), (5, true), (6, false), (7, false), (8, true), (9, false)];
        assert_eq!(kinds, expect);

        let mut fresh = StateStore::new(backend.clone());
        for (epoch, expected) in &models {
            fresh.restore(*epoch).unwrap();
            assert_eq!(&contents(&fresh), expected, "epoch {epoch}");
        }
        assert_eq!(fresh.retained_epochs().unwrap(), (1..=9).collect::<Vec<_>>());
        assert_eq!(fresh.latest_checkpoint(Some(2)).unwrap(), Some(2));
        assert_eq!(fresh.latest_checkpoint(Some(4)).unwrap(), Some(4));
        assert_eq!(fresh.earliest_full_epoch().unwrap(), Some(1));

        // A corrupt binary delta at 7: the best restorable epoch ≤ 7 is
        // 6, and everything newer goes, whatever its suffix.
        let key = StateStore::key_for(7, false);
        let mut raw = backend.read(&key).unwrap().unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        backend.write_atomic(&key, &raw).unwrap();
        assert_eq!(fresh.restore_best(Some(7)).unwrap(), Some(6));
        assert_eq!(contents(&fresh), models[&6]);
        assert_eq!(fresh.retained_epochs().unwrap(), (1..=6).collect::<Vec<_>>());

        // Rollback below the format switch, then GC across it.
        fresh.truncate_after(4).unwrap();
        assert_eq!(fresh.retained_epochs().unwrap(), vec![1, 2, 3, 4]);
        fresh.restore(4).unwrap();
        assert_eq!(contents(&fresh), models[&4]);
        fresh.checkpoints_taken = 0;
        fresh.checkpoint(5).unwrap(); // full
        assert_eq!(fresh.purge_before(5).unwrap(), 4);
        assert_eq!(fresh.retained_epochs().unwrap(), vec![5]);
        assert_eq!(fresh.earliest_full_epoch().unwrap(), Some(5));
    }

    #[test]
    fn recheckpointing_a_legacy_epoch_replaces_its_blob() {
        let backend = Arc::new(MemoryBackend::new());
        write_legacy(&backend, 1, true, vec![legacy_op("agg", vec![(row!["old"], entry(1))], vec![])]);
        write_legacy(&backend, 2, false, vec![]);
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["new"], entry(2));
        s.checkpoint(1).unwrap();
        // Epoch 1 exists once, under the new suffix; epoch 2 is untouched.
        assert_eq!(
            backend.list("state/chk-").unwrap(),
            vec![StateStore::key_for(1, true), "state/chk-00000000000000000002-delta.json".to_string()]
        );
        s.restore(1).unwrap();
        assert_eq!(s.operator("agg").get(&row!["old"]), None);
        assert_eq!(s.operator("agg").get(&row!["new"]), Some(&entry(2)));
    }

    #[test]
    fn dump_json_renders_either_format() {
        let backend = Arc::new(MemoryBackend::new());
        write_legacy(&backend, 6, true, vec![legacy_op("agg", vec![(row!["ny"], entry(41))], vec![])]);
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["ca"], entry(42));
        s.checkpoint(7).unwrap();
        // On disk: a CRC frame around the binary body, not text.
        let raw = backend.read(&StateStore::key_for(7, true)).unwrap().unwrap();
        assert!(frame::decode(&raw).unwrap().starts_with(BODY_MAGIC));
        for (epoch, key, value) in [(6, "ny", "41"), (7, "ca", "42")] {
            let text = s.dump_json(epoch).unwrap();
            assert!(text.contains(&format!("\"epoch\": {epoch}")), "{text}");
            assert!(text.contains("\"kind\": \"full\"") && text.contains(key), "{text}");
            assert!(text.contains(&format!("\"Int64\": {value}")), "{text}");
        }
        assert!(s.dump_json(8).is_err());
    }

    /// A table of BIGINT-keyed counts that writes group runs, removing
    /// the keys in `.1`.
    #[derive(Debug, Default)]
    struct Counts(BTreeMap<Option<i64>, i64>, Vec<i64>);

    impl TypedTable for Counts {
        fn num_keys(&self) -> usize {
            self.0.len()
        }
        fn approx_bytes(&self) -> usize {
            0
        }
        fn is_clean(&self) -> bool {
            true
        }
        fn encode(&self, _full: bool, out: &mut Vec<u8>) {
            use section::{put_header, put_ints, put_run_head, KeyForm, SlotForm};
            put_header(out, KeyForm::Int { timestamp: false, window: false }, &[SlotForm::Count]);
            put_varint(out, 1);
            put_run_head(out, 0, self.0.len());
            put_ints(out, self.0.keys().copied());
            put_ints(out, self.0.values().map(|&n| Some(n)));
            put_varint(out, 1);
            put_run_head(out, 0, self.1.len());
            put_ints(out, self.1.iter().map(|&k| Some(k)));
        }
        fn clear_tracking(&mut self) {}
        fn take_counts(&mut self) -> (u64, u64) {
            (0, 0)
        }
        fn restore_entry(&mut self, _key: Row, _entry: StateEntry) -> Result<()> {
            unreachable!("only written")
        }
        fn clear(&mut self) {}
    }

    #[test]
    fn v1_and_v2_checkpoints_of_one_state_dump_alike() {
        let v2 = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(v2.clone());
        s.operator("m").put(row!["a"], entry(1));
        let counts = BTreeMap::from([(None, 3), (Some(-2), 1), (Some(5), 7)]);
        s.operator("t").table(|| Counts(counts, vec![9]));
        s.checkpoint(1).unwrap();
        // The same state as body v1 writes it: no form bytes, entries.
        let mut body = BODY_MAGIC.to_vec();
        body.extend_from_slice(&[1, 1]);
        body.extend_from_slice(&1u64.to_le_bytes());
        put_varint(&mut body, 2);
        put_str(&mut body, "m");
        put_varint(&mut body, 1);
        put_entry(&mut body, &row!["a"], &entry(1));
        put_varint(&mut body, 0);
        put_str(&mut body, "t");
        put_varint(&mut body, 3);
        for (key, n) in [(Value::Null, 3), (Value::Int64(-2), 1), (Value::Int64(5), 7)] {
            put_entry(&mut body, &Row::new(vec![key]), &entry(n));
        }
        put_varint(&mut body, 1);
        put_row(&mut body, &row![9i64]);
        let v1 = Arc::new(MemoryBackend::new());
        v1.write_atomic(&StateStore::key_for(1, true), &frame::encode(&body)).unwrap();
        let dump = |b: Arc<MemoryBackend>| StateStore::new(b).dump_json(1).unwrap();
        assert_eq!(dump(v1), dump(v2));
    }

    #[test]
    fn a_newer_format_version_is_unsupported_and_nothing_is_deleted() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone()).with_snapshot_interval(1);
        for e in 1..=3u64 {
            s.operator("agg").put(row![e as i64], entry(e as i64));
            s.checkpoint(e).unwrap();
        }
        // Epoch 3 as a future build would write it: intact CRC, version+1.
        let key = StateStore::key_for(3, true);
        let mut body = frame::decode(&backend.read(&key).unwrap().unwrap()).unwrap().to_vec();
        body[BODY_MAGIC.len()] = BODY_VERSION + 1;
        backend.write_atomic(&key, &frame::encode(&body)).unwrap();

        let err = s.restore_best(None).unwrap_err();
        assert_eq!(err.category(), "unsupported");
        assert!(err.to_string().contains(&key), "{err}");
        // Skipping it as corrupt would have restored 2 and pruned 3.
        assert_eq!(s.retained_epochs().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn spilled_state_round_trips_through_the_binary_blob() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        let mut rng = ss_common::XorShift64::new(3);
        for k in 0..50i64 {
            s.operator("sess").put(row![k, "user"], mixed_entry(&mut rng));
        }
        let before = contents(&s);
        s.checkpoint(1).unwrap();
        assert!(s.spill_op("sess").unwrap() > 0);
        assert_eq!(backend.list("state/spill/").unwrap(), vec!["state/spill/sess.bin"]);
        assert_eq!(s.total_keys(), 0);
        s.operator("sess");
        s.check_health().unwrap();
        assert_eq!(contents(&s), before);
    }

    #[test]
    fn corrupt_checkpoint_is_a_corruption_error() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        let key = StateStore::key_for(1, true);
        let mut raw = backend.read(&key).unwrap().unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        backend.write_atomic(&key, &raw).unwrap();
        let err = s.restore(1).unwrap_err();
        assert_eq!(err.category(), "corruption");
        assert!(err.to_string().contains(&key), "{err}");
    }

    #[test]
    fn restore_best_skips_corrupt_candidates_and_prunes_newer() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone()).with_snapshot_interval(1);
        for e in 1..=3u64 {
            s.operator("agg").put(row![e as i64], entry(e as i64));
            s.checkpoint(e).unwrap(); // interval 1: all full snapshots
        }
        // Corrupt the newest snapshot (torn tail after a crash).
        let key = StateStore::key_for(3, true);
        let mut raw = backend.read(&key).unwrap().unwrap();
        raw.truncate(raw.len() / 2);
        backend.write_atomic(&key, &raw).unwrap();

        let restored = s.restore_best(None).unwrap();
        assert_eq!(restored, Some(2));
        assert_eq!(s.total_keys(), 2);
        // The corrupt epoch-3 blob is pruned so it can't shadow future
        // restores.
        assert_eq!(s.retained_epochs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn restore_best_with_nothing_restorable_starts_empty() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["a"], entry(1));
        assert_eq!(s.restore_best(None).unwrap(), None);
        assert_eq!(s.total_keys(), 0, "memory cleared for a fresh start");

        // A sole, corrupt checkpoint: also None.
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        backend
            .write_atomic(&StateStore::key_for(1, true), b"garbage")
            .unwrap();
        assert_eq!(s.restore_best(None).unwrap(), None);
    }

    #[test]
    fn restore_best_respects_the_epoch_bound() {
        let mut s = store().with_snapshot_interval(1);
        for e in 1..=3u64 {
            s.operator("agg").put(row![e as i64], entry(e as i64));
            s.checkpoint(e).unwrap();
        }
        assert_eq!(s.restore_best(Some(2)).unwrap(), Some(2));
        assert_eq!(s.total_keys(), 2);
        // Checkpoints above the bound were pruned (they describe state
        // the engine is about to recompute).
        assert_eq!(s.retained_epochs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn byte_accounting_tracks_puts_overwrites_and_removes() {
        let mut s = store();
        let op = s.operator("agg");
        assert_eq!(op.approx_bytes(), 0);
        op.put(row!["key"], entry(1));
        let one = op.approx_bytes();
        assert!(one > 0);
        // Overwrite with a fatter payload grows the estimate; shrinking
        // it back restores the original.
        op.put(row!["key"], StateEntry::new(vec![row![1i64], row![2i64], row![3i64]]));
        assert!(op.approx_bytes() > one);
        op.put(row!["key"], entry(1));
        assert_eq!(op.approx_bytes(), one);
        op.remove(&row!["key"]);
        assert_eq!(op.approx_bytes(), 0);
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn soft_limit_spills_cold_clean_ops_and_reloads_on_access() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1), // everything clean must spill
            hard_limit_bytes: None,
        });
        s.operator("cold").put(row!["a"], entry(1));
        s.operator("hot").put(row!["b"], entry(2));
        // Dirty state never spills: budget enforcement before any
        // checkpoint finds no candidates.
        let report = s.enforce_budget().unwrap();
        assert_eq!(report.ops_spilled, 0);
        assert!(report.memory_bytes > 0);

        s.checkpoint(1).unwrap(); // everything clean now
        s.operator("hot"); // touch: "cold" is now the colder one
        let report = s.enforce_budget().unwrap();
        assert_eq!(report.ops_spilled, 2, "limit of 1 byte forces both out");
        assert_eq!(report.memory_bytes, 0);
        assert!(report.spilled_bytes > 0);
        assert_eq!(s.spilled_ops(), vec!["cold", "hot"]);
        assert_eq!(s.total_keys(), 0);
        assert!(!backend.list("state/spill/").unwrap().is_empty());

        // Transparent reload on access: data intact, blob deleted.
        assert_eq!(s.operator("cold").get(&row!["a"]), Some(&entry(1)));
        s.check_health().unwrap();
        assert_eq!(s.spilled_ops(), vec!["hot"]);
        assert_eq!(s.operator("hot").get(&row!["b"]), Some(&entry(2)));
        assert!(backend.list("state/spill/").unwrap().is_empty());
        assert_eq!(s.spilled_bytes(), 0);
    }

    #[test]
    fn spill_prefers_the_coldest_op() {
        let mut s = store();
        s.operator("x").put(row!["a"], entry(1));
        s.operator("y").put(row!["b"], entry(2));
        // A limit that one op fits under but two do not: spilling the
        // single coldest op suffices.
        let one_op = s.operator_ref("x").unwrap().approx_bytes();
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(one_op + 1),
            hard_limit_bytes: None,
        });
        s.checkpoint(1).unwrap();
        // Touch "x" after the checkpoint: "y" is colder.
        s.operator("x");
        let report = s.enforce_budget().unwrap();
        assert_eq!(report.ops_spilled, 1);
        assert_eq!(s.spilled_ops(), vec!["y"]);
    }

    #[test]
    fn full_snapshot_reloads_spilled_ops_first() {
        let backend = Arc::new(MemoryBackend::new());
        // Interval 1: every checkpoint is a full snapshot.
        let mut s = StateStore::new(backend.clone()).with_snapshot_interval(1);
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        });
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.enforce_budget().unwrap();
        assert_eq!(s.total_keys(), 0, "spilled out of memory");
        // The next full snapshot must still contain the spilled data.
        s.checkpoint(2).unwrap();
        s.clear_memory();
        s.restore(2).unwrap();
        assert_eq!(s.operator("agg").get(&row!["a"]), Some(&entry(1)));
    }

    #[test]
    fn restore_purges_stale_spill_blobs() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        });
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.enforce_budget().unwrap();
        assert!(!backend.list("state/spill/").unwrap().is_empty());
        // Restoring replaces memory: the spill blob is stale and gone.
        s.restore(1).unwrap();
        assert!(backend.list("state/spill/").unwrap().is_empty());
        assert_eq!(s.spilled_ops(), Vec::<String>::new());
        assert_eq!(s.operator("agg").get(&row!["a"]), Some(&entry(1)));
    }

    #[test]
    fn load_and_load_best_leave_the_backend_untouched() {
        let backend = Arc::new(MemoryBackend::new());
        let mut owner = StateStore::new(backend.clone());
        owner.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        });
        owner.operator("agg").put(row!["a"], entry(1));
        owner.checkpoint(1).unwrap();
        owner.operator("agg").put(row!["b"], entry(2));
        owner.checkpoint(2).unwrap();
        owner.enforce_budget().unwrap();
        let before = backend.list("").unwrap();
        assert!(before.iter().any(|k| k.starts_with("state/spill/")));

        // A second store over the same backend reads epoch 1 while the
        // owner's spill blob and newer checkpoint stay where they are.
        let mut reader = StateStore::new(backend.clone());
        assert_eq!(reader.load_best(Some(1)).unwrap(), Some(1));
        assert_eq!(reader.operator("agg").get(&row!["a"]), Some(&entry(1)));
        assert_eq!(reader.operator("agg").get(&row!["b"]), None);
        reader.load(2).unwrap();
        assert_eq!(reader.operator("agg").get(&row!["b"]), Some(&entry(2)));
        assert_eq!(backend.list("").unwrap(), before);
        assert_eq!(reader.load_best(Some(0)).unwrap(), None, "nothing that old");
        assert_eq!(backend.list("").unwrap(), before);
        // The owner reloads its spilled operator as if nobody had looked.
        assert_eq!(owner.operator("agg").get(&row!["b"]), Some(&entry(2)));
        owner.check_health().unwrap();
    }

    #[test]
    fn restore_best_at_zero_is_the_nothing_committed_case() {
        // Take-over with nothing committed: stale checkpoints are
        // truncated, then `restore_best(Some(0))` finds no candidate,
        // restores nothing and leaves memory empty.
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.truncate_after(0).unwrap();
        assert_eq!(s.restore_best(Some(0)).unwrap(), None);
        assert_eq!(s.total_keys(), 0);
        assert!(backend.list("state/").unwrap().is_empty());
    }

    #[test]
    fn hard_limit_fails_gracefully() {
        let mut s = store();
        s.set_budget(MemoryBudget {
            soft_limit_bytes: None,
            hard_limit_bytes: Some(16),
        });
        s.check_hard_limit().unwrap();
        s.operator("agg")
            .put(row!["key"], StateEntry::new(vec![row!["a-large-payload-string"]]));
        let err = s.check_hard_limit().unwrap_err();
        assert_eq!(err.category(), "resource_exhausted");
        assert!(err.to_string().contains("hard"), "{err}");
    }

    #[test]
    fn lost_spill_blob_surfaces_via_check_health() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        });
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.enforce_budget().unwrap();
        // Simulate the blob vanishing out from under the store.
        for key in backend.list("state/spill/").unwrap() {
            backend.delete(&key).unwrap();
        }
        // The infallible accessor hands back (empty) state...
        assert!(s.operator("agg").get(&row!["a"]).is_none());
        // ...but the stashed error stops the epoch before commit.
        let err = s.check_health().unwrap_err();
        assert!(err.to_string().contains("spill"), "{err}");
        s.check_health().unwrap();
    }

    #[test]
    fn spill_metrics_are_recorded() {
        use ss_common::{MetricValue, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let mut s = store();
        s.set_budget(MemoryBudget {
            soft_limit_bytes: Some(1),
            hard_limit_bytes: None,
        });
        s.attach_metrics(&registry);
        s.operator("agg").put(row!["a"], entry(1));
        match registry.value("ss_state_bytes", &[]) {
            Some(MetricValue::Gauge(b)) => assert!(b > 0),
            other => panic!("missing bytes gauge: {other:?}"),
        }
        s.checkpoint(1).unwrap();
        s.enforce_budget().unwrap();
        assert_eq!(registry.value("ss_state_spills_total", &[]), Some(MetricValue::Counter(1)));
        assert_eq!(registry.value("ss_state_bytes", &[]), Some(MetricValue::Gauge(0)));
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(0)));
        match registry.value("ss_state_spilled_bytes", &[]) {
            Some(MetricValue::Gauge(b)) => assert!(b > 0),
            other => panic!("missing spilled-bytes gauge: {other:?}"),
        }
        s.operator("agg"); // reload
        assert_eq!(
            registry.value("ss_state_spill_reloads_total", &[]),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(registry.value("ss_state_spilled_bytes", &[]), Some(MetricValue::Gauge(0)));
        assert_eq!(registry.value("ss_state_keys", &[]), Some(MetricValue::Gauge(1)));
    }

    /// A table kind for these tests: one value row per key; any other
    /// entry is rejected.
    #[derive(Debug, Default)]
    struct OneRow(BTreeMap<Row, Row>);

    impl TypedTable for OneRow {
        fn num_keys(&self) -> usize {
            self.0.len()
        }
        fn approx_bytes(&self) -> usize {
            let bytes = |(k, v): (&Row, &Row)| k.approx_bytes() + v.approx_bytes();
            self.0.iter().map(|kv| OpState::entry_bytes_of(bytes(kv), 0)).sum()
        }
        fn is_clean(&self) -> bool {
            true
        }
        fn encode(&self, full: bool, out: &mut Vec<u8>) {
            out.push(section::ENTRIES);
            put_varint(out, if full { self.0.len() as u64 } else { 0 });
            for (k, v) in self.0.iter().filter(|_| full) {
                put_entry(out, k, &StateEntry::new(vec![v.clone()]));
            }
            put_varint(out, 0);
        }
        fn clear_tracking(&mut self) {}
        fn take_counts(&mut self) -> (u64, u64) {
            (0, 0)
        }
        fn restore_entry(&mut self, key: Row, mut entry: StateEntry) -> Result<()> {
            match (entry.values.pop(), entry.values.is_empty()) {
                (Some(v), true) => {
                    self.0.insert(key, v);
                    Ok(())
                }
                _ => Err(SsError::Serde("one value row per key".into())),
            }
        }
        fn clear(&mut self) {
            self.0.clear();
        }
    }

    #[test]
    fn a_declared_table_is_refilled_by_restore_and_spill_reload() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        s.operator("agg").put(row!["a"], entry(1));
        s.operator("agg").put(row!["b"], entry(2));
        s.checkpoint(1).unwrap();
        let want = BTreeMap::from([(row!["a"], row![1i64]), (row!["b"], row![2i64])]);

        let mut t = StateStore::new(backend.clone());
        t.operator("agg").table(OneRow::default);
        t.restore(1).unwrap();
        assert_eq!(t.operator("agg").table(OneRow::default).0, want);
        assert_eq!((t.total_keys(), t.memory_bytes()), (2, s.memory_bytes()));
        // A spill keeps the table and empties it; the reload refills it.
        assert!(t.spill_op("agg").unwrap() > 0);
        assert_eq!(t.total_keys(), 0);
        assert_eq!(t.operator("agg").table(OneRow::default).0, want);
        t.check_health().unwrap();
        // A restore replaces the contents and keeps the kind.
        t.operator("agg").table(OneRow::default).0.insert(row!["junk"], row![9i64]);
        t.restore(1).unwrap();
        assert_eq!(t.operator("agg").table(OneRow::default).0, want);
    }

    #[test]
    #[should_panic(expected = "state namespace `agg` is a table, not a map")]
    fn map_access_to_a_table_panics_naming_it() {
        let mut s = store();
        s.operator("agg").table(OneRow::default);
        s.operator("agg").put(row!["a"], entry(1));
    }

    #[test]
    #[should_panic(expected = "state namespace `agg` holds map entries, not a table")]
    fn a_table_is_never_declared_over_map_entries() {
        let mut s = store();
        s.operator("agg").put(row!["a"], entry(1));
        s.operator("agg").table(OneRow::default);
    }

    #[test]
    fn an_entry_its_table_rejects_fails_the_restore_without_a_fallback() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone()).with_snapshot_interval(1);
        s.operator("agg").put(row!["a"], entry(1));
        s.checkpoint(1).unwrap();
        s.operator("agg").put(row!["b"], StateEntry::new(vec![]));
        s.checkpoint(2).unwrap();
        let mut t = StateStore::new(backend.clone());
        t.operator("agg").table(OneRow::default);
        assert_eq!(t.restore_best(None).unwrap_err().category(), "serde");
        // Not skipped as corrupt: epoch 1 was not restored, 2 not pruned.
        assert_eq!(t.retained_epochs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn a_routed_restore_moves_in_one_pass_and_the_next_checkpoint_is_full() {
        let backend = Arc::new(MemoryBackend::new());
        let mut s = StateStore::new(backend.clone());
        for k in 0..6i64 {
            s.operator("agg").put(row![k], entry(k));
        }
        s.operator("other").put(row!["x"], entry(7));
        s.checkpoint(1).unwrap();
        // Odd keys move to `agg/odd`, their values negated on the way.
        let odd_out = |ns: &str, key: &Row, e: &mut StateEntry| {
            let k = key.get(0).as_i64().ok().flatten().unwrap_or(0);
            (ns == "agg" && k % 2 == 1).then(|| {
                e.values = vec![row![-k]];
                "agg/odd".to_string()
            })
        };
        let mut t = StateStore::new(backend.clone()).with_snapshot_interval(3);
        t.checkpoints_taken = 1; // mid-cadence: the next would be a delta
        assert_eq!(t.restore_best_routed(None, odd_out).unwrap(), Some(1));
        assert_eq!(t.operator_ids(), vec!["agg", "agg/odd", "other"]);
        assert_eq!(t.operator("agg").len(), 3);
        assert_eq!(t.operator("agg/odd").get(&row![3i64]), Some(&entry(-3)));
        t.checkpoint(2).unwrap();
        assert!(backend.read(&StateStore::key_for(2, true)).unwrap().is_some());
        // Nothing routed elsewhere: the cadence goes on.
        t.checkpoints_taken = 1;
        t.restore(2).unwrap();
        t.checkpoint(3).unwrap();
        assert!(backend.read(&StateStore::key_for(3, false)).unwrap().is_some());
        // A namespace no entry reaches does not exist.
        let all_out = |ns: &str, _: &Row, _: &mut StateEntry| (ns == "other").then(|| "x".into());
        assert_eq!(t.restore_best_routed(None, all_out).unwrap(), Some(3));
        assert_eq!(t.operator_ids(), vec!["agg", "agg/odd", "x"]);
    }

    #[test]
    fn checkpoint_fail_points_fire() {
        use ss_common::fault::{FaultMode, FaultTrigger};
        use ss_common::FaultRegistry;

        let faults = FaultRegistry::new();
        let mut s = store();
        s.set_faults(faults.clone());
        s.operator("agg").put(row!["a"], entry(1));
        faults.configure(
            failpoints::CHECKPOINT_WRITE,
            FaultTrigger::Once { skip: 0 },
            FaultMode::TransientError,
        );
        assert!(s.checkpoint(1).unwrap_err().is_transient());
        s.checkpoint(1).unwrap();

        faults.configure(
            failpoints::CHECKPOINT_LOAD,
            FaultTrigger::Once { skip: 0 },
            FaultMode::Error,
        );
        assert!(s.restore(1).is_err());
        s.restore(1).unwrap();
        assert_eq!(s.total_keys(), 1);
    }
}
