//! The multi-query engine: fingerprint-keyed sharing groups over one
//! scan cache and one worker pool.
//!
//! [`MultiQueryEngine::submit`] splits each query at its sharing
//! boundary ([`ss_plan::sharing_split`]): the **stateful prefix** keys
//! a *sharing group*, the stateless suffix becomes the query's private
//! output tap. Structurally-equal prefixes (canonical fingerprints, so
//! aliases/commutative order don't matter) land in ONE group running
//! ONE [`MicroBatchExecution`] — one source read, one WAL, one state
//! namespace, one incremental update per epoch — fanned to every
//! member through a [`crate::FanoutSink`].
//!
//! * **Shared scans**: every group's sources are wrapped in
//!   [`ss_bus::SharedScanSource`] over one engine-wide
//!   [`ss_bus::ScanCache`], so even *different* groups over the same
//!   topic cost one bus read per (source, offset-range) per epoch.
//! * **Pooled scheduling**: a tick runs every admissible group's epoch
//!   as one [`ss_sched::WorkerPool::scatter`]; per-tenant
//!   `AdmissionBudget`s decide which groups are admissible, and a
//!   group's admitted rows are charged to its subscribing tenants in
//!   equal shares (sharing splits the bill).
//! * **Copy-on-detach**: stopping a member of a still-populated group
//!   snapshots the group's checkpoint namespace into a private backend
//!   returned to the caller, so the departing query can restart
//!   isolated (e.g. after an upgrade away from the shared shape)
//!   without disturbing the survivors.
//!
//! Semantics note: a query attaching to a group that has already run
//! begins at the group's current position — it shares the stream only
//! going forward. Queries submitted before the first tick see exactly
//! what an isolated engine would (byte-identical sink contents).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use ss_bus::{ScanCache, ScanCacheStats, SharedScanSource, Sink, Source};
use ss_common::metrics::render_merged_labeled;
use ss_common::{Result, SsError};
use ss_core::{MicroBatchExecution, StreamingContext};
use ss_core::prelude::MicroBatchConfig;
use ss_plan::{sharing_split, LogicalPlan, OutputMode};
use ss_sched::WorkerPool;
use ss_state::{CheckpointBackend, MemoryBackend};

use crate::fanout::FanoutSink;

/// Engine-wide knobs.
#[derive(Clone)]
pub struct MultiQueryConfig {
    /// Scan-cache entries retained (FIFO bound).
    pub scan_cache_capacity: usize,
    /// Worker threads in the shared scheduling pool.
    pub workers: usize,
    /// Unread: a tick runs every admissible group once, so there is no
    /// per-round credit to size. Kept only because the repo benchmark
    /// builds this config as a struct literal (ROADMAP item 1).
    pub quantum: u64,
    /// Template for each sharing group's engine (parallelism,
    /// checkpoint cadence, clock, ...).
    pub engine: MicroBatchConfig,
}

impl Default for MultiQueryConfig {
    fn default() -> Self {
        MultiQueryConfig {
            scan_cache_capacity: 64,
            workers: 2,
            quantum: 100_000,
            engine: MicroBatchConfig::default(),
        }
    }
}

/// One query to run on the shared engine.
pub struct QuerySpec {
    pub name: String,
    /// Tenant for fairness + admission accounting.
    pub tenant: String,
    pub plan: Arc<LogicalPlan>,
    pub output_mode: OutputMode,
    /// The query's real output sink (fed through its tap).
    pub sink: Arc<dyn Sink>,
}

struct Member {
    name: String,
    tenant: String,
    shares_suffix: bool,
}

struct Group {
    /// Sharing key: prefix fingerprint + output mode.
    key: String,
    /// Short display name (engine/query name inside the group).
    label: String,
    engine: Mutex<MicroBatchExecution>,
    fanout: Arc<FanoutSink>,
    backend: Arc<MemoryBackend>,
    members: Mutex<Vec<Member>>,
}

/// One member query as `GET /sql/sessions` lists it, with its sharing
/// group's label (`group`), key and current epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Session {
    pub query: String,
    pub tenant: String,
    pub group: String,
    pub sharing_key: String,
    pub epoch: u64,
    pub shares_suffix: bool,
}

/// What [`MultiQueryEngine::stop_query`] did.
pub struct DetachReport {
    /// Sharing key of the group the query left.
    pub group: String,
    /// Members still attached after the detach.
    pub remaining: usize,
    /// When survivors remain, a private copy of the group's checkpoint
    /// namespace taken at the detach boundary — the departing query's
    /// state, ready for an isolated restart. `None` when the group
    /// dissolved (the last member keeps nothing; the group's engine is
    /// dropped whole).
    pub checkpoint_copy: Option<Arc<MemoryBackend>>,
}

/// One scheduling tick's outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Epochs that ran (at most one per group per tick).
    pub epochs: u64,
    /// Input rows admitted across those epochs.
    pub rows: u64,
    /// Groups skipped because every subscribing tenant was over
    /// budget.
    pub skipped: u64,
}

/// Cumulative sharing counters (bench/CI assertions).
#[derive(Debug, Default, Clone, Copy)]
pub struct SharingStats {
    pub groups: u64,
    pub queries: u64,
    /// Queries that attached to an existing group instead of creating
    /// one (the sharing wins).
    pub attached: u64,
    /// Copy-on-detach snapshots taken.
    pub detach_copies: u64,
    pub scan: ScanCacheStats,
}

pub struct MultiQueryEngine {
    ctx: StreamingContext,
    config: MultiQueryConfig,
    cache: Arc<ScanCache>,
    pool: WorkerPool,
    budgets: Arc<Mutex<BTreeMap<String, AdmissionBudget>>>,
    groups: Mutex<BTreeMap<String, Arc<Group>>>,
    attached: AtomicU64,
    detach_copies: AtomicU64,
}

impl MultiQueryEngine {
    pub fn new(ctx: StreamingContext, config: MultiQueryConfig) -> MultiQueryEngine {
        MultiQueryEngine {
            cache: ScanCache::new(config.scan_cache_capacity),
            pool: WorkerPool::new(config.workers, None, None),
            budgets: Arc::new(Mutex::new(BTreeMap::new())),
            groups: Mutex::new(BTreeMap::new()),
            attached: AtomicU64::new(0),
            detach_copies: AtomicU64::new(0),
            ctx,
            config,
        }
    }

    /// The context queries resolve sources/tables against.
    pub fn context(&self) -> &StreamingContext {
        &self.ctx
    }

    /// Cap `tenant` at `rows_per_tick` admitted rows per scheduling
    /// tick (burst up to `burst`). Tenants without a budget are
    /// unthrottled.
    pub fn set_tenant_budget(&self, tenant: &str, rows_per_tick: u64, burst: u64) {
        self.budgets.lock().insert(
            tenant.to_string(),
            AdmissionBudget::new(rows_per_tick.max(1), burst),
        );
    }

    /// Submit a query: join the sharing group for its stateful prefix,
    /// creating the group (and its engine) on first use.
    fn check_name_free(
        groups: &BTreeMap<String, Arc<Group>>,
        name: &str,
    ) -> Result<()> {
        for g in groups.values() {
            if g.members.lock().iter().any(|m| m.name == name) {
                return Err(SsError::Plan(format!(
                    "a query named `{name}` is already running on the multi-query engine"
                )));
            }
        }
        Ok(())
    }

    pub fn submit(&self, spec: QuerySpec) -> Result<()> {
        Self::check_name_free(&self.groups.lock(), &spec.name)?;
        let analyzed = ss_plan::analyze(&spec.plan)?;
        ss_plan::validate_streaming(&analyzed, spec.output_mode)?;
        let optimized = ss_plan::optimize(&analyzed)?;
        // Suffix peeling rewrites the emitted row set, which is sound
        // for append output (each epoch's new rows) and complete output
        // (the whole result table) — it's how queries that differ only
        // in their SELECT-list aliases/projection still share. Update
        // output carries upsert key positions in the pre-suffix schema,
        // so update-mode queries share on the whole plan only.
        let allow_suffix = spec.output_mode != OutputMode::Update;
        let split = sharing_split(&optimized, allow_suffix);
        let group_key = format!("{}|{:?}", split.key, spec.output_mode);

        let mut groups = self.groups.lock();
        Self::check_name_free(&groups, &spec.name)?;
        if let Some(group) = groups.get(&group_key) {
            group.fanout.attach(&spec.name, split.suffix.clone(), spec.sink);
            group.members.lock().push(Member {
                name: spec.name,
                tenant: spec.tenant.clone(),
                shares_suffix: !split.suffix.is_empty(),
            });
            self.attached.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        // First query with this prefix: build the group's engine over
        // cache-wrapped sources.
        let label = format!("shared-{}", &split.key[..split.key.len().min(12)]);
        let sources: HashMap<String, Arc<dyn Source>> = self
            .ctx
            .sources_for(&split.prefix.streaming_scans())?
            .into_iter()
            .map(|(name, inner)| {
                let shared = SharedScanSource::new(inner, self.cache.clone()) as Arc<dyn Source>;
                (name, shared)
            })
            .collect();
        let fanout = FanoutSink::new(format!("{label}-fanout"));
        fanout.attach(&spec.name, split.suffix.clone(), spec.sink);
        let backend = Arc::new(MemoryBackend::new());
        let engine = MicroBatchExecution::new(
            label.clone(),
            &split.prefix,
            sources,
            Arc::new(self.ctx.static_catalog()),
            fanout.clone(),
            spec.output_mode,
            backend.clone(),
            self.config.engine.clone(),
        )?;
        groups.insert(
            group_key.clone(),
            Arc::new(Group {
                key: group_key,
                label,
                engine: Mutex::new(engine),
                fanout,
                backend,
                members: Mutex::new(vec![Member {
                    name: spec.name,
                    tenant: spec.tenant,
                    shares_suffix: !split.suffix.is_empty(),
                }]),
            }),
        );
        Ok(())
    }

    /// Stop one query. Surviving co-members keep running; the group's
    /// checkpoint namespace is snapshotted for the departing query
    /// (copy-on-detach). The last member to leave dissolves the group.
    pub fn stop_query(&self, name: &str) -> Result<DetachReport> {
        let mut groups = self.groups.lock();
        let key = groups
            .iter()
            .find(|(_, g)| g.members.lock().iter().any(|m| m.name == name))
            .map(|(k, _)| k.clone())
            .ok_or_else(|| SsError::Plan(format!("no active query `{name}`")))?;
        let group = groups.get(&key).expect("found above").clone();
        // Detach at an epoch boundary: taking the engine lock waits out
        // any epoch currently executing, so the tap never sees a
        // partial epoch and the checkpoint copy is consistent.
        let _engine = group.engine.lock();
        group.fanout.detach(name);
        let mut members = group.members.lock();
        members.retain(|m| m.name != name);
        let remaining = members.len();
        drop(members);
        if remaining == 0 {
            drop(_engine);
            groups.remove(&key);
            return Ok(DetachReport {
                group: key,
                remaining: 0,
                checkpoint_copy: None,
            });
        }
        let copy = Arc::new(MemoryBackend::new());
        for k in group.backend.list("")? {
            if let Some(data) = group.backend.read(&k)? {
                copy.write_atomic(&k, &data)?;
            }
        }
        self.detach_copies.fetch_add(1, Ordering::Relaxed);
        Ok(DetachReport {
            group: key,
            remaining,
            checkpoint_copy: Some(copy),
        })
    }

    /// One scheduling tick: refill every tenant budget, then run one
    /// epoch of every admissible sharing group as one scatter on the
    /// pool, in group-key order. A group every subscribing tenant of
    /// which is over budget skips the tick (its backlog waits for the
    /// refill to clear the debt). Admitted rows are charged to
    /// subscribing tenants in equal shares.
    pub fn tick(&self) -> Result<TickReport> {
        for b in self.budgets.lock().values_mut() {
            b.tick();
        }
        let groups: Vec<Arc<Group>> = self.groups.lock().values().cloned().collect();
        let mut skipped = 0u64;
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<u64> + Send>> = Vec::new();
        for group in groups {
            let tenants = group.tenants();
            if tenants.is_empty() {
                continue;
            }
            let admissible = {
                let budgets = self.budgets.lock();
                tenants
                    .iter()
                    .any(|t| budgets.get(t).map(|b| b.admissible()).unwrap_or(true))
            };
            if !admissible {
                skipped += 1;
                continue;
            }
            let budgets = self.budgets.clone();
            tasks.push(Box::new(move || group.run_epoch(&budgets)));
        }
        let rows = self.pool.scatter("multi-tick", tasks)?.results;
        Ok(TickReport {
            epochs: rows.iter().filter(|&&r| r > 0).count() as u64,
            rows: rows.iter().sum(),
            skipped,
        })
    }

    /// Tick until every group is idle and nothing is admission-blocked
    /// (budget refills drain any debt). Returns total epochs run.
    pub fn run_until_idle(&self, max_ticks: u64) -> Result<u64> {
        let mut epochs = 0;
        for _ in 0..max_ticks {
            let t = self.tick()?;
            epochs += t.epochs;
            if t.epochs == 0 && t.skipped == 0 {
                return Ok(epochs);
            }
        }
        Err(SsError::Execution(format!(
            "multi-query engine still busy after {max_ticks} ticks"
        )))
    }

    /// Cumulative sharing counters.
    pub fn stats(&self) -> SharingStats {
        let groups = self.groups.lock();
        let queries: u64 = groups
            .values()
            .map(|g| g.members.lock().len() as u64)
            .sum();
        SharingStats {
            groups: groups.len() as u64,
            queries,
            attached: self.attached.load(Ordering::Relaxed),
            detach_copies: self.detach_copies.load(Ordering::Relaxed),
            scan: self.cache.stats(),
        }
    }

    /// Total rows actually read from underlying sources (one read per
    /// shared scan, however many groups fanned from it).
    pub fn source_rows_read(&self) -> u64 {
        self.cache.stats().underlying_rows
    }

    /// Operator state held across all sharing groups, in bytes (from
    /// each group's last progress record).
    pub fn state_bytes(&self) -> u64 {
        self.groups
            .lock()
            .values()
            .map(|g| {
                let engine = g.engine.lock();
                engine.progress().last().map(|p| p.state_bytes).unwrap_or(0)
            })
            .sum()
    }

    /// Active query names, sorted.
    pub fn query_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .groups
            .lock()
            .values()
            .flat_map(|g| g.members.lock().iter().map(|m| m.name.clone()).collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Every member query's session, sorted by query name.
    pub fn sessions(&self) -> Vec<Session> {
        let mut out = Vec::new();
        for g in self.groups.lock().values() {
            let epoch = g.engine.lock().current_epoch();
            for m in g.members.lock().iter() {
                out.push(Session {
                    query: m.name.clone(),
                    tenant: m.tenant.clone(),
                    group: g.label.clone(),
                    sharing_key: g.key.clone(),
                    epoch,
                    shares_suffix: m.shares_suffix,
                });
            }
        }
        out.sort_by(|a, b| a.query.cmp(&b.query));
        out
    }

    /// All groups' metrics merged into one Prometheus exposition: each
    /// member contributes its group's series under its own `query`
    /// label plus a `tenant` label, with one HELP/TYPE per family.
    pub fn metrics_exposition(&self) -> String {
        let groups: Vec<Arc<Group>> = self.groups.lock().values().cloned().collect();
        let member_lists: Vec<Vec<(String, String)>> = groups
            .iter()
            .map(|g| {
                g.members
                    .lock()
                    .iter()
                    .map(|m| (m.name.clone(), m.tenant.clone()))
                    .collect()
            })
            .collect();
        let engines: Vec<_> = groups.iter().map(|g| g.engine.lock()).collect();
        let mut views = Vec::new();
        for (members, engine) in member_lists.iter().zip(engines.iter()) {
            for (name, tenant) in members {
                views.push((
                    name.as_str(),
                    vec![("tenant", tenant.as_str())],
                    engine.metrics(),
                ));
            }
        }
        views.sort_by(|a, b| a.0.cmp(b.0));
        render_merged_labeled(&views)
    }
}

impl Group {
    fn tenants(&self) -> Vec<String> {
        self.members
            .lock()
            .iter()
            .map(|m| m.tenant.clone())
            .collect()
    }

    /// Run one epoch and bill its admitted rows to the subscribing
    /// tenants; returns the rows.
    fn run_epoch(&self, budgets: &Mutex<BTreeMap<String, AdmissionBudget>>) -> Result<u64> {
        let mut engine = self.engine.lock();
        let rows = match engine.run_epoch()? {
            ss_core::microbatch::EpochRun::Idle => 0,
            ss_core::microbatch::EpochRun::Ran(p) => p.num_input_rows,
        };
        if rows > 0 {
            // Sharing splits the bill: each subscribing tenant pays an
            // equal share of the one read.
            let tenants = self.tenants();
            let share = rows.div_ceil(tenants.len().max(1) as u64);
            let mut budgets = budgets.lock();
            for t in &tenants {
                if let Some(b) = budgets.get_mut(t) {
                    b.charge(share);
                }
            }
        }
        Ok(rows)
    }
}

/// A per-tenant admission budget: a token bucket in row units. The
/// driver calls [`AdmissionBudget::tick`] once per scheduling tick,
/// checks [`AdmissionBudget::admissible`] before running a tenant's
/// epoch, and [`AdmissionBudget::charge`]s the rows the epoch actually
/// admitted afterwards — overdraft is allowed (an epoch's size is only
/// known after it runs) and carries as debt into future ticks.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionBudget {
    /// Rows credited per tick.
    refill: u64,
    /// Ceiling on banked credit (burst bound).
    capacity: u64,
    /// Current balance; negative = debt from an overdrafted epoch.
    tokens: i64,
}

impl AdmissionBudget {
    pub(crate) fn new(rows_per_tick: u64, burst_capacity: u64) -> AdmissionBudget {
        let capacity = burst_capacity.max(rows_per_tick).max(1);
        AdmissionBudget {
            refill: rows_per_tick,
            capacity,
            tokens: capacity as i64,
        }
    }

    /// Credit one tick's refill, capped at the burst capacity.
    pub(crate) fn tick(&mut self) {
        self.tokens = (self.tokens + self.refill as i64).min(self.capacity as i64);
    }

    /// May this tenant run an epoch now? (Positive balance; debt from
    /// a previous overdraft must drain first.)
    pub(crate) fn admissible(&self) -> bool {
        self.tokens > 0
    }

    /// Charge rows actually admitted (post-hoc; may overdraw).
    pub(crate) fn charge(&mut self, rows: u64) {
        self.tokens -= rows as i64;
    }

    /// Current balance (negative = debt).
    #[cfg(test)]
    fn balance(&self) -> i64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_budget_tick_charge_and_debt() {
        let mut b = AdmissionBudget::new(100, 200);
        assert!(b.admissible());
        b.charge(350); // epoch turned out larger than the balance
        assert!(!b.admissible());
        assert_eq!(b.balance(), -150);
        b.tick();
        assert!(!b.admissible()); // still in debt
        b.tick();
        assert!(b.admissible()); // refills cleared the debt
        assert_eq!(b.balance(), 50);
        // Banked credit is capped at the burst capacity.
        for _ in 0..10 {
            b.tick();
        }
        assert_eq!(b.balance(), 200);
    }
}
