//! High-availability failover (§4.3 "automatically recover", §6.1).
//!
//! The paper's recovery story assumes a restarted driver; this module
//! adds the *hot* variant: a warm standby process tailing the same
//! (replicated) checkpoint, pre-loaded with state, that takes over
//! within a bounded number of epochs when the leader dies.
//!
//! Three pieces compose it:
//!
//! * **Replicated checkpoints** — [`ss_state::ReplicatedBackend`]
//!   mirrors every WAL append, checkpoint blob and manifest write onto
//!   a second directory (sync, or async with bounded lag), so losing
//!   the primary volume loses no committed epoch.
//! * **Lease-fenced leadership** — [`ss_wal::LeaseManager`] maintains
//!   an atomically-renewed lease file with a monotonically increasing
//!   *fencing epoch*. Wrapping the checkpoint backend in
//!   [`ss_wal::FencedBackend`] (and the sink in
//!   [`ss_bus::FencedSink`]) makes every durable write validate the
//!   lease first: a paused-then-resumed "zombie" leader gets
//!   [`SsError::Fenced`] instead of corrupting the log.
//! * **Warm standby** — [`StandbyQuery`] wraps a read-only engine
//!   (built with [`MicroBatchExecution::new_standby`]) that replays
//!   committed epochs as they appear and promotes itself when the
//!   lease lapses, producing output byte-identical to a never-failed
//!   run (the sink's per-epoch idempotence absorbs the dead leader's
//!   partial writes). The standby is read-only *by construction*, not
//!   by configuration: a tick is the take-over's catch-up step without
//!   ownership — state comes in through
//!   [`StateStore::load_best`](ss_state::StateStore::load_best), which
//!   reads the checkpoint chain and touches nothing (the owner's
//!   `restore_best` also purges spill blobs and prunes newer
//!   checkpoints — files a live leader still needs), and committed
//!   epochs run through the replay driver, which has no durable step.
//!   Promotion is the same take-over every restart runs, entered from
//!   wherever catch-up got to.
//!
//! The leader composes its backend as
//! `FencedBackend(ReplicatedBackend(primary, replica), lease)`; the
//! standby watches the same storage with its *own* [`LeaseManager`]
//! (a different holder name), whose writes stay rejected until
//! [`StandbyQuery::promote`] wins the lease and bumps the fencing
//! epoch.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use ss_common::{to_json, Result, SsError};
use ss_state::{ReplicatedBackend, ReplicationMode};
use ss_wal::LeaseManager;

use crate::microbatch::MicroBatchExecution;

/// High-availability wiring for one query, carried in
/// [`MicroBatchConfig::ha`](crate::microbatch::MicroBatchConfig::ha).
#[derive(Clone)]
pub struct HaConfig {
    /// The query's lease manager. The leader acquires and renews it;
    /// a standby only watches it for lapse. Durable writes are
    /// validated against its fencing epoch.
    pub lease: Arc<LeaseManager>,
    /// The replicated backend underneath the (fenced) engine backend,
    /// when checkpoint mirroring is on. Carried here so replication
    /// lag and error counters surface in metrics and `/query/<q>/ha`.
    pub replication: Option<Arc<ReplicatedBackend>>,
}

impl HaConfig {
    /// Lease-only HA (fencing without checkpoint mirroring).
    pub fn new(lease: Arc<LeaseManager>) -> HaConfig {
        HaConfig { lease, replication: None }
    }

    /// Record the replicated backend for observability.
    pub fn with_replication(mut self, replication: Arc<ReplicatedBackend>) -> HaConfig {
        self.replication = Some(replication);
        self
    }
}

/// The `/query/<name>/ha` body for a query under a lease.
#[derive(Serialize)]
struct HaStatus {
    configured: bool,
    role: String,
    holder: String,
    fencing_epoch: Option<u64>,
    fencing_rejections: u64,
    failovers: u64,
    standby: bool,
    epoch: u64,
    replication: Option<ReplicationStatus>,
}

#[derive(Serialize)]
struct ReplicationStatus {
    mode: String,
    mirrored_ops: u64,
    replica_errors: u64,
    replication_lag_us: u64,
}

impl MicroBatchExecution {
    /// One-line JSON snapshot of the HA machinery for the
    /// introspection server's `/query/<name>/ha` endpoint;
    /// `{"configured":false}` for a query without a lease.
    pub fn ha_status_json(&self) -> String {
        let Some(ha) = self.ha() else {
            return to_json(&BTreeMap::from([("configured", false)]));
        };
        let replication = ha.replication.as_ref().map(|r| ReplicationStatus {
            mode: match r.mode() {
                ReplicationMode::Sync => "sync".to_string(),
                ReplicationMode::Async { max_lag } => format!("async(max_lag={max_lag})"),
            },
            mirrored_ops: r.mirrored_ops(),
            replica_errors: r.replica_errors(),
            replication_lag_us: r.last_lag_us(),
        });
        let status = HaStatus {
            configured: true,
            role: self.ha_role().map_or("unknown", |r| r.as_str()).to_string(),
            holder: ha.lease.holder().to_string(),
            fencing_epoch: ha.lease.fencing_epoch(),
            fencing_rejections: ha.lease.fencing_rejections(),
            failovers: ha.lease.failovers(),
            standby: self.is_standby(),
            epoch: self.current_epoch(),
            replication,
        };
        to_json(&status)
    }
}

/// What one standby tick observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandbyStatus {
    /// The leader's lease is live; the standby replayed up to
    /// `caught_up_to` (the last committed epoch it has applied).
    Following {
        /// Last committed epoch applied to the standby's state.
        caught_up_to: u64,
    },
    /// The lease stayed byte-identical for `ttl + grace` of local
    /// monotonic time: the leader is dead or wedged. Promote.
    LeaderLapsed {
        /// Last committed epoch applied to the standby's state.
        caught_up_to: u64,
    },
}

/// A warm standby for one query: an engine built with
/// [`MicroBatchExecution::new_standby`] plus the tick/promote loop.
///
/// ```text
/// let mut standby = StandbyQuery::new(engine)?;
/// loop {
///     match standby.tick()? {
///         StandbyStatus::Following { .. } => sleep(poll),
///         StandbyStatus::LeaderLapsed { .. } => break,
///     }
/// }
/// let leader = standby.promote()?;   // bounded-epoch takeover
/// ```
pub struct StandbyQuery {
    engine: MicroBatchExecution,
}

impl StandbyQuery {
    /// Wrap a standby engine. Fails unless the engine was built with
    /// [`MicroBatchExecution::new_standby`] (and therefore has an HA
    /// config to watch).
    pub fn new(engine: MicroBatchExecution) -> Result<StandbyQuery> {
        if !engine.is_standby() {
            return Err(SsError::Plan(
                "StandbyQuery requires an engine built with new_standby".into(),
            ));
        }
        Ok(StandbyQuery { engine })
    }

    /// The wrapped engine (read-only introspection: progress, metrics,
    /// HA status).
    pub fn engine(&self) -> &MicroBatchExecution {
        &self.engine
    }

    /// One standby iteration: catch up on newly committed epochs
    /// (read-only), then check the lease. Catch-up errors are
    /// tolerated when the lease has lapsed — a dying leader can leave
    /// a torn tail that only promotion's WAL repair can read past —
    /// but propagate while the leader is alive.
    pub fn tick(&mut self) -> Result<StandbyStatus> {
        let caught = self.engine.standby_catch_up();
        let lapsed = self
            .engine
            .ha()
            .expect("standby engines always carry an HA config")
            .lease
            .is_lapsed()?;
        let caught_up_to = self.engine.current_epoch();
        match (caught, lapsed) {
            (_, true) => Ok(StandbyStatus::LeaderLapsed { caught_up_to }),
            (Ok(_), false) => Ok(StandbyStatus::Following { caught_up_to }),
            (Err(e), false) => Err(e),
        }
    }

    /// Take over: acquire the lease (bumping the fencing epoch over
    /// the old leader), repair the WAL tail, finish catch-up and
    /// re-run the in-flight epochs with output enabled. Returns the
    /// promoted engine, now a normal leader ready for `run_epoch`.
    pub fn promote(mut self) -> Result<MicroBatchExecution> {
        self.engine.promote()?;
        Ok(self.engine)
    }

    /// Drive the tick/promote loop: poll every `poll` until the lease
    /// lapses, then promote. Gives up after `max_ticks` polls.
    /// Transient catch-up errors (shared storage observed mid-write)
    /// are retried on the next tick; [`SsError::Fenced`] is fatal.
    pub fn run_until_promoted(
        mut self,
        poll: Duration,
        max_ticks: u64,
    ) -> Result<MicroBatchExecution> {
        for tick in 0..max_ticks {
            match self.tick() {
                Ok(StandbyStatus::LeaderLapsed { .. }) => return self.promote(),
                Ok(StandbyStatus::Following { .. }) => {}
                Err(SsError::Fenced(m)) => return Err(SsError::Fenced(m)),
                Err(_) => {}
            }
            if tick + 1 < max_ticks {
                // Poll on the lease's clock: lapse is observed in the
                // same timebase, and a virtual clock makes the whole
                // takeover drill run in simulated time.
                self.engine
                    .ha()
                    .expect("standby engines always carry an HA config")
                    .lease
                    .clock()
                    .sleep(poll);
            }
        }
        Err(SsError::Execution(format!(
            "standby `{}` saw no lease lapse within {} ticks",
            self.engine.name(),
            max_ticks
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use ss_bus::{GeneratorSource, MemorySink, Sink, Source};
    use ss_common::clock::{ClockRef, SimClock};
    use ss_common::{row, DataType, Field, Schema, SchemaRef, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star};
    use ss_plan::{LogicalPlan, LogicalPlanBuilder, OutputMode};
    use ss_state::{CheckpointBackend, MemoryBackend};
    use ss_wal::FencedBackend;

    use crate::microbatch::MicroBatchConfig;

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
        ])
    }

    fn gen_source() -> Arc<GeneratorSource> {
        Arc::new(GeneratorSource::new(
            "events",
            schema(),
            1,
            Arc::new(|p, o| {
                let c = if (p as u64 + o).is_multiple_of(2) { "CA" } else { "US" };
                row![c, Value::Timestamp((o as i64) * 1_000_000)]
            }),
        ))
    }

    fn count_plan() -> Arc<LogicalPlan> {
        LogicalPlanBuilder::scan("events", schema(), true)
            .aggregate(vec![col("country")], vec![count_star()])
            .build()
    }

    /// Shared virtual clock: the `SimClock` half steps time, the
    /// `ClockRef` half is what lease managers observe.
    fn fake_clock() -> (SimClock, ClockRef) {
        let sim = SimClock::new(0);
        let handle = sim.handle();
        (sim, handle)
    }

    fn lease_on(
        shared: &Arc<dyn CheckpointBackend>,
        holder: &str,
        clock: ClockRef,
    ) -> Arc<LeaseManager> {
        Arc::new(LeaseManager::with_clock(
            shared.clone(),
            holder,
            Duration::from_millis(100),
            Duration::from_millis(50),
            clock,
        ))
    }

    fn engine_with(
        name: &str,
        source: Arc<GeneratorSource>,
        sink: Arc<dyn Sink>,
        backend: Arc<dyn CheckpointBackend>,
        config: MicroBatchConfig,
        standby: bool,
    ) -> MicroBatchExecution {
        let mut sources: HashMap<String, Arc<dyn Source>> = HashMap::new();
        sources.insert("events".into(), source);
        let build = if standby {
            MicroBatchExecution::new_standby
        } else {
            MicroBatchExecution::new
        };
        build(
            name,
            &count_plan(),
            sources,
            Arc::new(MemoryCatalog::new()),
            sink,
            OutputMode::Complete,
            backend,
            config,
        )
        .unwrap()
    }

    #[test]
    fn standby_query_requires_a_standby_engine() {
        let shared: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let (_, clock) = fake_clock();
        let lease = lease_on(&shared, "a", clock);
        let config = MicroBatchConfig {
            ha: Some(HaConfig::new(lease.clone())),
            ..Default::default()
        };
        let leader = engine_with(
            "q",
            gen_source(),
            MemorySink::new("out"),
            Arc::new(FencedBackend::new(shared.clone(), lease)),
            config,
            false,
        );
        let err = StandbyQuery::new(leader).err().unwrap();
        assert!(err.to_string().contains("new_standby"), "got: {err}");
    }

    #[test]
    fn standby_follows_then_promotes_when_the_lease_lapses() {
        let shared: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let (t, clock) = fake_clock();
        let sink = MemorySink::new("out");

        // Leader: checkpoint every epoch so the standby has state to
        // pre-load.
        let leader_lease = lease_on(&shared, "leader", clock.clone());
        let lc = MicroBatchConfig {
            checkpoint_interval: 1,
            ha: Some(HaConfig::new(leader_lease.clone())),
            ..Default::default()
        };
        let src = gen_source();
        let mut leader = engine_with(
            "q",
            src.clone(),
            sink.clone(),
            Arc::new(FencedBackend::new(shared.clone(), leader_lease.clone())),
            lc,
            false,
        );
        assert_eq!(leader.ha_role(), Some(ss_wal::HaRole::Leader));
        src.advance(4);
        leader.process_available().unwrap();
        assert_eq!(leader.current_epoch(), 1);

        // Standby over the same storage, its own lease manager.
        let standby_lease = lease_on(&shared, "standby", clock.clone());
        let sc = MicroBatchConfig {
            checkpoint_interval: 1,
            ha: Some(HaConfig::new(standby_lease.clone())),
            ..Default::default()
        };
        let standby_src = gen_source();
        standby_src.advance(4);
        let standby = engine_with(
            "q",
            standby_src,
            sink.clone(),
            Arc::new(FencedBackend::new(shared.clone(), standby_lease)),
            sc,
            true,
        );
        assert_eq!(standby.ha_role(), Some(ss_wal::HaRole::Standby));
        let mut standby = StandbyQuery::new(standby).unwrap();

        // While the leader renews, the standby follows read-only.
        match standby.tick().unwrap() {
            StandbyStatus::Following { caught_up_to } => assert_eq!(caught_up_to, 1),
            other => panic!("expected Following, got {other:?}"),
        }
        let before = sink.snapshot();

        // The leader goes silent past ttl + grace of monotonic time.
        t.advance(Duration::from_micros(151_000));
        match standby.tick().unwrap() {
            StandbyStatus::LeaderLapsed { caught_up_to } => assert_eq!(caught_up_to, 1),
            other => panic!("expected LeaderLapsed, got {other:?}"),
        }

        // Promotion bumps the fencing epoch; catch-up left nothing to
        // replay, so the sink is untouched (byte-identical output).
        let mut promoted = standby.promote().unwrap();
        assert_eq!(promoted.ha_role(), Some(ss_wal::HaRole::Leader));
        assert_eq!(sink.snapshot(), before);

        // The old leader is a zombie now: its next durable write is
        // fenced, and the supervisor would terminate it.
        src.advance(2);
        let err = leader.process_available().unwrap_err();
        assert!(matches!(err, SsError::Fenced(_)), "got: {err}");
        assert_eq!(leader.ha_role(), Some(ss_wal::HaRole::Fenced));

        // The promoted engine carries on where the leader stopped.
        let promoted_fe = promoted.ha().unwrap().lease.fencing_epoch().unwrap();
        assert!(promoted_fe > leader_lease.fencing_epoch().unwrap_or(0));
        promoted.process_available().unwrap();
        assert!(promoted.current_epoch() >= 1);
    }

    #[test]
    fn run_until_promoted_gives_up_after_max_ticks() {
        let shared: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
        let (_, clock) = fake_clock();

        let leader_lease = lease_on(&shared, "leader", clock.clone());
        leader_lease.try_acquire().unwrap();

        let standby_lease = lease_on(&shared, "standby", clock);
        let sc = MicroBatchConfig {
            ha: Some(HaConfig::new(standby_lease.clone())),
            ..Default::default()
        };
        let standby = engine_with(
            "q",
            gen_source(),
            MemorySink::new("out"),
            Arc::new(FencedBackend::new(shared.clone(), standby_lease)),
            sc,
            true,
        );
        let standby = StandbyQuery::new(standby).unwrap();
        // The virtual clock only advances by the 1ms poll sleeps — far
        // short of the 150ms lapse window — so the lease stays live.
        let err = match standby.run_until_promoted(Duration::from_millis(1), 3) {
            Err(e) => e,
            Ok(_) => panic!("promotion should not happen under a live lease"),
        };
        assert!(err.to_string().contains("no lease lapse"), "got: {err}");
    }
}

