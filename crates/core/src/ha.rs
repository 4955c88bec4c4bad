//! High-availability failover (§4.3 "automatically recover", §6.1).
//!
//! The paper's recovery story assumes a restarted driver; this module
//! adds the *hot* variant: a warm standby process tailing the same
//! (replicated) checkpoint, pre-loaded with state, that takes over
//! within a bounded number of epochs when the leader dies.
//!
//! Three pieces compose it, all from one setting,
//! [`MicroBatchConfig::ha`](crate::microbatch::MicroBatchConfig::ha):
//! the engine builds its checkpoint backend out of the one it is given
//! before anything reads or writes it.
//!
//! * **Replicated checkpoints** — with [`HaConfig::replica`] set, an
//!   [`ss_state::ReplicatedBackend`] mirrors every WAL append,
//!   checkpoint blob and manifest write onto the replica before the
//!   write returns, so losing the primary volume loses no committed
//!   epoch.
//! * **Lease-fenced leadership** — [`ss_wal::LeaseManager`] maintains
//!   an atomically-renewed lease file with a monotonically increasing
//!   *fencing epoch*. The engine fences its backend with it
//!   ([`ss_wal::FencedBackend`]), so every WAL, state and manifest
//!   write validates the lease first, and it checks the lease before
//!   every take-over and every sink, DLQ and rollback mutation: a
//!   paused-then-resumed "zombie" leader gets
//!   [`SsError::Fenced`](ss_common::SsError::Fenced) instead of
//!   corrupting the log or the output.
//! * **Warm standby** — an engine built with
//!   [`MicroBatchExecution::new_standby`] is read-only: each
//!   [`standby_tick`](MicroBatchExecution::standby_tick) replays the
//!   committed epochs that appeared and reports whether the lease
//!   lapsed; [`promote`](MicroBatchExecution::promote) then takes
//!   over, producing output byte-identical to a never-failed run (the
//!   sink's per-epoch idempotence absorbs the dead leader's partial
//!   writes). The standby is read-only *by construction*, not
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
//! The standby watches the same storage with its *own*
//! [`LeaseManager`] (a different holder name), whose writes stay
//! rejected until [`promote`](MicroBatchExecution::promote) wins the
//! lease and bumps the fencing epoch.
//!
//! ```text
//! loop {
//!     match standby.standby_tick()? {
//!         StandbyStatus::Following { .. } => sleep(poll),
//!         StandbyStatus::LeaderLapsed { .. } => break,
//!     }
//! }
//! standby.promote()?;   // bounded-epoch takeover; now a leader
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::Serialize;
use ss_common::to_json;
use ss_state::CheckpointBackend;
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
    /// A second backend every checkpoint write is mirrored onto before
    /// it returns (`None` = no mirror). A standby or a cold restart can
    /// run from it alone; its counters surface in metrics and
    /// `/query/<q>/ha`.
    pub replica: Option<Arc<dyn CheckpointBackend>>,
}

impl HaConfig {
    /// Lease-only HA (fencing without checkpoint mirroring).
    pub fn new(lease: Arc<LeaseManager>) -> HaConfig {
        HaConfig { lease, replica: None }
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
    /// Always `"sync"`: every mirror completes before its write returns.
    mode: &'static str,
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
        let replication = self.mirror().map(|r| ReplicationStatus {
            mode: "sync",
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::time::Duration;

    use ss_bus::{GeneratorSource, MemorySink, Sink, Source};
    use ss_common::clock::{ClockRef, SimClock};
    use ss_common::{row, DataType, Field, Schema, SchemaRef, SsError, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star};
    use ss_plan::{LogicalPlan, LogicalPlanBuilder, OutputMode};
    use ss_state::MemoryBackend;

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
            shared.clone(),
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
            ha: Some(HaConfig::new(standby_lease)),
            ..Default::default()
        };
        let standby_src = gen_source();
        standby_src.advance(4);
        let mut standby = engine_with(
            "q",
            standby_src.clone(),
            sink.clone(),
            shared.clone(),
            sc,
            true,
        );
        assert_eq!(standby.ha_role(), Some(ss_wal::HaRole::Standby));

        // A leader is not a standby: it refuses to tick.
        let err = leader.standby_tick().unwrap_err();
        assert!(err.to_string().contains("new_standby"), "got: {err}");

        // While the leader renews, the standby follows read-only.
        match standby.standby_tick().unwrap() {
            StandbyStatus::Following { caught_up_to } => assert_eq!(caught_up_to, 1),
            other => panic!("expected Following, got {other:?}"),
        }
        let before = sink.snapshot();

        // The leader goes silent past ttl + grace of monotonic time.
        t.advance(Duration::from_micros(151_000));
        match standby.standby_tick().unwrap() {
            StandbyStatus::LeaderLapsed { caught_up_to } => assert_eq!(caught_up_to, 1),
            other => panic!("expected LeaderLapsed, got {other:?}"),
        }

        // Promotion bumps the fencing epoch; catch-up left nothing to
        // replay, so the sink is untouched (byte-identical output).
        standby.promote().unwrap();
        let mut promoted = standby;
        assert_eq!(promoted.ha_role(), Some(ss_wal::HaRole::Leader));
        assert_eq!(sink.snapshot(), before);

        // Promoted, it is a leader and no longer ticks as a standby.
        let err = promoted.standby_tick().unwrap_err();
        assert!(err.to_string().contains("new_standby"), "got: {err}");

        // The old leader is a zombie now: its next durable write is
        // fenced, and the supervisor would terminate it.
        src.advance(2);
        let err = leader.process_available().unwrap_err();
        assert!(matches!(err, SsError::Fenced(_)), "got: {err}");
        assert_eq!(leader.ha_role(), Some(ss_wal::HaRole::Fenced));

        // The promoted engine carries on where the leader stopped.
        let promoted_fe = promoted.ha().unwrap().lease.fencing_epoch().unwrap();
        assert!(promoted_fe > leader_lease.fencing_epoch().unwrap_or(0));
        standby_src.advance(2);
        promoted.process_available().unwrap();
        assert_eq!(promoted.current_epoch(), 2, "the promoted engine commits");
    }
}
