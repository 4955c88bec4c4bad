//! Taking a checkpoint over (§6.1 step 4), written once: a fresh
//! process, an in-place restart, a manual rollback and a standby's
//! promotion all run [`MicroBatchExecution::take_over`] from wherever
//! the engine's in-memory state stands; a standby's read-only tick is
//! its `catch_up` step alone.

use std::collections::HashMap;

use ss_common::eventlog::{EVENT_FAILOVER, EVENT_RESTART, EVENT_STATE_MIGRATION, EVENT_WAL_REPAIR};
use ss_common::{PartitionOffsets, Result, SsError};
use ss_wal::{EpochOffsets, HaRole};

use super::epoch::Epoch;
use super::MicroBatchExecution;
use crate::ha::{HaConfig, StandbyStatus};
use crate::parallel::relayout;
use crate::watermark::WatermarkTracker;

impl MicroBatchExecution {
    /// Take ownership of the checkpoint and bring state and sink to a
    /// consistent point. The caller holds the lease (if any; checked
    /// first) and may stand anywhere at or below the commit line: at
    /// epoch 0 after a reset, or wherever read-only catch-up got to.
    ///
    /// When a re-run in-flight epoch fails on a record under an
    /// isolating policy, isolation goes on and a reset engine takes
    /// over again — the probe strips the offenders this time. The
    /// sticky flag bounds this to a single retry.
    pub(super) fn take_over(&mut self) -> Result<()> {
        // Only the lease holder takes over, even where nothing would be
        // written: a usurped leader's restart fails here.
        if let Some(ha) = &self.config.ha {
            ha.lease.check_fenced("take-over")?;
        }
        match self.take_over_once() {
            Err(err) if self.should_isolate(&err) => {
                self.enter_isolation(&err);
                self.reset_and_recover()
            }
            other => other,
        }
    }

    /// Hardened against bad durable data: the WAL is scanned first
    /// (`verify_and_repair` — torn records past the last commit become
    /// uncommitted work, corruption inside committed history fails
    /// loudly), and state restore falls back to older checkpoints when
    /// the newest is unreadable (`restore_best` — the WAL replays the
    /// gap).
    fn take_over_once(&mut self) -> Result<()> {
        let repair = self.wal.verify_and_repair()?;
        if !repair.is_clean() {
            let epochs = |dropped: &[u64]| {
                serde_json::Value::Array(dropped.iter().map(|&e| e.into()).collect())
            };
            self.events.emit(
                &self.name,
                EVENT_WAL_REPAIR,
                &[
                    ("dropped_offsets", epochs(&repair.dropped_offsets)),
                    ("dropped_commits", epochs(&repair.dropped_commits)),
                ],
            );
        }
        let rp = self.wal.recovery_point()?;
        // Nothing committed is the commit line at epoch 0: every state
        // checkpoint is stale and nothing is restored or replayed.
        let last_committed = rp.last_committed.unwrap_or(0);
        // Checkpoints newer than the commit line describe state the
        // engine is about to recompute (e.g. the commit record was a
        // torn tail just dropped); a delta written against them could
        // corrupt a future restore chain, so drop them first.
        self.store.truncate_after(last_committed)?;
        self.catch_up(last_committed, true)?;
        // Re-run the in-flight epochs through the commit driver: the
        // sink's idempotence absorbs any partial writes from the crash.
        for e in rp.uncommitted_epochs {
            let offsets = self.wal.read_offsets(e)?.ok_or_else(|| {
                SsError::Internal(format!("offset log lists epoch {e} but read failed"))
            })?;
            self.apply_positions(&offsets);
            self.epoch = e;
            let timing = self.start_timing(0);
            let mut ep = Epoch::new(offsets, true);
            self.commit_epoch(&mut ep)?;
            self.last_inflight = Some(self.finalize(ep, &timing));
        }
        Ok(())
    }

    /// Bring in-memory state up to `last_committed`: restore a state
    /// checkpoint once, then silently replay each committed epoch after
    /// the engine's own (the sink already has their output). Returns
    /// the number of epochs replayed.
    ///
    /// The `owner` restores with the store's ownership actions (stale
    /// spill blobs purged, newer checkpoints pruned), migrates and
    /// re-lays the state out for this plan on the way in, and treats a
    /// committed epoch without an offset record as corruption. A
    /// read-only standby only loads — the checkpoint belongs to a live
    /// leader — and stops quietly at a missing record: the leader is
    /// mid-write, or left a torn tail for promotion's repair.
    fn catch_up(&mut self, last_committed: u64, owner: bool) -> Result<u64> {
        if !self.restored {
            self.restore_state(last_committed, owner)?;
            self.restored = true;
        }
        let mut replayed = 0;
        for e in (self.epoch + 1)..=last_committed {
            let Some(offsets) = self.wal.read_offsets(e)? else {
                if owner {
                    return Err(SsError::Execution(format!(
                        "cannot recover: offset log is missing committed epoch {e}"
                    )));
                }
                break;
            };
            // Execute before advancing so a failed replay (e.g. a torn
            // commit record a dying leader left behind) leaves the
            // engine consistent at the previous epoch.
            let mut ep = Epoch::new(offsets, false);
            self.replay_epoch(&mut ep)?;
            self.apply_positions(&ep.offsets);
            self.epoch = e;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Restore the newest restorable checkpoint at or below `at` into
    /// the operator tree and stand the engine at its epoch. The plan
    /// declares its tables first; the restore fills them.
    fn restore_state(&mut self, at: u64, owner: bool) -> Result<()> {
        let target = self.exchange.partitions();
        let mut families = Vec::new();
        self.root.declare_state(&mut self.store, target, &mut families);
        let restored = if owner {
            // Migrated and re-laid out for this run in the restore's pass.
            let route = relayout(families, &self.migrations, target);
            self.store.restore_best_routed(Some(at), route)?
        } else {
            self.store.load_best(Some(at))?
        };
        let Some(epoch) = restored else {
            return Ok(());
        };
        if owner && !self.migrations.is_empty() {
            let operators = self.migrations.len() as u64;
            self.events.emit(
                &self.name,
                EVENT_STATE_MIGRATION,
                &[("operators", operators.into())],
            );
        }
        self.tracker.load(&self.store)?;
        // The positions come from the offsets the checkpoint's epoch
        // logged.
        if let Some(offsets) = self.wal.read_offsets(epoch)? {
            self.apply_positions(&offsets);
        }
        self.epoch = epoch;
        Ok(())
    }

    pub(super) fn apply_positions(&mut self, offsets: &EpochOffsets) {
        for (name, r) in &offsets.sources {
            self.positions.insert(name.clone(), r.end.clone());
        }
    }

    /// Throw away all in-memory execution state — the engine stands at
    /// epoch 0 with empty operators, as a fresh process would — and
    /// take the checkpoint over from there.
    pub(super) fn reset_and_recover(&mut self) -> Result<()> {
        self.store.clear_memory();
        // Observations are dropped and recomputed during replay.
        self.tracker = WatermarkTracker::new(&self.tracker.clone_config());
        self.epoch = 0;
        self.positions.clear();
        self.restored = false;
        self.take_over()
    }

    /// Manual rollback (§7.2): truncate the WAL, state checkpoints and
    /// sink output to `epoch`, then take over from there. Subsequent
    /// triggers recompute everything after `epoch` from the (retained)
    /// source data.
    /// Both validations below, and the HA fence, run **before** any
    /// truncation, so a refused rollback leaves the checkpoint, the
    /// sink and the dead-letter queue untouched.
    pub fn rollback_to(&mut self, epoch: u64) -> Result<()> {
        // Retention horizon: if GC compacted the WAL prefix, epochs
        // below the earliest retained full snapshot cannot be rebuilt.
        let epochs = self.wal.offset_epochs()?;
        if let Some(&first) = epochs.first() {
            if first > 1 {
                let floor = self.store.earliest_full_epoch()?.unwrap_or(first);
                if epoch < floor {
                    return Err(SsError::Execution(format!(
                        "cannot roll back to epoch {epoch}: checkpoint retention \
                         horizon is epoch {floor} (earlier checkpoints and WAL \
                         records were purged)"
                    )));
                }
            }
        }
        // Source retention: replaying from `epoch` re-reads every source
        // from its position at that epoch; refuse if a source has
        // already aged that data out.
        let resume: HashMap<String, PartitionOffsets> = if epoch == 0 {
            self.sources.keys().map(|n| (n.clone(), PartitionOffsets::new())).collect()
        } else {
            let offsets = self.wal.read_offsets(epoch)?.ok_or_else(|| {
                SsError::Execution(format!(
                    "cannot roll back to epoch {epoch}: its offset record is missing"
                ))
            })?;
            offsets
                .sources
                .iter()
                .map(|(n, r)| (n.clone(), r.end.clone()))
                .collect()
        };
        for (name, source) in &self.sources {
            let earliest = source.earliest_offsets()?;
            let positions = resume.get(name).cloned().unwrap_or_default();
            for (partition, avail) in &earliest {
                let have = positions.get(partition).copied().unwrap_or(0);
                if *avail > have {
                    return Err(SsError::Execution(format!(
                        "cannot roll back to epoch {epoch}: source `{name}` \
                         partition {partition} has aged out data before offset \
                         {avail} (replay would need offset {have})"
                    )));
                }
            }
        }
        // The sink and the DLQ live outside the checkpoint backend, so
        // a zombie leader is fenced explicitly, as at every commit.
        if let Some(ha) = &self.config.ha {
            ha.lease.check_fenced("rollback")?;
        }
        self.wal.truncate_after(epoch)?;
        self.store.truncate_after(epoch)?;
        self.sink.truncate_after(epoch)?;
        self.dlq.truncate_after(epoch);
        self.reset_and_recover()
    }

    /// In-place restart after a failure (used by the query supervisor):
    /// throw away all in-memory execution state and take the
    /// checkpoint over again, exactly as a fresh process would.
    /// Increments the restart counter surfaced in
    /// [`QueryProgress`](crate::metrics::QueryProgress).
    pub fn restart(&mut self) -> Result<()> {
        self.restarts += 1;
        self.events.emit(
            &self.name,
            EVENT_RESTART,
            &[("count", self.restarts.into())],
        );
        self.reset_and_recover()
    }

    /// The HA configuration, when this query runs under a lease.
    pub fn ha(&self) -> Option<&HaConfig> {
        self.config.ha.as_ref()
    }

    /// This query's high-availability role, `None` without a lease.
    pub fn ha_role(&self) -> Option<HaRole> {
        let role = self.config.ha.as_ref().map(|h| h.lease.role())?;
        // A warm standby reports Standby until promoted (or fenced),
        // whatever its lease manager last observed.
        if self.standby && role != HaRole::Fenced {
            return Some(HaRole::Standby);
        }
        Some(role)
    }

    /// The fencing epoch stamped into durable records, `None` when the
    /// query is not currently the fenced leader.
    pub(super) fn held_fencing_epoch(&self) -> Option<u64> {
        self.config.ha.as_ref().and_then(|h| h.lease.fencing_epoch())
    }

    /// True for a warm standby that has not yet been promoted.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// Tail the (replicated) checkpoint **read-only**: load the newest
    /// loadable state checkpoint once, then replay every newly
    /// *committed* epoch silently — the sink already holds their
    /// output, so a standby produces no writes at all, to the sink or
    /// to the checkpoint it shares with the live leader. Torn tails
    /// and in-flight epochs are deliberately left alone; repairing
    /// them requires the lease and happens in
    /// [`promote`](Self::promote). Returns the number of committed
    /// epochs applied this call.
    ///
    /// The standby must be configured with the same plan and partition
    /// layout as the leader: catch-up performs no state migrations and
    /// no re-layout (those belong to the owner).
    pub fn standby_catch_up(&mut self) -> Result<u64> {
        match self.wal.recovery_point()?.last_committed {
            Some(last_committed) => self.catch_up(last_committed, false),
            None => Ok(0),
        }
    }

    /// One standby iteration: [`standby_catch_up`](Self::standby_catch_up)
    /// on newly committed epochs, then check the lease. Catch-up errors
    /// are tolerated when the lease has lapsed — a dying leader can
    /// leave a torn tail that only promotion's WAL repair can read past
    /// — but propagate while the leader is alive. Fails on an engine
    /// that is not a standby (not built with
    /// [`new_standby`](Self::new_standby), or already promoted).
    pub fn standby_tick(&mut self) -> Result<StandbyStatus> {
        let lease = match &self.config.ha {
            Some(ha) if self.standby => ha.lease.clone(),
            _ => {
                return Err(SsError::Plan(
                    "standby_tick needs an engine built with new_standby".into(),
                ))
            }
        };
        let caught = self.standby_catch_up();
        let lapsed = lease.is_lapsed()?;
        let caught_up_to = self.epoch;
        match (caught, lapsed) {
            (_, true) => Ok(StandbyStatus::LeaderLapsed { caught_up_to }),
            (Ok(_), false) => Ok(StandbyStatus::Following { caught_up_to }),
            (Err(e), false) => Err(e),
        }
    }

    /// Warm takeover: acquire the lease — bumping the fencing epoch,
    /// so every durable write the previous leader still attempts is
    /// rejected with [`SsError::Fenced`] — then take the checkpoint
    /// over from where read-only catch-up got to: repair the WAL tail,
    /// finish the committed catch-up, and re-run any epoch that was in
    /// flight at the failure (the sink's idempotence absorbs the dead
    /// leader's partial writes). Promotion work is bounded by the
    /// epochs committed since the last
    /// [`standby_catch_up`](Self::standby_catch_up) tick plus the
    /// in-flight tail. Returns the fencing epoch now held.
    pub fn promote(&mut self) -> Result<u64> {
        let Some(ha) = self.config.ha.clone() else {
            return Err(SsError::Plan(
                "promote: query has no HA configuration (MicroBatchConfig::ha)".into(),
            ));
        };
        let fencing = ha.lease.try_acquire()?;
        self.standby = false;
        self.take_over()?;
        self.events.emit(
            &self.name,
            EVENT_FAILOVER,
            &[
                ("holder", ha.lease.holder().into()),
                ("fencing_epoch", fencing.into()),
                ("epoch", self.epoch.into()),
            ],
        );
        Ok(fencing)
    }
}
