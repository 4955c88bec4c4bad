//! One epoch through the protocol: the phase functions, the two
//! drivers that call them in order, and the trigger built on the
//! commit driver. The table in the [module header](super) maps each
//! function to its §6.1 step, profile phase and fail points.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ss_bus::{DeadLetterRecord, EpochOutput};
use ss_common::eventlog::{EVENT_ADMISSION_LIMITED, EVENT_PROGRESS, EVENT_SPILL, EVENT_WATCHDOG};
use ss_common::isolate::panic_message;
use ss_common::profile::{
    PHASE_ADMISSION, PHASE_EXECUTE, PHASE_FINALIZE, PHASE_SINK_COMMIT, PHASE_SOURCE_READ,
    PHASE_STATE_COMMIT, PHASE_WAL,
};
use ss_common::time::now_us;
use ss_common::{EpochProfile, OffsetRange, RecordBatch, Result, SsError};
use ss_plan::OutputMode;
use ss_wal::{EpochCommit, EpochOffsets};

use super::quarantine::QuarantinedOffsets;
use super::{failpoints, EpochRun, MicroBatchExecution};
use crate::admission::{admit, resume_from};
use crate::incremental::{EpochContext, OpStat, OpStatsCollector};
use crate::metrics::{OpDuration, QueryProgress};
use crate::parallel::ExchangeStats;

/// One logged epoch on its way through the protocol: what the phase
/// functions read and fill in, in the order they run.
pub(super) struct Epoch {
    /// The logged ranges and watermark the epoch covers.
    pub(super) offsets: EpochOffsets,
    /// False for the silent replay of a committed epoch: its poison
    /// rows come from its commit record instead of a probe.
    pub(super) live: bool,
    /// Phase wall times, task skew and shuffle attribution: progress
    /// reads its task and sink-commit figures from here. Dropped with a
    /// replay: the history describes epochs that committed here, not
    /// recovery.
    profile: EpochProfile,
    /// `read_sources`: each source's rows, and the `(min, max)` ingest
    /// time across them for the latency observed at sink commit.
    pub(super) inputs: HashMap<String, RecordBatch>,
    ingest: (i64, i64),
    /// `strip_poison`: the offsets removed from `inputs` and, for a
    /// probed epoch, their dead letters.
    pub(super) quarantined: QuarantinedOffsets,
    pub(super) letters: Vec<DeadLetterRecord>,
    /// `execute`: what progress reports of it.
    out_rows: u64,
    ops: Vec<OpStat>,
}

impl Epoch {
    pub(super) fn new(offsets: EpochOffsets, live: bool) -> Epoch {
        Epoch {
            profile: EpochProfile::new(offsets.epoch),
            offsets,
            live,
            inputs: HashMap::new(),
            ingest: (i64::MAX, i64::MIN),
            quarantined: BTreeMap::new(),
            letters: Vec::new(),
            out_rows: 0,
            ops: Vec::new(),
        }
    }

    /// Rows in the logged ranges (before any poison is stripped).
    fn rows_in(&self) -> u64 {
        self.offsets.sources.values().map(OffsetRange::num_records).sum()
    }

    pub(super) fn quarantined_records(&self) -> u64 {
        self.quarantined.values().map(|v| v.len() as u64).sum()
    }
}

/// When an epoch started — on the engine clock (the base of its
/// reported duration) and the monotonic one (phase attribution stays
/// meaningful under a frozen test clock) — and what its trigger knew:
/// how late it started, and the rows admission left for later epochs.
pub(super) struct Timing {
    started_us: i64,
    wall: Instant,
    scheduling_delay_us: u64,
    backlog_rows: u64,
}

fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

impl MicroBatchExecution {
    pub(super) fn start_timing(&self, scheduling_delay_us: u64) -> Timing {
        Timing {
            started_us: self.config.clock.wall_us(),
            wall: Instant::now(),
            scheduling_delay_us,
            backlog_rows: 0,
        }
    }

    /// Execute one trigger (§6.1). Returns [`EpochRun::Idle`] when
    /// there is nothing to do.
    ///
    /// The epoch runs under the watchdog deadline
    /// ([`MicroBatchConfig::epoch_deadline`](super::MicroBatchConfig::epoch_deadline)):
    /// a wedged epoch fails restartably with [`SsError::Timeout`]. On a
    /// record-shaped failure under an isolating
    /// [`ErrorPolicy`](ss_common::ErrorPolicy), the engine flips into
    /// isolation mode and re-runs the epoch once with per-record
    /// probing, quarantining the offenders instead of failing.
    pub fn run_epoch(&mut self) -> Result<EpochRun> {
        if self.standby {
            return Err(SsError::Execution(format!(
                "query `{}` is a warm standby; promote it before running epochs",
                self.name
            )));
        }
        self.last_inflight = None;
        self.watchdog.arm(self.config.epoch_deadline);
        let result = self.trigger();
        let expired = self.watchdog.expired();
        self.watchdog.disarm();
        let err = match result {
            Ok(run) => return Ok(run),
            Err(err) => err,
        };
        // Release workers parked on injected hangs: the epoch already
        // failed, nobody will collect their results.
        self.env.faults.cancel_hangs();
        if expired {
            self.events.emit(
                &self.name,
                EVENT_WATCHDOG,
                &[("epoch", self.epoch.into()), ("error", err.to_string().into())],
            );
        }
        if !self.should_isolate(&err) {
            return Err(err);
        }
        // First record-shaped failure under an isolating policy: enter
        // isolation and take over again. The failed epoch's offsets
        // are already in the WAL, so the take-over re-runs it as the
        // in-flight epoch — now stripping poison — and its progress is
        // this trigger's.
        self.enter_isolation(&err);
        self.reset_and_recover()?;
        Ok(match self.last_inflight.take() {
            Some(progress) => {
                self.publish(&progress);
                EpochRun::Ran(progress)
            }
            // The failure predated the offset write; nothing ran.
            None => EpochRun::Idle,
        })
    }

    /// Drain all currently-available input: run epochs until idle.
    /// This is also what the run-once trigger uses (§7.3).
    pub fn process_available(&mut self) -> Result<u64> {
        let mut epochs = 0;
        while let EpochRun::Ran(_) = self.run_epoch()? {
            epochs += 1;
        }
        Ok(epochs)
    }

    /// One trigger: admit → log offsets → commit driver → finalize.
    fn trigger(&mut self) -> Result<EpochRun> {
        // In the sequential trigger loop, this epoch starts late by
        // however much the previous one overran the trigger interval.
        let scheduling_delay_us = match &self.rate_controller {
            Some(rc) if rc.config().batch_interval_us > 0 => {
                let interval_us = rc.config().batch_interval_us as i64;
                (self.last_epoch_duration_us - interval_us).max(0) as u64
            }
            _ => 0,
        };
        let mut timing = self.start_timing(scheduling_delay_us);
        let Some(ranges) = self.admit(&mut timing)? else {
            // Caught up: the next epoch starts on time.
            self.last_epoch_duration_us = 0;
            return Ok(EpochRun::Idle);
        };
        let offsets = EpochOffsets {
            epoch: self.epoch + 1,
            sources: ranges,
            watermark_us: self.tracker.current(),
            defined_at_us: timing.started_us,
        };
        let mut ep = Epoch::new(offsets, true);
        // Everything since the trigger fired was backlog accounting and
        // budget apportionment.
        ep.profile.record(PHASE_ADMISSION, None, us_since(timing.wall));
        let epoch_label = ep.offsets.epoch.to_string();
        let epoch_span = self.trace.span("epoch", &[("epoch", epoch_label.as_str())]);
        self.log_offsets(&mut ep)?;
        self.commit_epoch(&mut ep)?;
        drop(epoch_span);
        let progress = self.finalize(ep, &timing);
        self.publish(&progress);
        Ok(EpochRun::Ran(progress))
    }

    // ------------------------------------------------------------------
    // The two drivers
    // ------------------------------------------------------------------

    /// Replay driver: recompute a logged epoch's effect on operator
    /// state — and nothing durable — handing back its output.
    pub(super) fn replay_epoch(&mut self, ep: &mut Epoch) -> Result<RecordBatch> {
        self.read_sources(ep)?;
        self.strip_poison(ep)?;
        let out = self.execute(ep)?;
        // Watermark advances at the epoch boundary (§4.3.1).
        self.tracker.advance();
        Ok(out)
    }

    /// Commit driver: replay's steps over a live epoch, then make it
    /// durable in protocol order — sink, commit record, state. The
    /// checkpoint comes last so checkpoints never run ahead of the
    /// commit log.
    pub(super) fn commit_epoch(&mut self, ep: &mut Epoch) -> Result<()> {
        let out = self.replay_epoch(ep)?;
        self.commit_sink(ep, out)?;
        self.log_commit(ep)?;
        self.commit_state(ep)
    }

    // ------------------------------------------------------------------
    // The phases
    // ------------------------------------------------------------------

    /// `admission`: measure each source's backlog, derive the epoch's
    /// total row budget — the batch cap (with adaptive catch-up)
    /// further bounded by the PID rate controller — and cut the
    /// epoch's offset ranges out of the backlog. `None` when there is
    /// nothing to run.
    fn admit(&mut self, timing: &mut Timing) -> Result<Option<BTreeMap<String, OffsetRange>>> {
        let mut available = BTreeMap::new();
        for (name, source) in &self.sources {
            let latest = source.latest_offsets()?;
            let earliest = source.earliest_offsets()?;
            let start = resume_from(self.positions.get(name), &earliest, &latest);
            self.positions.insert(name.clone(), start.clone());
            available.insert(name.clone(), OffsetRange { start, end: latest });
        }
        let backlog: u64 = available.values().map(OffsetRange::num_records).sum();
        let mut budget = self.effective_cap(backlog);
        let mut rate_limit = None;
        if let Some(rc) = &self.rate_controller {
            if let (Some(rate), Some(rows)) = (rc.rate(), rc.budget_rows()) {
                budget = budget.min(rows);
                rate_limit = Some(rate);
            }
        }
        let ranges = admit(budget, &available);
        let mut admitted = 0;
        for (name, range) in &ranges {
            admitted += range.num_records();
            if let Some(m) = self.source_metrics.get(name) {
                let left = available[name].num_records() - range.num_records();
                m.backlog.set(left as i64);
            }
        }
        timing.backlog_rows = backlog - admitted;

        let pt = self.config.clock.wall_us();
        if admitted == 0 && !self.root.has_pending_timeouts(&mut self.store, pt) {
            return Ok(None);
        }
        self.registry
            .histogram("ss_scheduling_delay_us", &[])
            .observe(timing.scheduling_delay_us);
        self.registry
            .counter("ss_admitted_rows_total", &[])
            .add(admitted);
        self.registry
            .gauge("ss_admission_rate_limit", &[])
            .set(rate_limit.map_or(-1, |r| r as i64));
        if rate_limit.is_some() && budget < backlog {
            // The controller is actively holding rows back.
            self.events.emit(
                &self.name,
                EVENT_ADMISSION_LIMITED,
                &[("admitted", admitted.into()), ("backlog", backlog.into())],
            );
        }
        Ok(Some(ranges))
    }

    /// The epoch's row budget from the static cap: `max_records_per_
    /// trigger` across all sources, grown by the catch-up multiplier
    /// while backlogged (§7.3).
    fn effective_cap(&self, backlog: u64) -> u64 {
        match self.config.max_records_per_trigger {
            None => backlog,
            Some(cap) => {
                if self.config.adaptive_batching && backlog > cap {
                    backlog.min(cap.saturating_mul(self.config.catchup_multiplier))
                } else {
                    backlog.min(cap)
                }
            }
        }
    }

    /// Run one step of a phase: the one place an epoch phase is timed.
    /// The step runs inside a trace span named after the phase, and its
    /// wall time is attributed to that phase once it succeeds.
    pub(super) fn phase<R>(
        &mut self,
        ep: &mut Epoch,
        name: &str,
        step: impl FnOnce(&mut Self, &mut Epoch) -> Result<R>,
    ) -> Result<R> {
        let _span = self.trace.span(name, &[]);
        let started = Instant::now();
        let out = step(self, ep)?;
        ep.profile.record(name, None, us_since(started));
        Ok(out)
    }

    /// `wal` (§6.1 step 1): the epoch's ranges are durable before
    /// anything runs over them; from here on the epoch is in flight.
    fn log_offsets(&mut self, ep: &mut Epoch) -> Result<()> {
        self.phase(ep, PHASE_WAL, |eng, ep| {
            eng.env.retried("wal_offsets_append", || eng.wal.write_offsets(&ep.offsets))
        })?;
        self.epoch = ep.offsets.epoch;
        self.apply_positions(&ep.offsets);
        self.env.faults.fire(failpoints::AFTER_OFFSET_WRITE)
    }

    /// `source-read`: read exactly the logged ranges (replayable
    /// sources), with the plan's scan projections pushed into the read
    /// (§5.3).
    fn read_sources(&mut self, ep: &mut Epoch) -> Result<()> {
        let projections = self.root.scan_projections();
        self.phase(ep, PHASE_SOURCE_READ, |eng, ep| {
            for (name, range) in &ep.offsets.sources {
                let source = eng.sources.get(name).ok_or_else(|| {
                    SsError::Plan(format!("no source bound for `{name}` during execution"))
                })?;
                let projection = projections.get(name).cloned().flatten();
                let t_read = Instant::now();
                let batch = eng.env.retried("source_read", || {
                    eng.env.faults.fire(failpoints::SOURCE_READ)?;
                    source.read_all_projected(range, projection.as_deref())
                })?;
                if let Some((lo, hi)) = source.ingest_bounds(range)? {
                    ep.ingest = (ep.ingest.0.min(lo), ep.ingest.1.max(hi));
                }
                if let Some(m) = eng.source_metrics.get(name) {
                    m.rows_read.add(batch.num_rows() as u64);
                    m.read_us.observe(us_since(t_read));
                }
                ep.inputs.insert(name.clone(), batch);
            }
            Ok(())
        })?;
        self.heartbeat(PHASE_SOURCE_READ)
    }

    /// `execute`: run the incremental plan over the epoch's inputs
    /// under its logged watermark, then the bookkeeping that must pass
    /// before anything becomes durable (store health, hard memory
    /// limit) and the per-operator metric export.
    fn execute(&mut self, ep: &mut Epoch) -> Result<RecordBatch> {
        // The logged watermark is authoritative (recovery reproduces
        // the original epoch's output exactly).
        self.tracker.set_current(ep.offsets.watermark_us);
        let pt = self.config.clock.wall_us();
        // The execute phase covers the plan run plus its bookkeeping
        // (health checks, operator metric export).
        let (out, run) = self.phase(ep, PHASE_EXECUTE, |eng, ep| {
            let mut ops = OpStatsCollector::new();
            let exec_started = eng.trace.now_us();
            // Panics inside operators (UDFs, injected faults) fail the
            // epoch restartably instead of killing the query thread;
            // the restart path clears any half-updated in-memory state.
            let outcome = catch_unwind(AssertUnwindSafe(
                || -> Result<(RecordBatch, ExchangeStats)> {
                    let mut ctx = EpochContext {
                        epoch: ep.offsets.epoch,
                        inputs: &mut ep.inputs,
                        statics: eng.statics.as_ref(),
                        store: &mut eng.store,
                        watermark_us: ep.offsets.watermark_us,
                        processing_time_us: pt,
                        output_mode: eng.output_mode,
                        tracker: &mut eng.tracker,
                        ops: &mut ops,
                        faults: &eng.env.faults,
                        exchange: &eng.exchange,
                        run: ExchangeStats::default(),
                    };
                    let out = eng.root.execute_epoch(&mut ctx)?;
                    Ok((out, ctx.run))
                },
            ));
            let (out, run) = match outcome {
                Ok(result) => result?,
                Err(payload) => {
                    return Err(SsError::Execution(format!(
                        "panic during epoch execution: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            };
            eng.heartbeat(PHASE_EXECUTE)?;
            // Surface overload failures before anything becomes durable:
            // a spill reload that failed mid-execution (the operator saw
            // empty state) or an epoch that blew the hard memory limit.
            eng.store.check_health()?;
            eng.store.check_hard_limit()?;
            ep.ops = ops.take();
            for s in &ep.ops {
                eng.registry
                    .counter("ss_operator_rows_total", &[("op", &s.op)])
                    .add(s.rows_out);
                eng.registry
                    .histogram("ss_operator_eval_us", &[("op", &s.op)])
                    .observe(s.duration_us);
                eng.trace.complete(
                    &format!("op:{}", s.op),
                    exec_started + s.started_rel_us,
                    s.duration_us,
                    &[("rows_out", &s.rows_out.to_string())],
                );
            }
            Ok((out, run))
        })?;
        for (name, us) in &run.phases {
            ep.profile.record(name, Some(PHASE_EXECUTE), *us);
        }
        ep.profile.tasks = run.scatter.skew();
        ep.profile.shuffle = run.shuffle;
        ep.out_rows = out.num_rows() as u64;
        Ok(out)
    }

    /// `sink-commit` (§6.1 step 3): the sink receives the epoch's
    /// output (append / update / complete per the output mode), then
    /// the dead-letter queue its quarantined records.
    fn commit_sink(&mut self, ep: &mut Epoch, out: RecordBatch) -> Result<()> {
        let output = match self.output_mode {
            OutputMode::Append => EpochOutput::Append(out),
            OutputMode::Update => EpochOutput::Update {
                batch: out,
                key_cols: self.update_key_cols.clone(),
            },
            OutputMode::Complete => EpochOutput::Complete(out),
        };
        // Sinks commit idempotently per epoch, so a retry after a
        // partial delivery rewrites the same output in place. The sink
        // lives outside the checkpoint backend, so the fencing check is
        // explicit here: a zombie leader is rejected before any output
        // becomes visible.
        self.phase(ep, PHASE_SINK_COMMIT, |eng, ep| {
            eng.env.retried("sink_commit", || {
                if let Some(ha) = &eng.config.ha {
                    ha.lease.check_fenced(PHASE_SINK_COMMIT)?;
                }
                eng.env.faults.fire(failpoints::SINK_COMMIT)?;
                eng.sink.commit_epoch(ep.offsets.epoch, &output)
            })
        })?;
        let commit_us = ep.profile.phase_us(PHASE_SINK_COMMIT);
        self.sink_metrics.observe_commit(ep.out_rows, commit_us);
        // End-to-end latency: the epoch's output just became visible,
        // so every input record's journey ends here. Measured on the
        // real clock — ingest stamps come from the bus's wall clock,
        // not the engine's injectable one.
        let (ingest_min, ingest_max) = ep.ingest;
        if ingest_min <= ingest_max {
            let commit_at = now_us();
            let lat_min = (commit_at - ingest_max).max(0) as u64;
            let lat_max = (commit_at - ingest_min).max(0) as u64;
            self.e2e_latency_us.observe(lat_min);
            self.e2e_latency_us.observe(lat_max);
            ep.profile.e2e_latency_us = Some((lat_min, lat_max));
        }
        self.env.faults.fire(failpoints::AFTER_SINK_WRITE)?;
        self.divert_quarantined(ep)
    }

    /// `wal` (§6.1 step 3): the commit record — with the quarantined
    /// offsets, so a replay strips the same rows — makes the epoch
    /// committed.
    fn log_commit(&mut self, ep: &mut Epoch) -> Result<()> {
        let commit = EpochCommit {
            epoch: ep.offsets.epoch,
            rows_written: ep.out_rows,
            committed_at_us: self.config.clock.wall_us(),
            quarantined: ep.quarantined.clone(),
            fencing_epoch: self.held_fencing_epoch(),
        };
        self.phase(ep, PHASE_WAL, |eng, _| {
            eng.env.retried("wal_commits_append", || eng.wal.write_commit(&commit))
        })?;
        self.env.faults.fire(failpoints::AFTER_COMMIT_WRITE)
    }

    /// `state-commit` (§6.1 step 4): every `checkpoint_interval`
    /// epochs, checkpoint operator state tagged with the epoch, spill
    /// what the memory budget says, write the manifest and run
    /// retention GC.
    fn commit_state(&mut self, ep: &mut Epoch) -> Result<()> {
        let epoch = ep.offsets.epoch;
        if !epoch.is_multiple_of(self.config.checkpoint_interval) {
            return Ok(());
        }
        self.phase(ep, PHASE_STATE_COMMIT, |eng, _| {
            eng.tracker.save(&mut eng.store);
            eng.env.retried("checkpoint_write", || eng.store.checkpoint(epoch))?;
            // Right after a checkpoint every operator is clean, so the
            // soft memory limit can spill the cold ones.
            let report = eng.store.enforce_budget()?;
            if report.ops_spilled > 0 {
                eng.events.emit(
                    &eng.name,
                    EVENT_SPILL,
                    &[
                        ("epoch", epoch.into()),
                        ("ops_spilled", (report.ops_spilled as u64).into()),
                        ("memory_bytes", (report.memory_bytes as u64).into()),
                        ("spilled_bytes", report.spilled_bytes.into()),
                    ],
                );
            }
            // The manifest rides along with the checkpoint — it must
            // only ever describe a state layout that exists on disk, so
            // it is never written ahead of the first checkpoint of the
            // current plan.
            eng.write_manifest(false)?;
            eng.maybe_gc(epoch)
        })
    }

    /// `finalize`: the committed epoch's tail — duration, the rate
    /// controller's sample, shedding accounting, the profile's totals —
    /// ending in its progress record, which joins the history whether
    /// or not it is published.
    pub(super) fn finalize(&mut self, mut ep: Epoch, timing: &Timing) -> QueryProgress {
        let t_finalize = Instant::now();
        let finished = self.config.clock.wall_us();
        // Clamp: with a coarse (or frozen test) clock an epoch can
        // complete in 0 µs, and the rows/s division must stay finite.
        let duration = (finished - timing.started_us).max(1);
        self.epoch_duration_us.observe(duration as u64);
        self.last_epoch_duration_us = duration;
        // Feed the controller this epoch's observations; the rate it
        // produces shapes the *next* epoch's admission budget.
        if let Some(rc) = &mut self.rate_controller {
            rc.update(finished, ep.rows_in(), duration as u64, timing.scheduling_delay_us);
            self.registry
                .gauge("ss_admission_rate_limit", &[])
                .set(rc.rate().map_or(-1, |r| r as i64));
        }
        let shed_records = self.shed_records_total();
        self.registry
            .gauge("ss_bus_shed_records", &[])
            .set(shed_records as i64);
        // The controller update and shedding accounting above are the
        // epoch's tail; attribute it so the top-level phases sum to
        // (almost all of) the measured total.
        ep.profile.record(PHASE_FINALIZE, None, us_since(t_finalize));
        ep.profile.total_us = us_since(timing.wall);
        for p in &ep.profile.phases {
            if p.parent.is_none() {
                self.registry
                    .histogram("ss_phase_duration_us", &[("phase", &p.name)])
                    .observe(p.duration_us);
            }
        }
        let progress = self.build_progress(ep, duration, shed_records, timing);
        self.progress.push(progress.clone());
        progress
    }

    /// The progress record of an epoch that just committed here.
    fn build_progress(
        &self,
        ep: Epoch,
        duration_us: i64,
        shed_records: u64,
        timing: &Timing,
    ) -> QueryProgress {
        let rows_in = ep.rows_in();
        let tasks = ep.profile.tasks.unwrap_or_default();
        let watermark_lag_us = match self.tracker.current() {
            i64::MIN => None,
            wm => self.tracker.max_observed().map(|m| (m - wm).max(0)),
        };
        QueryProgress {
            epoch: ep.offsets.epoch,
            num_input_rows: rows_in,
            num_output_rows: ep.out_rows,
            batch_duration_us: duration_us,
            input_rows_per_second: rows_in as f64 / (duration_us as f64 / 1e6),
            watermark_us: self.tracker.current(),
            watermark_lag_us,
            state_rows: self.state_rows(),
            backlog_rows: timing.backlog_rows,
            operator_durations: ep
                .ops
                .iter()
                .map(|s| OpDuration {
                    op: s.op.clone(),
                    rows_out: s.rows_out,
                    duration_us: s.duration_us,
                })
                .collect(),
            sink_commit_us: ep.profile.phase_us(PHASE_SINK_COMMIT) as i64,
            restarts: self.restarts,
            scheduling_delay_us: timing.scheduling_delay_us,
            admitted_rows: rows_in,
            rate_limit: self.rate_controller.as_ref().and_then(|rc| rc.rate()),
            state_bytes: self.store.memory_bytes() as u64,
            spilled_bytes: self.store.spilled_bytes(),
            shed_records,
            tasks_launched: tasks.count,
            max_task_duration_us: tasks.max_us,
            quarantined_records: ep.quarantined_records(),
            profile: Some(ep.profile),
            ha_role: self.ha_role().map(|r| r.as_str().to_string()),
        }
    }

    /// Publish an epoch's progress, already in the history: the event
    /// log and the listeners.
    fn publish(&mut self, progress: &QueryProgress) {
        self.events.emit(
            &self.name,
            EVENT_PROGRESS,
            &[
                ("epoch", progress.epoch.into()),
                ("rows_in", progress.num_input_rows.into()),
                ("rows_out", progress.num_output_rows.into()),
                ("duration_us", progress.batch_duration_us.into()),
            ],
        );
        for l in &self.listeners {
            l.on_progress(progress);
        }
    }

    /// Records shed so far by bounded bus topics feeding this query's
    /// sources (0 for sources not bound to a bus topic).
    fn shed_records_total(&self) -> u64 {
        self.sources
            .values()
            .filter_map(|s| s.bus_binding())
            .filter_map(|(bus, topic)| bus.shed_records(&topic).ok())
            .sum()
    }

    /// Phase-boundary liveness check: enforce the epoch watchdog
    /// deadline and, when HA is configured, piggyback a lease renewal
    /// on the same boundary. Renewal I/O errors are swallowed — the
    /// lease simply keeps its remaining TTL and the next boundary
    /// retries — but a discovered usurper ([`SsError::Fenced`]) is
    /// fatal and aborts the epoch immediately.
    pub(super) fn heartbeat(&self, phase: &str) -> Result<()> {
        self.watchdog.check(phase)?;
        if let Some(ha) = &self.config.ha {
            if let Err(SsError::Fenced(m)) = ha.lease.maybe_renew() {
                return Err(SsError::Fenced(format!("at phase `{phase}`: {m}")));
            }
        }
        Ok(())
    }
}
