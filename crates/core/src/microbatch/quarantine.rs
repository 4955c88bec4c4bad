//! Poison-record isolation: entering isolation mode, finding the rows
//! that deterministically fail (a per-row probe for live epochs, the
//! commit record for replays), stripping them from the epoch's input
//! and diverting them to the dead-letter queue.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ss_bus::json::row_to_json;
use ss_bus::{DeadLetterQueue, DeadLetterRecord};
use ss_common::eventlog::EVENT_QUARANTINE;
use ss_common::isolate::panic_message;
use ss_common::{failure_fingerprint, ErrorPolicy, FaultRegistry, RecordBatch, Result, SsError};
use ss_state::{MemoryBackend, StateStore};
use ss_wal::{EpochOffsets, OffsetRange};

use super::epoch::Epoch;
use super::MicroBatchExecution;
use crate::incremental::{incrementalize, EpochContext, OpStatsCollector};
use crate::parallel::{Exchange, ExchangeStats};
use crate::watermark::WatermarkTracker;

/// Quarantined `(partition, offset)` pairs per source — the shape
/// recorded in an epoch's WAL commit so replay can strip poison rows
/// without re-probing.
pub(super) type QuarantinedOffsets = BTreeMap<String, Vec<(u32, u64)>>;

impl MicroBatchExecution {
    /// The dead-letter queue holding quarantined poison records.
    pub fn dlq(&self) -> &Arc<DeadLetterQueue> {
        &self.dlq
    }

    /// True while the engine probes rows individually and quarantines
    /// deterministic failures.
    pub fn isolation_active(&self) -> bool {
        self.isolation
    }

    /// Called by the supervisor when a failure fingerprint repeated
    /// across a restart — i.e. the failure is deterministic and
    /// replaying it again cannot succeed. Counts the classification
    /// and, when the error policy allows, switches the engine into
    /// isolation mode so the next restart quarantines the offending
    /// records instead of replaying the failure forever.
    pub fn note_deterministic(&mut self, fingerprint: u64, message: &str) {
        self.deterministic_failures.inc();
        let fp = format!("{fingerprint:016x}");
        self.events.emit(
            &self.name,
            EVENT_QUARANTINE,
            &[
                ("action", "deterministic-failure".into()),
                ("fingerprint", fp.as_str().into()),
                ("error", message.into()),
            ],
        );
        if self.config.error_policy.isolates() && !self.isolation {
            self.isolation = true;
            self.trace
                .instant("isolation", &[("fingerprint", fp.as_str())]);
        }
    }

    /// True for the first record-shaped failure under an isolating
    /// policy: entering isolation and running the epoch again can
    /// succeed where a plain retry cannot. The sticky isolation flag
    /// bounds this to a single retry.
    pub(super) fn should_isolate(&self, err: &SsError) -> bool {
        self.config.error_policy.isolates() && !self.isolation && is_record_failure(err)
    }

    /// Flip isolation mode on after a record-shaped failure.
    pub(super) fn enter_isolation(&mut self, err: &SsError) {
        if self.isolation {
            return;
        }
        self.isolation = true;
        let msg = err.to_string();
        self.trace.instant("isolation", &[("error", &msg)]);
        self.events.emit(
            &self.name,
            EVENT_QUARANTINE,
            &[("action", "isolation-on".into()), ("error", msg.as_str().into())],
        );
    }

    /// Remove the epoch's poison rows from its inputs. A live epoch in
    /// isolation mode probes every input row alone through a scratch
    /// copy of the plan and strips the offenders before real
    /// execution; the stripped offsets go into the epoch's commit
    /// record. A replay never re-probes: it strips exactly the offsets
    /// the commit recorded, so the replayed output is byte for byte
    /// the committed output at any parallelism.
    pub(super) fn strip_poison(&mut self, ep: &mut Epoch) -> Result<()> {
        if !ep.live {
            if let Some(commit) = self.wal.read_commit(ep.offsets.epoch)? {
                if !commit.quarantined.is_empty() {
                    // Evidence the query was already isolating poison:
                    // resume in isolation mode so new epochs keep
                    // probing instead of re-failing.
                    self.isolation = true;
                    ep.quarantined = commit.quarantined;
                }
            }
        } else if self.isolation && self.config.error_policy.isolates() {
            let _span = self.trace.span("quarantine-probe", &[]);
            (ep.quarantined, ep.letters) = self.probe_poison_rows(&ep.offsets, &ep.inputs)?;
            if let ErrorPolicy::Quarantine { max_per_epoch } = self.config.error_policy {
                let n = ep.quarantined_records();
                if n > max_per_epoch {
                    return Err(SsError::Execution(format!(
                        "quarantine limit exceeded: {n} poison records in epoch {} \
                         (max_per_epoch is {max_per_epoch})",
                        ep.offsets.epoch
                    )));
                }
            }
        }
        if !ep.quarantined.is_empty() {
            strip_quarantined(&mut ep.inputs, &ep.offsets, &ep.quarantined)?;
        }
        self.heartbeat("quarantine-probe")
    }

    /// Probe each input row alone through a fresh scratch copy of the
    /// plan (in-memory state, scratch tracker, **no** fault injection:
    /// the probe detects failures carried by the data itself, not
    /// injected chaos) and collect the rows that deterministically
    /// fail, as `(partition, offset)` pairs per source plus their
    /// dead-letter records.
    fn probe_poison_rows(
        &self,
        offsets: &EpochOffsets,
        inputs: &HashMap<String, RecordBatch>,
    ) -> Result<(QuarantinedOffsets, Vec<DeadLetterRecord>)> {
        let pt = self.config.clock.wall_us();
        let probe_faults = FaultRegistry::new();
        let probe_exchange = Exchange::identity();
        let mut quarantined: QuarantinedOffsets = BTreeMap::new();
        let mut letters = Vec::new();
        for (source, range) in &offsets.sources {
            let Some(batch) = inputs.get(source) else {
                continue;
            };
            if batch.num_rows() == 0 {
                continue;
            }
            // Row index ↔ (partition, offset): sources concatenate
            // partitions in ascending order, offsets in range order.
            let rows = row_offsets(range);
            for i in 0..batch.num_rows() {
                let single = batch.slice(i, 1)?;
                let mut probe_inputs: HashMap<String, RecordBatch> = HashMap::new();
                probe_inputs.insert(source.clone(), single);
                let mut counter = 0;
                let mut probe = incrementalize(&self.optimized_plan, &mut counter)?;
                let mut store = StateStore::new(Arc::new(MemoryBackend::new()));
                let mut tracker = WatermarkTracker::new(&self.tracker.clone_config());
                let mut probe_ops = OpStatsCollector::new();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = EpochContext {
                        epoch: offsets.epoch,
                        inputs: &mut probe_inputs,
                        statics: self.statics.as_ref(),
                        store: &mut store,
                        watermark_us: offsets.watermark_us,
                        processing_time_us: pt,
                        output_mode: self.output_mode,
                        tracker: &mut tracker,
                        ops: &mut probe_ops,
                        faults: &probe_faults,
                        exchange: &probe_exchange,
                        run: ExchangeStats::default(),
                    };
                    probe.execute_epoch(&mut ctx)
                }));
                let error = match outcome {
                    Ok(Ok(_)) => None,
                    Ok(Err(e)) => Some(e),
                    Err(payload) => Some(SsError::Execution(format!(
                        "panic during record probe: {}",
                        panic_message(payload.as_ref())
                    ))),
                };
                if let Some(e) = error {
                    let (partition, offset) = rows.get(i).copied().unwrap_or((0, i as u64));
                    let msg = e.to_string();
                    quarantined
                        .entry(source.clone())
                        .or_default()
                        .push((partition, offset));
                    letters.push(DeadLetterRecord {
                        epoch: offsets.epoch,
                        source: source.clone(),
                        partition,
                        offset,
                        fingerprint: failure_fingerprint(e.category(), &msg, offsets.epoch),
                        error: msg,
                        row_json: row_to_json(batch.schema(), &batch.row(i))
                            .unwrap_or_else(|_| "null".into()),
                    });
                }
            }
        }
        Ok((quarantined, letters))
    }

    /// Divert the stripped offenders to the dead-letter queue (with
    /// failure metadata) before the commit record makes the quarantine
    /// durable. The DLQ commit is idempotent per epoch, so a
    /// crash/replay rewrites the same records in place — exactly-once
    /// dead letters. `Drop` keeps the offsets (for replay determinism)
    /// but no letters.
    pub(super) fn divert_quarantined(&mut self, ep: &Epoch) -> Result<()> {
        let n_quarantined = ep.quarantined_records();
        if n_quarantined == 0 {
            return Ok(());
        }
        let quarantining = matches!(self.config.error_policy, ErrorPolicy::Quarantine { .. });
        if quarantining {
            self.env.retried("dlq_write", || {
                if let Some(ha) = &self.config.ha {
                    ha.lease.check_fenced("dlq-commit")?;
                }
                self.env.faults.fire(ss_bus::dlq::failpoints::DLQ_WRITE)?;
                self.dlq.commit_epoch(ep.offsets.epoch, ep.letters.clone());
                Ok(())
            })?;
        }
        self.quarantined_total.add(n_quarantined);
        self.events.emit(
            &self.name,
            EVENT_QUARANTINE,
            &[
                ("epoch", ep.offsets.epoch.into()),
                ("records", n_quarantined.into()),
                ("action", if quarantining { "quarantined" } else { "dropped" }.into()),
            ],
        );
        Ok(())
    }
}

/// True for failures a single record can deterministically cause:
/// evaluation type errors, operator panics (caught and rendered), and
/// the `exec.record.eval` fail point. Everything else (I/O, torn
/// writes, timeouts) stays on the transient restart path.
fn is_record_failure(err: &SsError) -> bool {
    match err {
        SsError::Type(_) => true,
        SsError::Execution(m) => {
            m.contains("panic during") || m.contains(ss_exec::ops::failpoints::RECORD_EVAL)
        }
        _ => false,
    }
}

/// The `(partition, offset)` of each row in a source batch read from
/// `range`, in row order: partitions ascend (sources read them in
/// `BTreeMap` order), offsets ascend within a partition.
fn row_offsets(range: &OffsetRange) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for (&p, &end) in &range.end {
        let start = range.start.get(&p).copied().unwrap_or(0);
        for o in start..end {
            out.push((p, o));
        }
    }
    out
}

/// Remove the quarantined offsets from each source's epoch batch.
fn strip_quarantined(
    inputs: &mut HashMap<String, RecordBatch>,
    offsets: &EpochOffsets,
    quarantined: &QuarantinedOffsets,
) -> Result<()> {
    for (source, bad) in quarantined {
        let Some(batch) = inputs.get(source) else {
            continue;
        };
        let Some(range) = offsets.sources.get(source) else {
            continue;
        };
        let rows = row_offsets(range);
        let bad: BTreeSet<(u32, u64)> = bad.iter().copied().collect();
        let mask: Vec<bool> = (0..batch.num_rows())
            .map(|i| rows.get(i).is_none_or(|ro| !bad.contains(ro)))
            .collect();
        let filtered = batch.filter(&mask)?;
        inputs.insert(source.clone(), filtered);
    }
    Ok(())
}
