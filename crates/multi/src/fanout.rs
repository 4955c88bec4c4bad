//! Per-query output taps over one shared execution.
//!
//! A sharing group runs ONE [`ss_core::MicroBatchExecution`] whose sink
//! is a [`FanoutSink`]. Each subscribed query owns a **tap**: its real
//! sink plus the stateless suffix ([`ss_plan::SuffixOp`]) its plan
//! carries above the shared stateful prefix. Every epoch the engine
//! commits once into the fan-out, which applies each tap's suffix to
//! the shared output and commits the result to that query's sink —
//! so N queries cost one incremental update plus N cheap, stateless
//! post-processing passes.
//!
//! Taps can be attached and detached while the group runs (a query
//! joining or leaving the share); detachment takes effect at the next
//! epoch boundary. Idempotence is inherited: the fan-out replays a
//! whole epoch into every tap, and every underlying sink is required
//! to be idempotent per epoch already.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_bus::{EpochOutput, Sink};
use ss_common::{RecordBatch, Result, SsError};
use ss_exec::ops::{filter_batch, project_batch};
use ss_plan::SuffixOp;

struct Tap {
    query: String,
    suffix: Vec<SuffixOp>,
    sink: Arc<dyn Sink>,
}

/// A [`Sink`] that fans one epoch's output to every subscribed query,
/// applying each query's stateless suffix on the way.
pub struct FanoutSink {
    name: String,
    taps: Mutex<Vec<Tap>>,
    /// Rows delivered across all taps (post-suffix).
    fanned_rows: AtomicU64,
}

impl FanoutSink {
    pub fn new(name: impl Into<String>) -> Arc<FanoutSink> {
        Arc::new(FanoutSink {
            name: name.into(),
            taps: Mutex::new(Vec::new()),
            fanned_rows: AtomicU64::new(0),
        })
    }

    /// Attach a query's tap. `suffix` must be empty unless the group
    /// runs in append or complete mode (checked by the engine, not
    /// here).
    pub fn attach(&self, query: impl Into<String>, suffix: Vec<SuffixOp>, sink: Arc<dyn Sink>) {
        self.taps.lock().push(Tap {
            query: query.into(),
            suffix,
            sink,
        });
    }

    /// Detach a query's tap; returns false if it was not attached.
    /// Takes effect at the next epoch boundary — an epoch currently
    /// committing still includes the tap it started with.
    pub fn detach(&self, query: &str) -> bool {
        let mut taps = self.taps.lock();
        let before = taps.len();
        taps.retain(|t| t.query != query);
        taps.len() != before
    }

    /// Names of currently attached queries, in attach order.
    pub fn attached(&self) -> Vec<String> {
        self.taps.lock().iter().map(|t| t.query.clone()).collect()
    }
}

/// Apply a stateless suffix (analyzed with the query's plan) to one
/// epoch's shared output, an operator at a time with the batch kernels.
pub(crate) fn apply_suffix(batch: &RecordBatch, suffix: &[SuffixOp]) -> Result<RecordBatch> {
    suffix.iter().try_fold(batch.clone(), |out, op| match op {
        SuffixOp::Project(exprs) => project_batch(&out, exprs),
        SuffixOp::Filter(predicate) => filter_batch(&out, predicate),
    })
}

impl Sink for FanoutSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        let taps = self.taps.lock();
        for tap in taps.iter() {
            if tap.suffix.is_empty() {
                tap.sink.commit_epoch(epoch, output)?;
                self.fanned_rows
                    .fetch_add(output.num_rows() as u64, Ordering::Relaxed);
                continue;
            }
            // A suffix rewrites the row set, which is sound for append
            // output (each epoch's new rows) and complete output (the
            // whole result table) — but not update output, whose
            // upsert keys are positional in the pre-suffix schema (the
            // engine refuses such taps up front).
            let tapped = match output {
                EpochOutput::Append(batch) => {
                    EpochOutput::Append(apply_suffix(batch, &tap.suffix)?)
                }
                EpochOutput::Complete(batch) => {
                    EpochOutput::Complete(apply_suffix(batch, &tap.suffix)?)
                }
                EpochOutput::Update { .. } => {
                    return Err(SsError::Execution(format!(
                        "tap `{}` carries a stateless suffix but the group \
                         emits update output",
                        tap.query
                    )));
                }
            };
            self.fanned_rows
                .fetch_add(tapped.num_rows() as u64, Ordering::Relaxed);
            tap.sink.commit_epoch(epoch, &tapped)?;
        }
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        for tap in self.taps.lock().iter() {
            tap.sink.truncate_after(epoch)?;
        }
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.fanned_rows.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_bus::MemorySink;
    use ss_common::{row, DataType, Field, Row, Schema};
    use ss_expr::{col, lit};

    fn batch(rows: &[Row]) -> RecordBatch {
        let schema = Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
        ]);
        RecordBatch::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn fanout_delivers_to_every_tap_with_suffixes() {
        let fan = FanoutSink::new("fan");
        let all = MemorySink::new("all");
        let ca = MemorySink::new("ca");
        fan.attach("q-all", vec![], all.clone());
        fan.attach(
            "q-ca",
            vec![SuffixOp::Filter(col("country").eq(lit("CA")))],
            ca.clone(),
        );
        let out = EpochOutput::Append(batch(&[row!["CA", 3i64], row!["US", 5i64]]));
        fan.commit_epoch(1, &out).unwrap();
        assert_eq!(all.snapshot().len(), 2);
        assert_eq!(ca.snapshot(), vec![row!["CA", 3i64]]);
        assert_eq!(fan.rows_written(), 3);
    }

    #[test]
    fn detach_removes_only_the_named_tap() {
        let fan = FanoutSink::new("fan");
        let a = MemorySink::new("a");
        let b = MemorySink::new("b");
        fan.attach("qa", vec![], a.clone());
        fan.attach("qb", vec![], b.clone());
        assert!(fan.detach("qa"));
        assert!(!fan.detach("qa"));
        fan.commit_epoch(1, &EpochOutput::Append(batch(&[row!["CA", 1i64]])))
            .unwrap();
        assert_eq!(a.snapshot().len(), 0);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(fan.attached(), vec!["qb".to_string()]);
    }

    #[test]
    fn suffix_on_update_output_is_an_error_but_complete_is_rewritten() {
        let fan = FanoutSink::new("fan");
        let sink = MemorySink::new("s");
        fan.attach(
            "q",
            vec![SuffixOp::Filter(col("country").eq(lit("CA")))],
            sink.clone(),
        );
        let upd = EpochOutput::Update {
            batch: batch(&[row!["CA", 1i64]]),
            key_cols: vec![0],
        };
        assert!(fan.commit_epoch(1, &upd).is_err());
        let out = EpochOutput::Complete(batch(&[row!["CA", 1i64], row!["US", 2i64]]));
        fan.commit_epoch(1, &out).unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 1i64]]);
    }

    #[test]
    fn suffix_project_reshapes_rows() {
        let b = batch(&[row!["CA", 3i64], row!["US", 5i64]]);
        let projected =
            apply_suffix(&b, &[SuffixOp::Project(vec![col("cnt")])]).unwrap();
        assert_eq!(projected.num_columns(), 1);
        assert_eq!(projected.num_rows(), 2);
    }
}
