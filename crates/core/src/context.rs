//! [`StreamingContext`]: the session object binding names to sources
//! and static tables.
//!
//! Mirrors the role of `SparkSession` in the paper's examples:
//! `read_source` ≈ `spark.readStream`, `read_table` ≈ `spark.read`.
//! The same context serves both streaming and batch execution, which
//! is what makes the paper's hybrid workflows possible (§7.3: share
//! code between batch and streaming, test streaming logic as a batch
//! job, join streams with static tables).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_bus::Source;
use ss_common::{RecordBatch, Result, SsError};
use ss_plan::LogicalPlanBuilder;

use crate::dataframe::DataFrame;

pub(crate) struct ContextInner {
    pub(crate) sources: Mutex<HashMap<String, Arc<dyn Source>>>,
    pub(crate) statics: Mutex<HashMap<String, Vec<RecordBatch>>>,
    counter: AtomicUsize,
}

impl ContextInner {
    /// A catalog view in which static tables resolve to their batches
    /// and streaming sources resolve to *all currently available*
    /// data — the semantics of running a streaming query as a batch
    /// job (§7.3).
    pub(crate) fn batch_catalog(&self) -> Result<ss_exec::MemoryCatalog> {
        let mut catalog = ss_exec::MemoryCatalog::new();
        for (name, batches) in self.statics.lock().iter() {
            catalog.register(name.clone(), batches.clone());
        }
        for (name, source) in self.sources.lock().iter() {
            let latest = source.latest_offsets()?;
            let range = ss_common::OffsetRange {
                start: ss_common::PartitionOffsets::new(),
                end: latest,
            };
            catalog.register(name.clone(), source.read(&range)?);
        }
        Ok(catalog)
    }
}

/// The session: a registry of sources and tables that DataFrames and
/// queries resolve against.
#[derive(Clone)]
pub struct StreamingContext {
    pub(crate) inner: Arc<ContextInner>,
}

impl Default for StreamingContext {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingContext {
    pub fn new() -> StreamingContext {
        StreamingContext {
            inner: Arc::new(ContextInner {
                sources: Mutex::new(HashMap::new()),
                statics: Mutex::new(HashMap::new()),
                counter: AtomicUsize::new(0),
            }),
        }
    }

    /// `spark.readStream`: register a streaming source and get a
    /// streaming DataFrame over it. The source's name becomes the scan
    /// name (must be unique within the context).
    pub fn read_source(&self, source: Arc<dyn Source>) -> Result<DataFrame> {
        let name = source.name().to_string();
        {
            let mut sources = self.inner.sources.lock();
            if sources.contains_key(&name) || self.inner.statics.lock().contains_key(&name) {
                return Err(SsError::Plan(format!(
                    "a source or table named `{name}` is already registered"
                )));
            }
            sources.insert(name.clone(), source.clone());
        }
        let builder = LogicalPlanBuilder::scan(name, source.schema(), true);
        Ok(DataFrame::new(self.inner.clone(), builder))
    }

    /// `spark.read`: register a static table and get a batch DataFrame
    /// over it.
    pub fn read_table(
        &self,
        name: impl Into<String>,
        batches: Vec<RecordBatch>,
    ) -> Result<DataFrame> {
        let name = name.into();
        let schema = batches
            .first()
            .map(|b| b.schema().clone())
            .ok_or_else(|| SsError::Plan(format!("table `{name}` needs at least one batch")))?;
        {
            let mut statics = self.inner.statics.lock();
            if statics.contains_key(&name) || self.inner.sources.lock().contains_key(&name) {
                return Err(SsError::Plan(format!(
                    "a source or table named `{name}` is already registered"
                )));
            }
            statics.insert(name.clone(), batches);
        }
        let builder = LogicalPlanBuilder::scan(name, schema, false);
        Ok(DataFrame::new(self.inner.clone(), builder))
    }

    /// A DataFrame over an already-registered source or static table.
    pub fn table(&self, name: &str) -> Result<DataFrame> {
        if let Some(src) = self.inner.sources.lock().get(name) {
            let builder = LogicalPlanBuilder::scan(name, src.schema(), true);
            return Ok(DataFrame::new(self.inner.clone(), builder));
        }
        if let Some(batches) = self.inner.statics.lock().get(name) {
            let schema = batches
                .first()
                .map(|b| b.schema().clone())
                .ok_or_else(|| SsError::Plan(format!("table `{name}` is empty")))?;
            let builder = LogicalPlanBuilder::scan(name, schema, false);
            return Ok(DataFrame::new(self.inner.clone(), builder));
        }
        Err(SsError::Plan(format!(
            "no source or table named `{name}` is registered"
        )))
    }

    /// A fresh unique name (for anonymous tables).
    pub fn fresh_name(&self, prefix: &str) -> String {
        let n = self.inner.counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}_{n}")
    }

    /// Resolve the registered sources a plan's streaming scans need.
    pub fn sources_for(&self, scan_names: &[String]) -> Result<HashMap<String, Arc<dyn Source>>> {
        let sources = self.inner.sources.lock();
        let mut out = HashMap::new();
        for name in scan_names {
            let s = sources.get(name).ok_or_else(|| {
                SsError::Plan(format!("no source registered for scan `{name}`"))
            })?;
            out.insert(name.clone(), s.clone());
        }
        Ok(out)
    }

    /// Static tables as a catalog (for stream–static joins).
    pub fn static_catalog(&self) -> ss_exec::MemoryCatalog {
        let mut catalog = ss_exec::MemoryCatalog::new();
        for (name, batches) in self.inner.statics.lock().iter() {
            catalog.register(name.clone(), batches.clone());
        }
        catalog
    }

    /// All registered streaming sources (for engine-level harnesses
    /// that construct a [`crate::MicroBatchExecution`] directly).
    pub fn sources_snapshot(&self) -> Vec<(String, Arc<dyn Source>)> {
        self.inner
            .sources
            .lock()
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect()
    }

    /// Every registered source and table as `(name, schema,
    /// is_streaming)` — the catalog view a SQL front end resolves
    /// against.
    pub fn catalog_entries(&self) -> Vec<(String, ss_common::SchemaRef, bool)> {
        let mut out = Vec::new();
        for (name, src) in self.inner.sources.lock().iter() {
            out.push((name.clone(), src.schema(), true));
        }
        for (name, batches) in self.inner.statics.lock().iter() {
            if let Some(b) = batches.first() {
                out.push((name.clone(), b.schema().clone(), false));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Wrap an externally-built logical plan (e.g. from a SQL front
    /// end) as a DataFrame bound to this context. The plan's scans must
    /// name sources/tables registered here.
    pub fn dataframe_from_plan(&self, plan: Arc<ss_plan::LogicalPlan>) -> DataFrame {
        DataFrame::new(self.inner.clone(), LogicalPlanBuilder::from_plan(plan))
    }
}
