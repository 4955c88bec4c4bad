//! The batch executor: run a [`LogicalPlan`] over a [`Catalog`] of
//! named tables.
//!
//! This is the paper's "run the same code as a batch job" path (§7.3):
//! the streaming engine incrementalizes the very same plans this module
//! executes directly, and the integration tests assert that a streaming
//! run over any prefix of the input equals this executor's result over
//! that prefix (prefix consistency, §4.2).
//!
//! In batch mode, `Watermark` is a no-op and stateful operators invoke
//! the user function exactly once per key (§4.3.2: "Both operators also
//! work in batch mode, in which case the update function will only be
//! called once").

use std::collections::HashMap;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::{RecordBatch, Result, Row, SsError};
use ss_plan::stateful::{GroupState, StatefulOpDef};
use ss_plan::LogicalPlan;

use crate::aggregate::HashAggregator;
use crate::join::hash_join;
use crate::ops;

/// Provides the input tables a plan's scans refer to.
pub trait Catalog {
    /// The batches of the named table.
    fn table(&self, name: &str) -> Result<Vec<RecordBatch>>;
}

/// A simple in-memory catalog.
#[derive(Debug, Clone, Default)]
pub struct MemoryCatalog {
    tables: HashMap<String, Vec<RecordBatch>>,
}

impl MemoryCatalog {
    pub fn new() -> MemoryCatalog {
        MemoryCatalog::default()
    }

    pub fn register(&mut self, name: impl Into<String>, batches: Vec<RecordBatch>) {
        self.tables.insert(name.into(), batches);
    }

    pub fn with_table(
        mut self,
        name: impl Into<String>,
        batches: Vec<RecordBatch>,
    ) -> MemoryCatalog {
        self.register(name, batches);
        self
    }
}

impl Catalog for MemoryCatalog {
    fn table(&self, name: &str) -> Result<Vec<RecordBatch>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| SsError::Plan(format!("unknown table `{name}`")))
    }
}

/// Execute a logical plan to completion, producing one result batch.
pub fn execute(plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<RecordBatch> {
    match plan {
        LogicalPlan::Scan {
            name,
            schema,
            projection,
            ..
        } => {
            let batches = catalog.table(name)?;
            let all = ops::concat_batches(schema, &batches)?;
            if all.schema().fields() != schema.fields() {
                return Err(SsError::Schema(format!(
                    "table `{name}` has schema {}, plan expects {}",
                    all.schema(),
                    schema
                )));
            }
            match projection {
                Some(idx) => all.project(idx),
                None => Ok(all),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            ops::filter_batch(&execute(input, catalog)?, predicate)
        }
        LogicalPlan::Project { input, exprs } => {
            ops::project_batch(&execute(input, catalog)?, exprs)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let child = execute(input, catalog)?;
            let mut agg = HashAggregator::new(
                child.schema().clone(),
                group_exprs.clone(),
                aggregates.clone(),
            )?;
            agg.update_batch(&child)?;
            agg.finish_all()
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let l = execute(left, catalog)?;
            let r = execute(right, catalog)?;
            hash_join(&l, &r, *join_type, on)
        }
        LogicalPlan::Sort { input, keys } => ops::sort_batch(&execute(input, catalog)?, keys),
        LogicalPlan::Limit { input, n } => ops::limit_batch(&execute(input, catalog)?, *n),
        LogicalPlan::Distinct { input } => ops::distinct_batch(&execute(input, catalog)?),
        // Watermarks only matter for streaming state management.
        LogicalPlan::Watermark { input, .. } => execute(input, catalog),
        LogicalPlan::MapGroupsWithState { input, op } => {
            let child = execute(input, catalog)?;
            execute_stateful_batch(&child, op)
        }
    }
}

/// Batch-mode stateful operator: group all rows by key and invoke the
/// user function once per key with fresh state and no timeouts.
fn execute_stateful_batch(input: &RecordBatch, op: &StatefulOpDef) -> Result<RecordBatch> {
    let keys = crate::join::evaluate_keys(input, &op.key_exprs)?;
    // Group row indices by key, preserving first-seen order for
    // determinism.
    let mut order: Vec<Row> = Vec::new();
    let mut groups: FxHashMap<Row, Vec<Row>> = FxHashMap::default();
    for (i, key) in keys.into_iter().enumerate() {
        let Some(key) = key else { continue }; // NULL keys dropped, as in groupByKey on null
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        entry.push(input.row(i));
    }
    let mut out_rows = Vec::new();
    for key in &order {
        let values = &groups[key];
        let mut state = GroupState::for_invocation(
            None,
            op.timeout,
            None,
            false,
            i64::MIN,
            0,
        );
        let produced = (op.func)(key, values, &mut state)?;
        if !op.flat && produced.len() != 1 {
            return Err(SsError::Execution(format!(
                "mapGroupsWithState `{}` must return exactly one row per group, got {}",
                op.name,
                produced.len()
            )));
        }
        out_rows.extend(produced);
    }
    RecordBatch::from_rows(op.output_schema.clone(), &out_rows)
}

/// Analyze, optimize and execute a plan in one call — the convenience
/// entry point examples and tests use.
pub fn execute_optimized(
    plan: &Arc<LogicalPlan>,
    catalog: &dyn Catalog,
) -> Result<RecordBatch> {
    let analyzed = ss_plan::analyze(plan)?;
    let optimized = ss_plan::optimize(&analyzed)?;
    execute(&optimized, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::time::secs;
    use ss_common::{row, DataType, Field, Schema, SchemaRef, Value};
    use ss_expr::{avg, col, count_star, lit, window};
    use ss_plan::stateful::StateTimeout;
    use ss_plan::{JoinType, LogicalPlanBuilder, SortKey};

    fn clicks_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
            Field::new("latency", DataType::Float64),
        ])
    }

    fn catalog() -> MemoryCatalog {
        let clicks = RecordBatch::from_rows(
            clicks_schema(),
            &[
                row!["CA", Value::Timestamp(secs(1)), 10.0],
                row!["US", Value::Timestamp(secs(2)), 20.0],
                row!["CA", Value::Timestamp(secs(35)), 30.0],
                row!["CA", Value::Timestamp(secs(36)), 50.0],
            ],
        )
        .unwrap();
        MemoryCatalog::new().with_table("clicks", vec![clicks])
    }

    fn clicks() -> LogicalPlanBuilder {
        LogicalPlanBuilder::scan("clicks", clicks_schema(), false)
    }

    #[test]
    fn paper_intro_query_end_to_end() {
        // §3: data.where($"state" === "CA").groupBy(window($"time","30s")).avg("latency")
        let plan = clicks()
            .filter(col("country").eq(lit("CA")))
            .aggregate(
                vec![window(col("time"), "30s").unwrap()],
                vec![avg(col("latency"))],
            )
            .build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Timestamp(0), Value::Timestamp(secs(30)), 10.0],
                row![Value::Timestamp(secs(30)), Value::Timestamp(secs(60)), 40.0],
            ]
        );
    }

    #[test]
    fn count_by_country() {
        let plan = clicks()
            .aggregate(vec![col("country")], vec![count_star()])
            .sort(vec![SortKey::desc(col("count(*)"))])
            .build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(out.to_rows(), vec![row!["CA", 3i64], row!["US", 1i64]]);
    }

    #[test]
    fn join_with_static_table() {
        let regions = RecordBatch::from_rows(
            Schema::of(vec![
                Field::new("r_country", DataType::Utf8),
                Field::new("region", DataType::Utf8),
            ]),
            &[row!["CA", "west"], row!["US", "all"]],
        )
        .unwrap();
        let catalog = catalog().with_table("regions", vec![regions]);
        let regions_scan = LogicalPlanBuilder::scan(
            "regions",
            Schema::of(vec![
                Field::new("r_country", DataType::Utf8),
                Field::new("region", DataType::Utf8),
            ]),
            false,
        );
        let plan = clicks()
            .join(
                regions_scan,
                JoinType::Inner,
                vec![(col("country"), col("r_country"))],
            )
            .aggregate(vec![col("region")], vec![count_star()])
            .build();
        let out = execute_optimized(&plan, &catalog).unwrap();
        assert_eq!(out.to_rows(), vec![row!["all", 1i64], row!["west", 3i64]]);
    }

    #[test]
    fn distinct_limit_project() {
        let plan = clicks()
            .project(vec![col("country")])
            .distinct()
            .sort(vec![SortKey::asc(col("country"))])
            .limit(1)
            .build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(out.to_rows(), vec![row!["CA"]]);
    }

    #[test]
    fn watermark_is_noop_in_batch() {
        let plan = clicks()
            .with_watermark("time", "10 seconds")
            .unwrap()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn stateful_op_called_once_per_key_in_batch() {
        // Count events per key via mapGroupsWithState, as in Figure 3.
        let op = StatefulOpDef {
            name: "session_count".into(),
            key_exprs: vec![col("country")],
            output_schema: Schema::of(vec![
                Field::new("country", DataType::Utf8),
                Field::new("events", DataType::Int64),
            ]),
            timeout: StateTimeout::None,
            flat: false,
            func: Arc::new(|key, values, state| {
                assert!(!state.exists(), "batch mode calls once with fresh state");
                let total = values.len() as i64;
                state.update(row![total]);
                Ok(vec![Row::new(vec![
                    key.get(0).clone(),
                    Value::Int64(total),
                ])])
            }),
        };
        let plan = clicks().map_groups_with_state(op).build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(out.to_rows(), vec![row!["CA", 3i64], row!["US", 1i64]]);
    }

    #[test]
    fn missing_table_errors() {
        let plan = LogicalPlanBuilder::scan("nope", clicks_schema(), false).build();
        assert!(execute_optimized(&plan, &catalog()).is_err());
    }

    #[test]
    fn scan_projection_applied() {
        let plan = clicks().project(vec![col("latency")]).build();
        let out = execute_optimized(&plan, &catalog()).unwrap();
        assert_eq!(out.schema().field_names(), vec!["latency"]);
        assert_eq!(out.num_rows(), 4);
    }
}
