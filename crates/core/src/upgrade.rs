//! Upgrade compatibility checking and state migration (§3's "queries
//! survive code updates" requirement).
//!
//! At restart the engine compares the checkpoint manifest's per-operator
//! signatures ([`OperatorSignature`]) against the new plan's, and
//! classifies each operator:
//!
//! * **Compatible** — identical semantics (upstream filter/projection
//!   edits don't show up in an operator's signature at all); the state
//!   is restored as-is.
//! * **Migratable** — an aggregate gained a column or widened a type;
//!   each restored entry is rewritten ([`StateMigration::apply`]) on its
//!   way into the operator's table, in the restore's one pass (the
//!   route that also re-lays it out, `parallel::relayout`): surviving
//!   aggregates carry their partial state over (matched by function +
//!   canonical argument, not by position), widened sums convert
//!   `BIGINT` partials to `DOUBLE`, and added aggregates start from
//!   their empty accumulator state.
//! * **Incompatible** — changed grouping keys, window geometry, join
//!   type/keys, or `mapGroupsWithState` semantics. Old state is
//!   meaningless (or silently wrong) under the new semantics, so the
//!   restart is refused with [`SsError::IncompatibleUpgrade`] **before
//!   any durable write**: the checkpoint stays intact for the old query
//!   or a rollback.
//!
//! New stateful operators absent from the manifest are always fine —
//! they begin with empty state, exactly as on a fresh start.

use ss_common::{Result, Row, SsError, Value};
use ss_plan::{AggregateSig, OperatorSignature};
use ss_state::StateEntry;

/// How one restored state cell of a migrated aggregate is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationAction {
    /// Take the old partial state at this index unchanged.
    Copy(usize),
    /// Take the old partial state at this index, widening `BIGINT`
    /// cells to `DOUBLE` (e.g. `sum(int_col)` → `sum(double_col)`).
    Widen(usize),
    /// The aggregate is new: start from its empty accumulator state.
    Default(Row),
}

/// The per-operator state rewrite computed by [`check_compatibility`].
/// Applied to each entry as it is restored, before the operator's table
/// holds it; idempotent, so every restore of the run may apply it.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMigration {
    /// The operator whose keyspace is rewritten.
    pub op_id: String,
    /// Partial-state arity the old layout had; entries that don't match
    /// it were already migrated and are left alone.
    pub old_arity: usize,
    /// One action per aggregate of the **new** operator, in state
    /// layout order.
    pub actions: Vec<MigrationAction>,
}

fn incompatible(op: &OperatorSignature, what: String) -> SsError {
    SsError::IncompatibleUpgrade(format!(
        "stateful operator {} ({}): {what}",
        op.op_id, op.kind
    ))
}

fn agg_label(a: &AggregateSig) -> String {
    format!("{}({})", a.func, a.arg.as_deref().unwrap_or("*"))
}

/// Compare the checkpoint's operator signatures (`old`) with the new
/// plan's (`new`). Returns the state migrations required (empty =
/// everything compatible as-is); [`SsError::IncompatibleUpgrade`] names
/// the first offending operator and change.
pub fn check_compatibility(
    old: &[OperatorSignature],
    new: &[OperatorSignature],
) -> Result<Vec<StateMigration>> {
    let mut migrations = Vec::new();
    for old_op in old {
        let Some(new_op) = new.iter().find(|n| n.op_id == old_op.op_id) else {
            return Err(incompatible(
                old_op,
                "missing from the new plan (stateful operators cannot be removed or \
                 reordered while resuming from their checkpoint)"
                    .into(),
            ));
        };
        if new_op.kind != old_op.kind {
            return Err(incompatible(
                old_op,
                format!("operator kind changed to {}", new_op.kind),
            ));
        }
        match old_op.kind.as_str() {
            "aggregate" => {
                if let Some(m) = check_aggregate(old_op, new_op)? {
                    migrations.push(m);
                }
            }
            "join" => check_join(old_op, new_op)?,
            "mapGroupsWithState" => check_map_groups(old_op, new_op)?,
            "distinct" => {
                if new_op.schema != old_op.schema {
                    return Err(incompatible(
                        old_op,
                        "input schema changed (deduplication state keys are whole \
                         input rows)"
                            .into(),
                    ));
                }
            }
            other => {
                // A manifest from a newer build within the same format
                // version could name an operator kind this build doesn't
                // know; adopting its state blindly would be wrong.
                return Err(incompatible(
                    old_op,
                    format!("unknown operator kind `{other}` in checkpoint manifest"),
                ));
            }
        }
    }
    Ok(migrations)
}

fn check_aggregate(
    old_op: &OperatorSignature,
    new_op: &OperatorSignature,
) -> Result<Option<StateMigration>> {
    if new_op.group_keys != old_op.group_keys {
        let fmt = |op: &OperatorSignature| {
            op.group_keys
                .iter()
                .map(|k| k.expr.clone())
                .collect::<Vec<_>>()
                .join(", ")
        };
        return Err(incompatible(
            old_op,
            format!(
                "changed grouping keys (checkpoint groups by [{}], new plan by [{}])",
                fmt(old_op),
                fmt(new_op)
            ),
        ));
    }
    if new_op.window != old_op.window {
        let fmt = |w: &Option<ss_plan::WindowSig>| match w {
            Some(w) => format!("window(size={}us, slide={}us)", w.size_us, w.slide_us),
            None => "no window".to_string(),
        };
        return Err(incompatible(
            old_op,
            format!(
                "changed window geometry ({} -> {}); windowed state cannot be \
                 re-bucketed",
                fmt(&old_op.window),
                fmt(&new_op.window)
            ),
        ));
    }
    let mut actions = Vec::with_capacity(new_op.aggregates.len());
    for new_agg in &new_op.aggregates {
        let found = old_op
            .aggregates
            .iter()
            .position(|o| o.func == new_agg.func && o.arg == new_agg.arg);
        match found {
            Some(i) => {
                let old_agg = &old_op.aggregates[i];
                if old_agg.output_type == new_agg.output_type {
                    actions.push(MigrationAction::Copy(i));
                } else if old_agg.output_type == ss_common::DataType::Int64
                    && new_agg.output_type == ss_common::DataType::Float64
                {
                    actions.push(MigrationAction::Widen(i));
                } else {
                    return Err(incompatible(
                        old_op,
                        format!(
                            "aggregate {} changed type {} -> {} (only BIGINT -> DOUBLE \
                             widening is migratable)",
                            agg_label(new_agg),
                            old_agg.output_type,
                            new_agg.output_type
                        ),
                    ));
                }
            }
            // Added aggregate: seed with its empty accumulator state.
            None => actions.push(MigrationAction::Default(new_agg.empty_state.clone())),
        }
    }
    // Pure identity (same aggregates, same order, same arity) needs no
    // migration; anything else — additions, removals, reorders, widens
    // — rewrites the state rows.
    let identity = old_op.aggregates.len() == new_op.aggregates.len()
        && actions
            .iter()
            .enumerate()
            .all(|(i, a)| matches!(a, MigrationAction::Copy(j) if *j == i));
    Ok((!identity).then(|| StateMigration {
        op_id: old_op.op_id.clone(),
        old_arity: old_op.aggregates.len(),
        actions,
    }))
}

fn check_join(old_op: &OperatorSignature, new_op: &OperatorSignature) -> Result<()> {
    if new_op.join_type != old_op.join_type {
        return Err(incompatible(
            old_op,
            format!(
                "join type changed {} -> {}",
                old_op.join_type.as_deref().unwrap_or("?"),
                new_op.join_type.as_deref().unwrap_or("?")
            ),
        ));
    }
    if new_op.left_keys != old_op.left_keys || new_op.right_keys != old_op.right_keys {
        return Err(incompatible(
            old_op,
            "join keys changed (buffered rows are indexed by the old keys)".into(),
        ));
    }
    Ok(())
}

fn check_map_groups(old_op: &OperatorSignature, new_op: &OperatorSignature) -> Result<()> {
    if new_op.group_keys != old_op.group_keys {
        return Err(incompatible(old_op, "changed grouping keys".into()));
    }
    if new_op.timeout != old_op.timeout {
        return Err(incompatible(
            old_op,
            format!(
                "timeout mode changed {} -> {}",
                old_op.timeout.as_deref().unwrap_or("?"),
                new_op.timeout.as_deref().unwrap_or("?")
            ),
        ));
    }
    if new_op.flat != old_op.flat || new_op.schema != old_op.schema {
        return Err(incompatible(
            old_op,
            "user-state function signature changed (flat/output schema)".into(),
        ));
    }
    Ok(())
}

impl StateMigration {
    /// Rewrite one restored entry of the operator to the new layout.
    /// An entry whose arity isn't `old_arity` was written by the new
    /// layout already (a later checkpoint) and is left alone: `false`.
    pub fn apply(&self, entry: &mut StateEntry) -> bool {
        if entry.values.len() != self.old_arity {
            return false;
        }
        // Widening is identity on `DOUBLE` cells, so it re-applies too.
        let widen = |row: &Row| {
            let cell = |v: &Value| match v {
                Value::Int64(n) => Value::Float64(*n as f64),
                other => other.clone(),
            };
            Row::new(row.values().iter().map(cell).collect())
        };
        let values = self.actions.iter().map(|a| match a {
            MigrationAction::Copy(i) => entry.values[*i].clone(),
            MigrationAction::Widen(i) => widen(&entry.values[*i]),
            MigrationAction::Default(r) => r.clone(),
        });
        entry.values = values.collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_expr::{avg, col, count_star, lit, sum};
    use ss_plan::{operator_signatures, LogicalPlan};
    use ss_common::{row, DataType, Field, Schema};
    use std::sync::Arc;

    fn schema() -> ss_common::SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("latency", DataType::Int64),
            Field::new("ratio", DataType::Float64),
        ])
    }

    fn agg_plan(group: Vec<ss_expr::Expr>, aggs: Vec<ss_expr::AggregateExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Arc::new(LogicalPlan::Scan {
                name: "events".into(),
                schema: schema(),
                streaming: true,
                projection: None,
            }),
            group_exprs: group,
            aggregates: aggs,
        }
    }

    fn sigs(plan: &LogicalPlan) -> Vec<OperatorSignature> {
        operator_signatures(plan).unwrap()
    }

    #[test]
    fn identical_plans_are_compatible_with_no_migration() {
        let old = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        let new = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        assert_eq!(check_compatibility(&old, &new).unwrap(), vec![]);
    }

    #[test]
    fn upstream_edits_leave_operators_compatible() {
        let old = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        let filtered = LogicalPlan::Filter {
            input: Arc::new(agg_plan(vec![col("country")], vec![count_star()])),
            predicate: col("count").gt(lit(0i64)),
        };
        let new = sigs(&filtered);
        assert_eq!(check_compatibility(&old, &new).unwrap(), vec![]);
    }

    #[test]
    fn added_aggregate_is_migratable_with_default() {
        let old = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        let new = sigs(&agg_plan(
            vec![col("country")],
            vec![count_star(), sum(col("latency"))],
        ));
        let migrations = check_compatibility(&old, &new).unwrap();
        assert_eq!(migrations.len(), 1);
        let m = &migrations[0];
        assert_eq!(m.op_id, "agg-0");
        assert_eq!(m.old_arity, 1);
        assert_eq!(m.actions[0], MigrationAction::Copy(0));
        assert!(matches!(&m.actions[1], MigrationAction::Default(_)));
    }

    #[test]
    fn widened_sum_is_migratable() {
        let old = sigs(&agg_plan(vec![col("country")], vec![sum(col("latency"))]));
        // sum(BIGINT) -> sum(CAST(... AS DOUBLE)) changes the canonical
        // argument, so model the widen via an int->double column swap at
        // the same canonical name... instead, widen through the same
        // expression reaching a DOUBLE type: simulate by rebuilding the
        // old signature with Int64 output and the new with Float64.
        let mut new = sigs(&agg_plan(vec![col("country")], vec![sum(col("latency"))]));
        new[0].aggregates[0].output_type = DataType::Float64;
        let migrations = check_compatibility(&old, &new).unwrap();
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].actions, vec![MigrationAction::Widen(0)]);
    }

    #[test]
    fn group_key_change_is_incompatible() {
        let old = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        let new = sigs(&agg_plan(vec![col("latency")], vec![count_star()]));
        let err = check_compatibility(&old, &new).unwrap_err();
        assert_eq!(err.category(), "incompatible_upgrade");
        assert!(err.to_string().contains("agg-0"), "{err}");
        assert!(err.to_string().contains("grouping keys"), "{err}");
    }

    #[test]
    fn removed_operator_is_incompatible() {
        let old = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        let err = check_compatibility(&old, &[]).unwrap_err();
        assert_eq!(err.category(), "incompatible_upgrade");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn narrowing_type_change_is_incompatible() {
        let old = sigs(&agg_plan(vec![col("country")], vec![avg(col("ratio"))]));
        let mut new = sigs(&agg_plan(vec![col("country")], vec![avg(col("ratio"))]));
        new[0].aggregates[0].output_type = DataType::Int64;
        let err = check_compatibility(&old, &new).unwrap_err();
        assert_eq!(err.category(), "incompatible_upgrade");
        assert!(err.to_string().contains("widening"), "{err}");
    }

    #[test]
    fn new_operators_need_no_manifest_entry() {
        let new = sigs(&agg_plan(vec![col("country")], vec![count_star()]));
        assert_eq!(check_compatibility(&[], &new).unwrap(), vec![]);
    }

    #[test]
    fn migration_rewrites_rows_and_is_idempotent() {
        // Old layout: [count] per key.
        let mut entry = StateEntry::new(vec![row![5i64]]);

        // New layout: [count, sum] — sum seeded from its empty state.
        let m = StateMigration {
            op_id: "agg-0".into(),
            old_arity: 1,
            actions: vec![
                MigrationAction::Copy(0),
                MigrationAction::Default(row![ss_common::Value::Null]),
            ],
        };
        assert!(m.apply(&mut entry));
        assert_eq!(entry.values, vec![row![5i64], row![ss_common::Value::Null]]);

        // Re-applying (post-restore of a *new-layout* checkpoint) is a
        // no-op: arity no longer matches old_arity.
        let migrated = entry.clone();
        assert!(!m.apply(&mut entry));
        assert_eq!(entry, migrated);
    }

    #[test]
    fn widen_converts_int_partials_to_double() {
        let mut entry = StateEntry::new(vec![row![10i64]]);
        let m = StateMigration {
            op_id: "agg-0".into(),
            old_arity: 1,
            actions: vec![MigrationAction::Widen(0)],
        };
        m.apply(&mut entry);
        assert_eq!(entry.values, vec![row![10.0f64]]);
        // Pure-widen migrations keep the arity, so idempotency rides on
        // widen_row being identity for DOUBLE cells.
        m.apply(&mut entry);
        assert_eq!(entry.values, vec![row![10.0f64]]);
    }
}
