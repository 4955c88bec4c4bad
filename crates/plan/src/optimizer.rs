//! Rule-based optimizer (§5.3).
//!
//! "Structured Streaming applies most of the optimization rules in Spark
//! SQL, such as predicate pushdown, projection pushdown, expression
//! simplification and others." The rules here are the ones that matter
//! for this engine:
//!
//! * [`SimplifyExpressions`] — constant folding + boolean algebra;
//! * [`MergeFilters`] — collapse stacked filters into one conjunction;
//! * [`PushDownFilters`] — move predicates below projections,
//!   watermarks, joins (side-aware for outer joins) and aggregations
//!   (group-key conjuncts only);
//! * [`CollapseProjects`] — merge stacked projections;
//! * column pruning ([`prune_columns`]) — push required-column sets down
//!   to scans, which then read only those columns.
//!
//! Rules run to fixpoint; every rule must be semantics-preserving for
//! both batch and streaming plans (the incrementalizer runs after
//! optimization, so a rule that changed results would break the prefix
//! consistency guarantee of §4.2).

use std::collections::BTreeSet;
use std::sync::Arc;

use ss_common::{Result, Row, Schema, Value};
use ss_expr::eval::evaluate_row;
use ss_expr::{BinaryOp, Expr};

use crate::plan::{strip_alias, JoinType, LogicalPlan};

/// An optimizer rule: a semantics-preserving whole-plan rewrite.
pub trait OptimizerRule {
    fn name(&self) -> &'static str;
    fn apply(&self, plan: &LogicalPlan) -> Result<LogicalPlan>;
}

/// The rule driver: applies all rules repeatedly until the plan stops
/// changing (or a fixed iteration cap, to guard against rule cycles).
pub struct Optimizer {
    rules: Vec<Box<dyn OptimizerRule + Send + Sync>>,
    max_iterations: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            rules: vec![
                Box::new(SimplifyExpressions),
                Box::new(MergeFilters),
                Box::new(PushDownFilters),
                Box::new(CollapseProjects),
            ],
            max_iterations: 10,
        }
    }
}

impl Optimizer {
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// Optimize a plan: rule fixpoint, then column pruning.
    pub fn optimize(&self, plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
        let mut current = (**plan).clone();
        for _ in 0..self.max_iterations {
            let mut changed = false;
            for rule in &self.rules {
                let next = rule.apply(&current)?;
                if next != current {
                    changed = true;
                    current = next;
                }
            }
            if !changed {
                break;
            }
        }
        let pruned = prune_columns(&current, None)?;
        Ok(Arc::new(pruned))
    }
}

/// Optimize with the default rule set.
pub fn optimize(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    Optimizer::default().optimize(plan)
}

// ---------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------

/// Split a predicate into its top-level AND conjuncts.
pub fn split_conjunction(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = split_conjunction(left);
            v.extend(split_conjunction(right));
            v
        }
        other => vec![other.clone()],
    }
}

/// AND a list of conjuncts back together (`None` if empty).
pub fn conjoin(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, |acc, c| acc.and(c)))
}

fn is_foldable(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column(_) | Expr::Window { .. } | Expr::Udf { .. } => false,
        other => other.children().iter().all(|c| is_foldable(c)),
    }
}

/// Fold constant subexpressions and simplify boolean algebra,
/// bottom-up.
pub fn simplify_expr(e: &Expr) -> Expr {
    // Rebuild with simplified children first.
    let rebuilt = match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(simplify_expr(left)),
            op: *op,
            right: Box::new(simplify_expr(right)),
        },
        Expr::Not(x) => Expr::Not(Box::new(simplify_expr(x))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(simplify_expr(x))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(simplify_expr(x))),
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(simplify_expr(expr)),
            to: *to,
        },
        Expr::Alias { expr, name } => Expr::Alias {
            expr: Box::new(simplify_expr(expr)),
            name: name.clone(),
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (simplify_expr(c), simplify_expr(v)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(simplify_expr(x))),
        },
        Expr::Window {
            time,
            size_us,
            slide_us,
        } => Expr::Window {
            time: Box::new(simplify_expr(time)),
            size_us: *size_us,
            slide_us: *slide_us,
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(simplify_expr).collect(),
        },
        Expr::Udf { udf, args } => Expr::Udf {
            udf: udf.clone(),
            args: args.iter().map(simplify_expr).collect(),
        },
    };

    // Boolean algebra on the rebuilt node. These identities are safe
    // under three-valued logic: `x AND false` is false and `x OR true`
    // is true even when x is NULL.
    let t = Expr::Literal(Value::Boolean(true));
    let f = Expr::Literal(Value::Boolean(false));
    let simplified = match &rebuilt {
        Expr::BinaryOp { left, op, right } => match op {
            BinaryOp::And => {
                if **left == t {
                    (**right).clone()
                } else if **right == t {
                    (**left).clone()
                } else if **left == f || **right == f {
                    f.clone()
                } else {
                    rebuilt.clone()
                }
            }
            BinaryOp::Or => {
                if **left == f {
                    (**right).clone()
                } else if **right == f {
                    (**left).clone()
                } else if **left == t || **right == t {
                    t.clone()
                } else {
                    rebuilt.clone()
                }
            }
            _ => rebuilt.clone(),
        },
        Expr::Not(inner) => match &**inner {
            Expr::Not(x) => (**x).clone(),
            Expr::Literal(Value::Boolean(b)) => Expr::Literal(Value::Boolean(!b)),
            _ => rebuilt.clone(),
        },
        _ => rebuilt.clone(),
    };

    // Constant folding: literal-only subtrees evaluate now. Failures
    // (e.g. a bad string cast) leave the expression for runtime, where
    // it will produce the same error.
    if !matches!(simplified, Expr::Literal(_)) && is_foldable(&simplified) {
        let empty_schema = Schema::default();
        if let Ok(v) = evaluate_row(&simplified, &empty_schema, &Row::empty()) {
            return Expr::Literal(v);
        }
    }
    simplified
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Constant folding + boolean simplification across all plan
/// expressions.
pub struct SimplifyExpressions;

impl OptimizerRule for SimplifyExpressions {
    fn name(&self) -> &'static str {
        "simplify_expressions"
    }

    fn apply(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        plan.transform_up(&|node| {
            Ok(match node {
                LogicalPlan::Filter { input, predicate } => {
                    let p = simplify_expr(&predicate);
                    // A literally-true filter is a no-op.
                    if p == Expr::Literal(Value::Boolean(true)) {
                        (*input).clone()
                    } else {
                        LogicalPlan::Filter {
                            input,
                            predicate: p,
                        }
                    }
                }
                LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                    input,
                    exprs: exprs.iter().map(simplify_expr).collect(),
                },
                other => other,
            })
        })
    }
}

/// `Filter(Filter(x, p1), p2)` → `Filter(x, p2 AND p1)`.
pub struct MergeFilters;

impl OptimizerRule for MergeFilters {
    fn name(&self) -> &'static str {
        "merge_filters"
    }

    fn apply(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        plan.transform_up(&|node| {
            Ok(match node {
                LogicalPlan::Filter {
                    input,
                    predicate: outer,
                } => match &*input {
                    LogicalPlan::Filter {
                        input: inner_input,
                        predicate: inner,
                    } => LogicalPlan::Filter {
                        input: inner_input.clone(),
                        predicate: outer.and(inner.clone()),
                    },
                    _ => LogicalPlan::Filter {
                        input,
                        predicate: outer,
                    },
                },
                other => other,
            })
        })
    }
}

/// Push filters toward scans: through projections (rewriting references
/// through aliases), watermarks, join sides, and aggregation group
/// keys.
pub struct PushDownFilters;

impl PushDownFilters {
    /// Can a predicate be answered using only columns from `schema`?
    fn covered_by(pred: &Expr, schema: &Schema) -> bool {
        pred.referenced_columns()
            .iter()
            .all(|c| schema.contains(c))
    }
}

impl OptimizerRule for PushDownFilters {
    fn name(&self) -> &'static str {
        "push_down_filters"
    }

    fn apply(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        plan.transform_up(&|node| {
            let LogicalPlan::Filter { input, predicate } = &node else {
                return Ok(node);
            };
            match &**input {
                // Filter(Project) -> Project(Filter) with references
                // rewritten through the projection, when every
                // referenced output column maps to a UDF-free
                // expression (UDFs should not be re-evaluated or
                // reordered past other operators).
                LogicalPlan::Project {
                    input: proj_input,
                    exprs,
                } => {
                    let mapping: Vec<(String, &Expr)> = exprs
                        .iter()
                        .map(|e| (e.output_name(), strip_alias(e)))
                        .collect();
                    let referenced = predicate.referenced_columns();
                    let ok = referenced.iter().all(|c| {
                        mapping.iter().any(|(n, e)| {
                            n == c && !matches!(e, Expr::Udf { .. }) && !e.contains_window()
                        })
                    });
                    if !ok {
                        return Ok(node.clone());
                    }
                    let rewritten = predicate.rewrite_columns(&|name| {
                        mapping
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, e)| (*e).clone())
                    });
                    Ok(LogicalPlan::Project {
                        input: Arc::new(LogicalPlan::Filter {
                            input: proj_input.clone(),
                            predicate: rewritten,
                        }),
                        exprs: exprs.clone(),
                    })
                }
                // Filter(Watermark) -> Watermark(Filter): the watermark
                // op only tracks metadata.
                LogicalPlan::Watermark {
                    input: wm_input,
                    column,
                    delay_us,
                } => Ok(LogicalPlan::Watermark {
                    input: Arc::new(LogicalPlan::Filter {
                        input: wm_input.clone(),
                        predicate: predicate.clone(),
                    }),
                    column: column.clone(),
                    delay_us: *delay_us,
                }),
                // Filter(Join): push conjuncts covered by one side to
                // that side, respecting outer-join semantics (pushing a
                // predicate into the null-extended side would change
                // results).
                LogicalPlan::Join {
                    left,
                    right,
                    join_type,
                    on,
                } => {
                    let ls = left.schema()?;
                    let rs = right.schema()?;
                    let mut to_left = Vec::new();
                    let mut to_right = Vec::new();
                    let mut kept = Vec::new();
                    for c in split_conjunction(predicate) {
                        let can_left = *join_type != JoinType::RightOuter
                            && Self::covered_by(&c, &ls);
                        let can_right = *join_type != JoinType::LeftOuter
                            && Self::covered_by(&c, &rs)
                            // Ambiguous names resolve to the left side;
                            // only push right when unambiguous.
                            && !Self::covered_by(&c, &ls);
                        if can_left {
                            to_left.push(c);
                        } else if can_right {
                            to_right.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    if to_left.is_empty() && to_right.is_empty() {
                        return Ok(node.clone());
                    }
                    let mut new_left = left.clone();
                    if let Some(p) = conjoin(to_left) {
                        new_left = Arc::new(LogicalPlan::Filter {
                            input: new_left,
                            predicate: p,
                        });
                    }
                    let mut new_right = right.clone();
                    if let Some(p) = conjoin(to_right) {
                        new_right = Arc::new(LogicalPlan::Filter {
                            input: new_right,
                            predicate: p,
                        });
                    }
                    let join = LogicalPlan::Join {
                        left: new_left,
                        right: new_right,
                        join_type: *join_type,
                        on: on.clone(),
                    };
                    Ok(match conjoin(kept) {
                        Some(p) => LogicalPlan::Filter {
                            input: Arc::new(join),
                            predicate: p,
                        },
                        None => join,
                    })
                }
                // Filter(Aggregate): conjuncts that reference only
                // plain (non-window, non-aggregate) group-key columns
                // can be applied to the input rows instead.
                LogicalPlan::Aggregate {
                    input: agg_input,
                    group_exprs,
                    aggregates,
                } => {
                    let plain_keys: Vec<String> = group_exprs
                        .iter()
                        .filter_map(|g| match strip_alias(g) {
                            Expr::Column(n) => Some(n.clone()),
                            _ => None,
                        })
                        .collect();
                    let mut pushed = Vec::new();
                    let mut kept = Vec::new();
                    for c in split_conjunction(predicate) {
                        if c.referenced_columns().iter().all(|r| plain_keys.contains(r)) {
                            pushed.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    if pushed.is_empty() {
                        return Ok(node.clone());
                    }
                    let new_input = Arc::new(LogicalPlan::Filter {
                        input: agg_input.clone(),
                        predicate: conjoin(pushed).expect("non-empty"),
                    });
                    let agg = LogicalPlan::Aggregate {
                        input: new_input,
                        group_exprs: group_exprs.clone(),
                        aggregates: aggregates.clone(),
                    };
                    Ok(match conjoin(kept) {
                        Some(p) => LogicalPlan::Filter {
                            input: Arc::new(agg),
                            predicate: p,
                        },
                        None => agg,
                    })
                }
                _ => Ok(node.clone()),
            }
        })
    }
}

/// `Project(Project(x, inner), outer)` → `Project(x, outer∘inner)` when
/// the inner projection is UDF-free (to avoid duplicating UDF calls).
pub struct CollapseProjects;

impl OptimizerRule for CollapseProjects {
    fn name(&self) -> &'static str {
        "collapse_projects"
    }

    fn apply(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        plan.transform_up(&|node| {
            let LogicalPlan::Project {
                input,
                exprs: outer,
            } = &node
            else {
                return Ok(node);
            };
            let LogicalPlan::Project {
                input: inner_input,
                exprs: inner,
            } = &**input
            else {
                return Ok(node.clone());
            };
            let mapping: Vec<(String, &Expr)> = inner
                .iter()
                .map(|e| (e.output_name(), strip_alias(e)))
                .collect();
            if mapping
                .iter()
                .any(|(_, e)| matches!(e, Expr::Udf { .. }) || e.contains_window())
            {
                return Ok(node.clone());
            }
            let composed: Vec<Expr> = outer
                .iter()
                .map(|e| {
                    let rewritten = e.rewrite_columns(&|name| {
                        mapping
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, x)| (*x).clone())
                    });
                    // Keep the outer output name stable.
                    if rewritten.output_name() == e.output_name() {
                        rewritten
                    } else {
                        rewritten.alias(e.output_name())
                    }
                })
                .collect();
            Ok(LogicalPlan::Project {
                input: inner_input.clone(),
                exprs: composed,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------

/// Push required-column sets down to scans. `required = None` means
/// "all columns". Runs top-down once, after the rule fixpoint.
pub fn prune_columns(
    plan: &LogicalPlan,
    required: Option<&BTreeSet<String>>,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            name,
            schema,
            streaming,
            projection,
        } => {
            let Some(req) = required else {
                return Ok(plan.clone());
            };
            // Keep schema order; only narrow when it actually helps.
            let base = match projection {
                Some(idx) => idx.clone(),
                None => (0..schema.len()).collect(),
            };
            let narrowed: Vec<usize> = base
                .iter()
                .copied()
                .filter(|&i| req.contains(&schema.field(i).name))
                .collect();
            if narrowed.is_empty() || narrowed.len() == base.len() {
                return Ok(plan.clone());
            }
            Ok(LogicalPlan::Scan {
                name: name.clone(),
                schema: schema.clone(),
                streaming: *streaming,
                projection: Some(narrowed),
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let child_req = required.map(|r| {
                let mut r = r.clone();
                r.extend(predicate.referenced_columns());
                r
            });
            Ok(LogicalPlan::Filter {
                input: Arc::new(prune_columns(input, child_req.as_ref())?),
                predicate: predicate.clone(),
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let mut req = BTreeSet::new();
            for e in exprs {
                req.extend(e.referenced_columns());
            }
            Ok(LogicalPlan::Project {
                input: Arc::new(prune_columns(input, Some(&req))?),
                exprs: exprs.clone(),
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let mut req = BTreeSet::new();
            for g in group_exprs {
                req.extend(g.referenced_columns());
            }
            for a in aggregates {
                if let Some(arg) = &a.arg {
                    req.extend(arg.referenced_columns());
                }
            }
            Ok(LogicalPlan::Aggregate {
                input: Arc::new(prune_columns(input, Some(&req))?),
                group_exprs: group_exprs.clone(),
                aggregates: aggregates.clone(),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let ls = left.schema()?;
            let rs = right.schema()?;
            let disjoint = ls
                .field_names()
                .iter()
                .all(|n| !rs.contains(n));
            if !disjoint || required.is_none() {
                // Ambiguous names or full requirement: recurse without
                // narrowing.
                return Ok(LogicalPlan::Join {
                    left: Arc::new(prune_columns(left, None)?),
                    right: Arc::new(prune_columns(right, None)?),
                    join_type: *join_type,
                    on: on.clone(),
                });
            }
            let req = required.unwrap();
            let mut lreq = BTreeSet::new();
            let mut rreq = BTreeSet::new();
            for n in req {
                if ls.contains(n) {
                    lreq.insert(n.clone());
                } else if rs.contains(n) {
                    rreq.insert(n.clone());
                }
            }
            for (le, re) in on {
                lreq.extend(le.referenced_columns());
                rreq.extend(re.referenced_columns());
            }
            Ok(LogicalPlan::Join {
                left: Arc::new(prune_columns(left, Some(&lreq))?),
                right: Arc::new(prune_columns(right, Some(&rreq))?),
                join_type: *join_type,
                on: on.clone(),
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let child_req = required.map(|r| {
                let mut r = r.clone();
                for k in keys {
                    r.extend(k.expr.referenced_columns());
                }
                r
            });
            Ok(LogicalPlan::Sort {
                input: Arc::new(prune_columns(input, child_req.as_ref())?),
                keys: keys.clone(),
            })
        }
        LogicalPlan::Limit { input, n } => Ok(LogicalPlan::Limit {
            input: Arc::new(prune_columns(input, required)?),
            n: *n,
        }),
        // DISTINCT compares whole rows; every input column matters.
        LogicalPlan::Distinct { input } => Ok(LogicalPlan::Distinct {
            input: Arc::new(prune_columns(input, None)?),
        }),
        LogicalPlan::Watermark {
            input,
            column,
            delay_us,
        } => {
            let child_req = required.map(|r| {
                let mut r = r.clone();
                r.insert(column.clone());
                r
            });
            Ok(LogicalPlan::Watermark {
                input: Arc::new(prune_columns(input, child_req.as_ref())?),
                column: column.clone(),
                delay_us: *delay_us,
            })
        }
        // The user function sees whole input rows.
        LogicalPlan::MapGroupsWithState { input, op } => Ok(LogicalPlan::MapGroupsWithState {
            input: Arc::new(prune_columns(input, None)?),
            op: op.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LogicalPlanBuilder;

    use ss_common::{DataType, Field};
    use ss_expr::{col, count_star, lit, sum};

    fn events() -> LogicalPlanBuilder {
        LogicalPlanBuilder::scan(
            "events",
            Schema::of(vec![
                Field::new("ad_id", DataType::Int64),
                Field::new("event_type", DataType::Utf8),
                Field::new("event_time", DataType::Timestamp),
                Field::new("ip", DataType::Utf8),
            ]),
            true,
        )
    }

    fn campaigns() -> LogicalPlanBuilder {
        LogicalPlanBuilder::scan(
            "campaigns",
            Schema::of(vec![
                Field::new("c_ad_id", DataType::Int64),
                Field::new("campaign_id", DataType::Int64),
            ]),
            false,
        )
    }

    #[test]
    fn constant_folding() {
        let e = lit(1i64).add(lit(2i64)).mul(lit(3i64));
        assert_eq!(simplify_expr(&e), lit(9i64));
        // x AND true -> x; x AND false -> false.
        let x = col("a").gt(lit(0i64));
        assert_eq!(simplify_expr(&x.clone().and(lit(true))), x);
        assert_eq!(simplify_expr(&x.clone().and(lit(false))), lit(false));
        assert_eq!(simplify_expr(&x.clone().or(lit(true))), lit(true));
        assert_eq!(simplify_expr(&x.clone().not().not()), x);
    }

    #[test]
    fn folding_leaves_failing_expressions_alone() {
        let e = lit("nope").cast(DataType::Int64);
        assert_eq!(simplify_expr(&e), e);
    }

    #[test]
    fn trivially_true_filter_removed() {
        let plan = events().filter(lit(1i64).lt(lit(2i64))).build();
        let opt = optimize(&plan).unwrap();
        assert!(matches!(*opt, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn merge_filters_conjoins() {
        let plan = events()
            .filter(col("event_type").eq(lit("view")))
            .filter(col("ad_id").gt(lit(0i64)))
            .build();
        let merged = MergeFilters.apply(&plan).unwrap();
        match merged {
            LogicalPlan::Filter { input, predicate } => {
                assert!(matches!(*input, LogicalPlan::Scan { .. }));
                assert_eq!(split_conjunction(&predicate).len(), 2);
            }
            other => panic!("expected Filter, got {other}"),
        }
    }

    #[test]
    fn filter_pushes_through_project() {
        let plan = events()
            .project(vec![col("ad_id").alias("a"), col("event_type")])
            .filter(col("a").gt(lit(10i64)))
            .build();
        let opt = optimize(&plan).unwrap();
        // Filter should now sit below the projection, rewritten to the
        // underlying column.
        match &*opt {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, .. } => {
                    assert_eq!(*predicate, col("ad_id").gt(lit(10i64)));
                }
                other => panic!("expected Filter under Project, got {other}"),
            },
            other => panic!("expected Project on top, got {other}"),
        }
    }

    #[test]
    fn filter_splits_across_join_sides() {
        let plan = events()
            .join(
                campaigns(),
                JoinType::Inner,
                vec![(col("ad_id"), col("c_ad_id"))],
            )
            .filter(
                col("event_type")
                    .eq(lit("view"))
                    .and(col("campaign_id").gt(lit(5i64))),
            )
            .build();
        let opt = optimize(&plan).unwrap();
        let LogicalPlan::Join { left, right, .. } = &*opt else {
            panic!("expected Join on top, got {opt}");
        };
        // Each side got its conjunct.
        fn has_filter(p: &LogicalPlan) -> bool {
            matches!(p, LogicalPlan::Filter { .. })
                || p.children().iter().any(|c| has_filter(c))
        }
        assert!(has_filter(left), "left side should have the view filter");
        assert!(has_filter(right), "right side should have the campaign filter");
    }

    #[test]
    fn outer_join_keeps_null_extended_side_filters_above() {
        let plan = events()
            .join(
                campaigns(),
                JoinType::LeftOuter,
                vec![(col("ad_id"), col("c_ad_id"))],
            )
            .filter(col("campaign_id").gt(lit(5i64)))
            .build();
        let opt = PushDownFilters.apply(&plan).unwrap();
        // The right side is null-extended under a left-outer join; the
        // predicate must stay above the join.
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_on_group_keys_pushes_below_aggregate() {
        let plan = events()
            .aggregate(vec![col("event_type")], vec![count_star()])
            .filter(col("event_type").eq(lit("view")))
            .build();
        let opt = optimize(&plan).unwrap();
        let LogicalPlan::Aggregate { input, .. } = &*opt else {
            panic!("expected Aggregate on top, got {opt}");
        };
        assert!(matches!(**input, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_on_aggregate_result_stays_above() {
        let plan = events()
            .aggregate(vec![col("event_type")], vec![count_star()])
            .filter(col("count(*)").gt(lit(10i64)))
            .build();
        let opt = optimize(&plan).unwrap();
        assert!(matches!(&*opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn collapse_projects_composes_exprs() {
        let plan = events()
            .project(vec![col("ad_id").add(lit(1i64)).alias("x"), col("ip")])
            .project(vec![col("x").mul(lit(2i64)).alias("y")])
            .build();
        let opt = CollapseProjects.apply(&plan).unwrap();
        match &opt {
            LogicalPlan::Project { input, exprs } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
                assert_eq!(exprs.len(), 1);
                assert_eq!(exprs[0].output_name(), "y");
            }
            other => panic!("expected collapsed Project, got {other}"),
        }
    }

    #[test]
    fn pruning_narrows_scan() {
        let plan = events()
            .filter(col("event_type").eq(lit("view")))
            .project(vec![col("ad_id")])
            .build();
        let opt = optimize(&plan).unwrap();
        let mut scan_cols = None;
        opt.visit(&mut |p| {
            if let LogicalPlan::Scan { projection, schema, .. } = p {
                scan_cols = projection.as_ref().map(|idx| {
                    idx.iter().map(|&i| schema.field(i).name.clone()).collect::<Vec<_>>()
                });
            }
        });
        assert_eq!(
            scan_cols,
            Some(vec!["ad_id".to_string(), "event_type".to_string()])
        );
        // The optimized plan must keep the same output schema.
        assert_eq!(
            opt.schema().unwrap().field_names(),
            plan.schema().unwrap().field_names()
        );
    }

    #[test]
    fn pruning_through_join_with_disjoint_names() {
        let plan = events()
            .join(
                campaigns(),
                JoinType::Inner,
                vec![(col("ad_id"), col("c_ad_id"))],
            )
            .project(vec![col("campaign_id"), col("event_time")])
            .build();
        let opt = optimize(&plan).unwrap();
        let mut scans = Vec::new();
        opt.visit(&mut |p| {
            if let LogicalPlan::Scan {
                name, projection, schema, ..
            } = p
            {
                let cols: Vec<String> = match projection {
                    Some(idx) => idx.iter().map(|&i| schema.field(i).name.clone()).collect(),
                    None => schema.field_names(),
                };
                scans.push((name.clone(), cols));
            }
        });
        let ev = scans.iter().find(|(n, _)| n == "events").unwrap();
        assert_eq!(ev.1, vec!["ad_id", "event_time"]);
        assert_eq!(opt.schema().unwrap().field_names(), vec!["campaign_id", "event_time"]);
    }

    #[test]
    fn optimizer_is_idempotent() {
        let plan = events()
            .filter(col("event_type").eq(lit("view")).and(lit(true)))
            .project(vec![col("ad_id"), col("event_time")])
            .build();
        let once = optimize(&plan).unwrap();
        let twice = optimize(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let p = col("a")
            .gt(lit(1i64))
            .and(col("b").lt(lit(2i64)))
            .and(col("c").eq(lit(3i64)));
        let parts = split_conjunction(&p);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        assert_eq!(split_conjunction(&back).len(), 3);
        assert!(conjoin(vec![]).is_none());
    }

    #[test]
    fn aggregate_sum_arg_is_pruned_into_requirement() {
        let plan = events()
            .aggregate(vec![col("event_type")], vec![sum(col("ad_id"))])
            .build();
        let opt = optimize(&plan).unwrap();
        let mut cols = None;
        opt.visit(&mut |p| {
            if let LogicalPlan::Scan { projection, schema, .. } = p {
                cols = projection.as_ref().map(|idx| {
                    idx.iter().map(|&i| schema.field(i).name.clone()).collect::<Vec<_>>()
                });
            }
        });
        assert_eq!(cols, Some(vec!["ad_id".to_string(), "event_type".to_string()]));
    }
}
