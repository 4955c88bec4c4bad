//! Aggregate functions with mergeable partial states.
//!
//! The streaming engine keeps one [`AggState`] per group key in the state
//! store and merges per-epoch partial aggregates into it (§5.2 of the
//! paper: "an aggregation in the user query might be mapped to a
//! StatefulAggregate operator"). Requirements this module satisfies:
//!
//! * partial states are **mergeable** (`merge(a, b)` is associative and
//!   commutative), so per-partition partials combine in any order;
//! * partial states are **serializable** ([`Row`]s of [`Value`]s), so
//!   the state store can checkpoint them;
//! * batch and streaming produce identical results, because a final
//!   state is independent of how the input was split into epochs —
//!   property-tested below.

use std::fmt;

use ss_common::codec::put_values;
use ss_common::{DataType, Result, Row, Schema, SsError, Value};

use crate::expr::Expr;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `count(expr)` counts non-NULL values; `count(*)` counts rows.
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggregateFunction {
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
            AggregateFunction::Avg => "avg",
        }
    }

    /// Do this function's partial states, at the resolved
    /// `result_type`, merge to the same bytes in any order? `COUNT`
    /// does; `MIN`/`MAX` do ([`Value::total_cmp`] ties only identical
    /// values); `SUM` does over `Int64` (wrapping add). `AVG` and
    /// `SUM` over `Float64` round differently per order.
    pub fn is_combinable(self, result_type: DataType) -> bool {
        match self {
            AggregateFunction::Count | AggregateFunction::Min | AggregateFunction::Max => true,
            AggregateFunction::Sum => result_type == DataType::Int64,
            AggregateFunction::Avg => false,
        }
    }
}

/// An aggregate call site: function + optional argument + optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    pub func: AggregateFunction,
    /// `None` only for `count(*)`.
    pub arg: Option<Expr>,
    pub alias: Option<String>,
}

impl AggregateExpr {
    pub fn new(func: AggregateFunction, arg: Option<Expr>) -> AggregateExpr {
        AggregateExpr {
            func,
            arg,
            alias: None,
        }
    }

    pub fn alias(mut self, name: impl Into<String>) -> AggregateExpr {
        self.alias = Some(name.into());
        self
    }

    /// The output column name.
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.arg {
            Some(e) => format!("{}({e})", self.func.name()),
            None => format!("{}(*)", self.func.name()),
        }
    }

    /// The result type against an input schema.
    pub fn result_type(&self, schema: &Schema) -> Result<DataType> {
        let arg_type = match &self.arg {
            Some(e) => Some(e.data_type(schema)?),
            None => None,
        };
        match self.func {
            AggregateFunction::Count => Ok(DataType::Int64),
            AggregateFunction::Avg => {
                let t = arg_type
                    .ok_or_else(|| SsError::Type("avg() requires an argument".into()))?;
                if !t.is_numeric() {
                    return Err(SsError::Type(format!("avg() requires numeric, got {t}")));
                }
                Ok(DataType::Float64)
            }
            AggregateFunction::Sum => {
                let t = arg_type
                    .ok_or_else(|| SsError::Type("sum() requires an argument".into()))?;
                if !t.is_numeric() {
                    return Err(SsError::Type(format!("sum() requires numeric, got {t}")));
                }
                Ok(t)
            }
            AggregateFunction::Min | AggregateFunction::Max => arg_type.ok_or_else(|| {
                SsError::Type(format!("{}() requires an argument", self.func.name()))
            }),
        }
    }

    /// A fresh accumulator for this aggregate.
    pub fn create_accumulator(&self) -> Accumulator {
        match self.func {
            AggregateFunction::Count => Accumulator::Count { n: 0 },
            AggregateFunction::Sum => Accumulator::Sum { sum: Value::Null },
            AggregateFunction::Min => Accumulator::Min { min: Value::Null },
            AggregateFunction::Max => Accumulator::Max { max: Value::Null },
            AggregateFunction::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
        }
    }
}

impl fmt::Display for AggregateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.output_name())
    }
}

/// A serializable partial aggregate state. The layout is
/// function-specific (documented on each [`Accumulator`] variant).
pub type AggState = Row;

/// A running aggregate.
///
/// State layouts (as [`Row`]s):
/// * `Count` → `[Int64 n]`
/// * `Sum`   → `[sum]` (NULL until the first non-NULL input)
/// * `Min`   → `[min]`
/// * `Max`   → `[max]`
/// * `Avg`   → `[Float64 sum, Int64 count]`
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    Count { n: i64 },
    Sum { sum: Value },
    Min { min: Value },
    Max { max: Value },
    Avg { sum: f64, count: i64 },
}

impl Accumulator {
    /// Scalar update (continuous mode / stateful operators).
    pub fn update_value(&mut self, v: &Value) -> Result<()> {
        match self {
            Accumulator::Count { n } => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::Sum { sum } => {
                if !v.is_null() {
                    *sum = match (&sum, v) {
                        (Value::Null, v) => v.clone(),
                        (Value::Int64(a), Value::Int64(b)) => Value::Int64(a.wrapping_add(*b)),
                        (Value::Float64(a), Value::Float64(b)) => Value::Float64(a + b),
                        (Value::Int64(a), Value::Float64(b)) => Value::Float64(*a as f64 + b),
                        (Value::Float64(a), Value::Int64(b)) => Value::Float64(*a + *b as f64),
                        (s, v) => {
                            return Err(SsError::Type(format!("cannot sum {v} into {s}")))
                        }
                    };
                }
            }
            Accumulator::Min { min } => {
                if !v.is_null() && (min.is_null() || *v < *min) {
                    *min = v.clone();
                }
            }
            Accumulator::Max { max } => {
                if !v.is_null() && (max.is_null() || *v > *max) {
                    *max = v.clone();
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(x) = v.as_f64()? {
                    *sum += x;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    /// Merge a checkpointed [`Accumulator::state`] row into this one.
    pub fn merge(&mut self, state: &Row) -> Result<()> {
        let wrong = || SsError::Serde(format!("bad aggregate state {state}"));
        let first = || state.values().first().ok_or_else(wrong);
        let other = match self {
            // One value of the input's type, or NULL: a scalar update.
            Accumulator::Sum { .. } | Accumulator::Min { .. } | Accumulator::Max { .. } => {
                return self.update_value(first()?)
            }
            Accumulator::Count { .. } => Accumulator::Count {
                n: first()?.as_i64()?.ok_or_else(wrong)?,
            },
            Accumulator::Avg { .. } => {
                if state.len() != 2 {
                    return Err(wrong());
                }
                Accumulator::Avg {
                    sum: state.get(0).as_f64()?.ok_or_else(wrong)?,
                    count: state.get(1).as_i64()?.ok_or_else(wrong)?,
                }
            }
        };
        self.combine(other)
    }

    /// Merge another accumulator of the same function into this one:
    /// how a reduce shard folds in a map task's per-key partial.
    pub fn combine(&mut self, other: Accumulator) -> Result<()> {
        match (&mut *self, other) {
            (Accumulator::Count { n }, Accumulator::Count { n: m }) => *n += m,
            (Accumulator::Avg { sum, count }, Accumulator::Avg { sum: s, count: c }) => {
                *sum += s;
                *count += c;
            }
            (Accumulator::Sum { .. }, Accumulator::Sum { sum: v })
            | (Accumulator::Min { .. }, Accumulator::Min { min: v })
            | (Accumulator::Max { .. }, Accumulator::Max { max: v }) => {
                return self.update_value(&v)
            }
            (acc, other) => {
                return Err(SsError::Internal(format!(
                    "cannot combine {other:?} into {acc:?}"
                )))
            }
        }
        Ok(())
    }

    /// The checkpointable partial state.
    pub fn state(&self) -> AggState {
        match self {
            Accumulator::Count { n } => Row::new(vec![Value::Int64(*n)]),
            Accumulator::Sum { sum } => Row::new(vec![sum.clone()]),
            Accumulator::Min { min } => Row::new(vec![min.clone()]),
            Accumulator::Max { max } => Row::new(vec![max.clone()]),
            Accumulator::Avg { sum, count } => {
                Row::new(vec![Value::Float64(*sum), Value::Int64(*count)])
            }
        }
    }

    /// Append [`Accumulator::state`] in the state codec's row encoding,
    /// without building the row.
    pub fn put_state(&self, out: &mut Vec<u8>) {
        match self {
            Accumulator::Count { n } => put_values(out, &[Value::Int64(*n)]),
            Accumulator::Sum { sum: v } | Accumulator::Min { min: v } | Accumulator::Max { max: v } => {
                put_values(out, std::slice::from_ref(v))
            }
            Accumulator::Avg { sum, count } => {
                put_values(out, &[Value::Float64(*sum), Value::Int64(*count)])
            }
        }
    }

    /// [`Row::approx_bytes`] of [`Accumulator::state`].
    pub fn state_bytes(&self) -> usize {
        match self {
            Accumulator::Count { .. } => Row::approx_bytes_of(&[Value::Null]),
            Accumulator::Avg { .. } => Row::approx_bytes_of(&[Value::Null, Value::Null]),
            Accumulator::Sum { sum: v } | Accumulator::Min { min: v } | Accumulator::Max { max: v } => {
                Row::approx_bytes_of(std::slice::from_ref(v))
            }
        }
    }

    /// The final aggregate value.
    pub fn evaluate(&self) -> Value {
        match self {
            Accumulator::Count { n } => Value::Int64(*n),
            Accumulator::Sum { sum } => sum.clone(),
            Accumulator::Min { min } => min.clone(),
            Accumulator::Max { max } => max.clone(),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(*sum / *count as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{avg, col, count, count_star, max, min, sum};
    use ss_common::{row, Field, Schema};

    fn ints(vals: &[Option<i64>]) -> Vec<Value> {
        vals.iter().map(|v| Value::from(*v)).collect()
    }

    /// A fresh accumulator of `agg` fed `values` one at a time.
    fn fed(agg: &AggregateExpr, values: &[Value]) -> Accumulator {
        let mut acc = agg.create_accumulator();
        values.iter().for_each(|v| acc.update_value(v).unwrap());
        acc
    }

    #[test]
    fn count_star_counts_rows_count_col_skips_nulls() {
        let c = ints(&[Some(1), None, Some(3)]);
        // `count(*)` is fed a non-NULL value per row.
        assert_eq!(fed(&count_star(), &ints(&[Some(1); 3])).evaluate(), Value::Int64(3));
        assert_eq!(fed(&count(col("x")), &c).evaluate(), Value::Int64(2));
    }

    #[test]
    fn sum_min_max_avg() {
        let c = ints(&[Some(5), None, Some(-2), Some(10)]);
        assert_eq!(fed(&sum(col("x")), &c).evaluate(), Value::Int64(13));
        assert_eq!(fed(&min(col("x")), &c).evaluate(), Value::Int64(-2));
        assert_eq!(fed(&max(col("x")), &c).evaluate(), Value::Int64(10));
        assert_eq!(fed(&avg(col("x")), &c).evaluate(), Value::Float64(13.0 / 3.0));
    }

    #[test]
    fn empty_input_yields_null_or_zero() {
        assert_eq!(count_star().create_accumulator().evaluate(), Value::Int64(0));
        assert_eq!(sum(col("x")).create_accumulator().evaluate(), Value::Null);
        assert_eq!(min(col("x")).create_accumulator().evaluate(), Value::Null);
        assert_eq!(avg(col("x")).create_accumulator().evaluate(), Value::Null);
    }

    #[test]
    fn merge_equals_single_pass() {
        // Split input across two accumulators, merge, compare with a
        // single-pass accumulator — the property the incremental engine
        // relies on.
        let all = ints(&[Some(1), Some(2), None, Some(4), Some(5)]);
        for agg in [sum(col("x")), min(col("x")), max(col("x")), avg(col("x")), count(col("x"))] {
            let single = fed(&agg, &all);
            let mut a = fed(&agg, &all[..2]);
            a.merge(&fed(&agg, &all[2..]).state()).unwrap();
            assert_eq!(a.evaluate(), single.evaluate(), "{}", agg.output_name());
        }
    }

    #[test]
    fn put_state_and_state_bytes_agree_with_the_state_row() {
        let accs = [
            Accumulator::Count { n: 7 },
            Accumulator::Sum { sum: Value::Null },
            Accumulator::Sum { sum: Value::Float64(-0.0) },
            Accumulator::Min { min: Value::str("a-string-payload") },
            Accumulator::Max { max: Value::Timestamp(i64::MIN) },
            Accumulator::Avg { sum: f64::NAN, count: 3 },
        ];
        for acc in accs {
            let (mut by_ref, mut by_row) = (Vec::new(), Vec::new());
            acc.put_state(&mut by_ref);
            ss_common::codec::put_row(&mut by_row, &acc.state());
            assert_eq!(by_ref, by_row, "{acc:?}");
            assert_eq!(acc.state_bytes(), acc.state().approx_bytes(), "{acc:?}");
        }
    }

    #[test]
    fn state_round_trip() {
        let c = ints(&[Some(3), Some(9)]);
        for agg in [sum(col("x")), avg(col("x")), count_star()] {
            let acc = fed(&agg, &c);
            let mut restored = agg.create_accumulator();
            restored.merge(&acc.state()).unwrap();
            assert_eq!(restored.evaluate(), acc.evaluate(), "{}", agg.output_name());
        }
    }

    #[test]
    fn result_types() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        assert_eq!(count_star().result_type(&schema).unwrap(), DataType::Int64);
        assert_eq!(sum(col("x")).result_type(&schema).unwrap(), DataType::Int64);
        assert_eq!(avg(col("x")).result_type(&schema).unwrap(), DataType::Float64);
        assert_eq!(min(col("s")).result_type(&schema).unwrap(), DataType::Utf8);
        assert!(sum(col("s")).result_type(&schema).is_err());
        assert!(avg(col("s")).result_type(&schema).is_err());
    }

    #[test]
    fn min_max_work_on_strings_and_floats() {
        let strings = [Value::str("pear"), Value::str("apple"), Value::Null];
        assert_eq!(fed(&min(col("s")), &strings).evaluate(), Value::str("apple"));
        let floats = [Value::Float64(1.5), Value::Float64(-0.5)];
        assert_eq!(fed(&max(col("f")), &floats).evaluate(), Value::Float64(1.5));
    }

    #[test]
    fn merge_rejects_malformed_state() {
        let mut acc = avg(col("x")).create_accumulator();
        assert!(acc.merge(&row![1i64]).is_err());
        let mut acc = count_star().create_accumulator();
        assert!(acc.merge(&Row::empty()).is_err());
    }
}
