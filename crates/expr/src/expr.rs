//! The expression AST.
//!
//! Expressions are name-resolved lazily against a batch's schema at
//! evaluation time; the analyzer in `ss-plan` checks up front that every
//! reference resolves and every operator is well-typed, so evaluation
//! failures on analyzed plans indicate engine bugs.

use std::fmt;
use std::sync::Arc;

use ss_common::{Column, DataType, Result, Schema, SsError, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// Mirror a comparison across its operands: `a < b` ⇔ `b > a`.
    pub fn flip(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }

    /// SQL rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
        }
    }
}

/// The callable body of a [`ScalarUdf`].
pub type ScalarUdfFn = Arc<dyn Fn(&[Column]) -> Result<Column> + Send + Sync>;

/// A scalar user-defined function: a named, pure function from columns
/// to a column. Equality is by name (the engine never needs structural
/// equality of function bodies).
#[derive(Clone)]
pub struct ScalarUdf {
    pub name: String,
    pub return_type: DataType,
    pub func: ScalarUdfFn,
}

impl fmt::Debug for ScalarUdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalarUdf")
            .field("name", &self.name)
            .field("return_type", &self.return_type)
            .finish()
    }
}

impl PartialEq for ScalarUdf {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.return_type == other.return_type
    }
}

/// The expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name.
    Column(String),
    /// A literal scalar.
    Literal(Value),
    /// A binary operation with SQL NULL semantics.
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// NULL test (never NULL itself).
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
    /// Type cast.
    Cast { expr: Box<Expr>, to: DataType },
    /// Rename the output column.
    Alias { expr: Box<Expr>, name: String },
    /// `CASE WHEN c1 THEN v1 [WHEN ...] ELSE e END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Event-time window assignment (§4.1): buckets a timestamp column
    /// into `[start, end)` windows of `size_us`, sliding every
    /// `slide_us`. Evaluates to the window *start* timestamp. Sliding
    /// windows (`slide < size`) are only valid as grouping keys, where
    /// the aggregation operator expands each row into its `size/slide`
    /// windows; the analyzer enforces this.
    Window {
        time: Box<Expr>,
        size_us: i64,
        slide_us: i64,
    },
    /// Built-in scalar function by name (`lower`, `upper`, `length`,
    /// `abs`, `coalesce`, `concat`).
    Function { name: String, args: Vec<Expr> },
    /// User-defined scalar function.
    Udf { udf: ScalarUdf, args: Vec<Expr> },
}

impl Expr {
    /// The name this expression's output column gets (Spark-style).
    pub fn output_name(&self) -> String {
        match self {
            Expr::Column(n) => n.clone(),
            Expr::Alias { name, .. } => name.clone(),
            Expr::Window { .. } => "window".to_string(),
            other => other.to_string(),
        }
    }

    /// The result type of this expression against `schema`.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(name) => Ok(schema.field_by_name(name)?.data_type),
            Expr::Literal(v) => Ok(v.data_type().unwrap_or(DataType::Utf8)),
            Expr::BinaryOp { left, op, right } => {
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                if op.is_comparison() {
                    lt.common_type(rt).map_err(|_| {
                        SsError::Type(format!("cannot compare {lt} with {rt} in `{self}`"))
                    })?;
                    Ok(DataType::Boolean)
                } else if op.is_logical() {
                    if lt != DataType::Boolean || rt != DataType::Boolean {
                        return Err(SsError::Type(format!(
                            "{} requires BOOLEAN operands, got {lt} and {rt}",
                            op.symbol()
                        )));
                    }
                    Ok(DataType::Boolean)
                } else {
                    let common = lt.common_type(rt).map_err(|_| {
                        SsError::Type(format!("cannot apply {} to {lt} and {rt}", op.symbol()))
                    })?;
                    if !common.is_numeric() && common != DataType::Timestamp {
                        return Err(SsError::Type(format!(
                            "arithmetic requires numeric operands, got {common} in `{self}`"
                        )));
                    }
                    // Division always yields a double, like Spark SQL's `/`.
                    if *op == BinaryOp::Divide {
                        Ok(DataType::Float64)
                    } else {
                        Ok(common)
                    }
                }
            }
            Expr::Not(e) => {
                if e.data_type(schema)? != DataType::Boolean {
                    return Err(SsError::Type(format!("NOT requires BOOLEAN in `{self}`")));
                }
                Ok(DataType::Boolean)
            }
            Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.data_type(schema)?;
                Ok(DataType::Boolean)
            }
            Expr::Cast { expr, to } => {
                expr.data_type(schema)?;
                Ok(*to)
            }
            Expr::Alias { expr, .. } => expr.data_type(schema),
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut ty: Option<DataType> = else_expr
                    .as_ref()
                    .map(|e| e.data_type(schema))
                    .transpose()?;
                for (cond, val) in branches {
                    if cond.data_type(schema)? != DataType::Boolean {
                        return Err(SsError::Type("CASE condition must be BOOLEAN".into()));
                    }
                    let vt = val.data_type(schema)?;
                    ty = Some(match ty {
                        None => vt,
                        Some(t) => t.common_type(vt)?,
                    });
                }
                ty.ok_or_else(|| SsError::Type("CASE with no branches".into()))
            }
            Expr::Window { time, .. } => {
                let tt = time.data_type(schema)?;
                if tt != DataType::Timestamp && tt != DataType::Int64 {
                    return Err(SsError::Type(format!(
                        "window() requires a TIMESTAMP column, got {tt}"
                    )));
                }
                Ok(DataType::Timestamp)
            }
            Expr::Function { name, args } => {
                let arg_types: Vec<DataType> = args
                    .iter()
                    .map(|a| a.data_type(schema))
                    .collect::<Result<_>>()?;
                builtin_return_type(name, &arg_types)
            }
            Expr::Udf { udf, .. } => Ok(udf.return_type),
        }
    }

    /// Whether the output may contain NULLs.
    pub fn nullable(&self, schema: &Schema) -> bool {
        match self {
            Expr::Column(name) => schema
                .field_by_name(name)
                .map(|f| f.nullable)
                .unwrap_or(true),
            Expr::Literal(v) => v.is_null(),
            Expr::IsNull(_) | Expr::IsNotNull(_) => false,
            Expr::Alias { expr, .. } => expr.nullable(schema),
            Expr::Window { time, .. } => time.nullable(schema),
            _ => true,
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column(_) | Expr::Literal(_) => vec![],
            Expr::BinaryOp { left, right, .. } => vec![left, right],
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => vec![e],
            Expr::Cast { expr, .. } | Expr::Alias { expr, .. } => vec![expr],
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut v: Vec<&Expr> = Vec::with_capacity(branches.len() * 2 + 1);
                for (c, val) in branches {
                    v.push(c);
                    v.push(val);
                }
                if let Some(e) = else_expr {
                    v.push(e);
                }
                v
            }
            Expr::Window { time, .. } => vec![time],
            Expr::Function { args, .. } | Expr::Udf { args, .. } => args.iter().collect(),
        }
    }

    /// All column names referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        if let Expr::Column(n) = self {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        for c in self.children() {
            c.collect_columns(out);
        }
    }

    /// True if this expression (or a descendant) is a `window()` call.
    pub fn contains_window(&self) -> bool {
        matches!(self, Expr::Window { .. }) || self.children().iter().any(|c| c.contains_window())
    }

    /// Rewrite column references through a rename map (used when pushing
    /// predicates through projections).
    pub fn rewrite_columns(&self, rename: &dyn Fn(&str) -> Option<Expr>) -> Expr {
        match self {
            Expr::Column(n) => rename(n).unwrap_or_else(|| self.clone()),
            Expr::Literal(_) => self.clone(),
            Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
                left: Box::new(left.rewrite_columns(rename)),
                op: *op,
                right: Box::new(right.rewrite_columns(rename)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.rewrite_columns(rename))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.rewrite_columns(rename))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.rewrite_columns(rename))),
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.rewrite_columns(rename)),
                to: *to,
            },
            Expr::Alias { expr, name } => Expr::Alias {
                expr: Box::new(expr.rewrite_columns(rename)),
                name: name.clone(),
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.rewrite_columns(rename), v.rewrite_columns(rename)))
                    .collect(),
                else_expr: else_expr
                    .as_ref()
                    .map(|e| Box::new(e.rewrite_columns(rename))),
            },
            Expr::Window {
                time,
                size_us,
                slide_us,
            } => Expr::Window {
                time: Box::new(time.rewrite_columns(rename)),
                size_us: *size_us,
                slide_us: *slide_us,
            },
            Expr::Function { name, args } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(|a| a.rewrite_columns(rename)).collect(),
            },
            Expr::Udf { udf, args } => Expr::Udf {
                udf: udf.clone(),
                args: args.iter().map(|a| a.rewrite_columns(rename)).collect(),
            },
        }
    }

    // ---- fluent builder methods (the Spark `Column` API) ----

    fn binary(self, op: BinaryOp, rhs: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op,
            right: Box::new(rhs),
        }
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Eq, rhs)
    }
    pub fn not_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Lt, rhs)
    }
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Gt, rhs)
    }
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::And, rhs)
    }
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Or, rhs)
    }
    #[allow(clippy::should_implement_trait)] // Spark Column API naming
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Plus, rhs)
    }
    #[allow(clippy::should_implement_trait)] // Spark Column API naming
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Minus, rhs)
    }
    #[allow(clippy::should_implement_trait)] // Spark Column API naming
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Multiply, rhs)
    }
    #[allow(clippy::should_implement_trait)] // Spark Column API naming
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Divide, rhs)
    }
    pub fn modulo(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Modulo, rhs)
    }

    #[allow(clippy::should_implement_trait)] // Spark Column API naming
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }
    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast {
            expr: Box::new(self),
            to,
        }
    }
    pub fn alias(self, name: impl Into<String>) -> Expr {
        Expr::Alias {
            expr: Box::new(self),
            name: name.into(),
        }
    }
}

/// Return type of a built-in function.
pub fn builtin_return_type(name: &str, arg_types: &[DataType]) -> Result<DataType> {
    let arity_err = |want: &str| {
        Err(SsError::Type(format!(
            "{name}() expects {want} argument(s), got {}",
            arg_types.len()
        )))
    };
    match name {
        "lower" | "upper" => {
            if arg_types.len() != 1 {
                return arity_err("1 STRING");
            }
            if arg_types[0] != DataType::Utf8 {
                return Err(SsError::Type(format!("{name}() requires STRING")));
            }
            Ok(DataType::Utf8)
        }
        "length" => {
            if arg_types.len() != 1 {
                return arity_err("1 STRING");
            }
            Ok(DataType::Int64)
        }
        "abs" => {
            if arg_types.len() != 1 {
                return arity_err("1 numeric");
            }
            if !arg_types[0].is_numeric() {
                return Err(SsError::Type("abs() requires a numeric argument".into()));
            }
            Ok(arg_types[0])
        }
        "coalesce" => {
            if arg_types.is_empty() {
                return arity_err("at least 1");
            }
            let mut ty = arg_types[0];
            for t in &arg_types[1..] {
                ty = ty.common_type(*t)?;
            }
            Ok(ty)
        }
        "concat" => {
            if arg_types.is_empty() {
                return arity_err("at least 1");
            }
            Ok(DataType::Utf8)
        }
        "like" => {
            if arg_types.len() != 2 {
                return arity_err("2 STRING");
            }
            if arg_types[0] != DataType::Utf8 || arg_types[1] != DataType::Utf8 {
                return Err(SsError::Type("like() requires STRING arguments".into()));
            }
            Ok(DataType::Boolean)
        }
        "to_int" => {
            if arg_types.len() != 1 {
                return arity_err("1 STRING");
            }
            if arg_types[0] != DataType::Utf8 {
                return Err(SsError::Type("to_int() requires a STRING argument".into()));
            }
            Ok(DataType::Int64)
        }
        other => Err(SsError::Type(format!("unknown function `{other}`"))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "{n}"),
            Expr::Literal(v) => match v {
                Value::Utf8(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::BinaryOp { left, op, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Alias { expr, name } => write!(f, "{expr} AS {name}"),
            Expr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::Window {
                time,
                size_us,
                slide_us,
            } => {
                if size_us == slide_us {
                    write!(f, "window({time}, {}us)", size_us)
                } else {
                    write!(f, "window({time}, {}us, {}us)", size_us, slide_us)
                }
            }
            Expr::Function { name, args } | Expr::Udf {
                udf: ScalarUdf { name, .. },
                args,
            } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{col, lit};
    use ss_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::not_null("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
            Field::new("f", DataType::Float64),
            Field::new("b", DataType::Boolean),
        ])
        .unwrap()
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(col("a").add(lit(1i64)).data_type(&s).unwrap(), DataType::Int64);
        assert_eq!(col("a").add(col("f")).data_type(&s).unwrap(), DataType::Float64);
        assert_eq!(col("a").div(lit(2i64)).data_type(&s).unwrap(), DataType::Float64);
        assert_eq!(col("a").gt(lit(0i64)).data_type(&s).unwrap(), DataType::Boolean);
        assert_eq!(col("s").is_null().data_type(&s).unwrap(), DataType::Boolean);
        assert_eq!(
            col("a").cast(DataType::Utf8).data_type(&s).unwrap(),
            DataType::Utf8
        );
    }

    #[test]
    fn type_errors() {
        let s = schema();
        assert!(col("s").add(lit(1i64)).data_type(&s).is_err());
        assert!(col("a").and(col("b")).data_type(&s).is_err());
        assert!(col("s").gt(lit(1i64)).data_type(&s).is_err());
        assert!(col("missing").data_type(&s).is_err());
        assert!(Expr::Function {
            name: "nope".into(),
            args: vec![]
        }
        .data_type(&s)
        .is_err());
    }

    #[test]
    fn window_requires_timestamp() {
        let s = schema();
        let w = crate::dsl::window(col("t"), "10 seconds").unwrap();
        assert_eq!(w.data_type(&s).unwrap(), DataType::Timestamp);
        assert!(crate::dsl::window(col("s"), "10 seconds")
            .unwrap()
            .data_type(&s)
            .is_err());
    }

    #[test]
    fn output_names() {
        assert_eq!(col("x").output_name(), "x");
        assert_eq!(col("x").alias("y").output_name(), "y");
        assert_eq!(
            crate::dsl::window(col("t"), "1 min").unwrap().output_name(),
            "window"
        );
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = col("a").add(col("b")).mul(col("a"));
        assert_eq!(e.referenced_columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn nullable_tracking() {
        let s = schema();
        assert!(col("a").nullable(&s));
        assert!(!col("s").nullable(&s));
        assert!(!col("a").is_null().nullable(&s));
        assert!(!lit(1i64).nullable(&s));
        assert!(lit(Value::Null).nullable(&s));
    }

    #[test]
    fn display_round_readable() {
        let e = col("a").gt(lit(5i64)).and(col("s").eq(lit("view")));
        assert_eq!(e.to_string(), "((a > 5) AND (s = 'view'))");
    }

    #[test]
    fn rewrite_columns_substitutes() {
        let e = col("a").add(col("b"));
        let rewritten = e.rewrite_columns(&|n| (n == "a").then(|| lit(7i64)));
        assert_eq!(rewritten, lit(7i64).add(col("b")));
    }

    #[test]
    fn contains_window_walks_tree() {
        let w = crate::dsl::window(col("t"), "10 seconds").unwrap();
        assert!(w.clone().alias("w").contains_window());
        assert!(!col("t").contains_window());
    }

    #[test]
    fn case_type_inference() {
        let s = schema();
        let e = Expr::Case {
            branches: vec![(col("b"), lit(1i64))],
            else_expr: Some(Box::new(lit(2.5f64))),
        };
        assert_eq!(e.data_type(&s).unwrap(), DataType::Float64);
        let bad = Expr::Case {
            branches: vec![(lit(1i64), lit(1i64))],
            else_expr: None,
        };
        assert!(bad.data_type(&s).is_err());
    }
}
