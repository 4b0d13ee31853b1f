//! Executable select-project-join-aggregate query specification.
//!
//! [`SelectSpec`] is the low-level, fully resolved form that the executor runs.
//! The user-facing SQL AST (in `duoquest-sql`) and the verification probes
//! generated by the verifier both lower to this representation.

use crate::join_graph::JoinTree;
use crate::schema::ColumnId;
use crate::types::{DataType, Value};
use std::fmt;

/// SQL aggregate functions supported by the task scope (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// All aggregate functions, in the module output order of the paper.
    pub const ALL: [AggFunc; 5] =
        [AggFunc::Max, AggFunc::Min, AggFunc::Sum, AggFunc::Count, AggFunc::Avg];

    /// Result type of the aggregate over a column of type `input`.
    pub fn result_type(&self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Number,
            AggFunc::Sum | AggFunc::Avg => DataType::Number,
            AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Number),
        }
    }

    /// Whether the aggregate may be applied to text columns
    /// (semantic rule "Aggregate type usage", paper Table 4).
    pub fn allows_text_input(&self) -> bool {
        matches!(self, AggFunc::Count)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators for selection predicates (paper Table 3, OP module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` (with `%` wildcards)
    Like,
    /// `BETWEEN lo AND hi`
    Between,
}

impl CmpOp {
    /// All comparison operators.
    pub const ALL: [CmpOp; 8] = [
        CmpOp::Eq,
        CmpOp::Gt,
        CmpOp::Lt,
        CmpOp::Ge,
        CmpOp::Le,
        CmpOp::Ne,
        CmpOp::Like,
        CmpOp::Between,
    ];

    /// Whether this operator requires an ordered (numeric) comparison
    /// (semantic rule "Faulty type comparison", paper Table 4).
    pub fn requires_ordering(&self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge | CmpOp::Between)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Like => "LIKE",
            CmpOp::Between => "BETWEEN",
        };
        write!(f, "{s}")
    }
}

/// Logical connective between the predicates of a WHERE clause. Nested mixed
/// expressions are out of scope (paper §2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogicalOp {
    /// All predicates must hold.
    #[default]
    And,
    /// At least one predicate must hold.
    Or,
}

impl fmt::Display for LogicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalOp::And => write!(f, "AND"),
            LogicalOp::Or => write!(f, "OR"),
        }
    }
}

/// One projected item of the SELECT clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectItem {
    /// Optional aggregate applied to the column.
    pub agg: Option<AggFunc>,
    /// The projected column; `None` only for `COUNT(*)`.
    pub col: Option<ColumnId>,
}

impl SelectItem {
    /// A plain column projection.
    pub fn column(col: ColumnId) -> Self {
        SelectItem { agg: None, col: Some(col) }
    }

    /// An aggregated column projection.
    pub fn aggregate(agg: AggFunc, col: ColumnId) -> Self {
        SelectItem { agg: Some(agg), col: Some(col) }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        SelectItem { agg: Some(AggFunc::Count), col: None }
    }

    /// Whether the item is aggregated.
    pub fn is_aggregate(&self) -> bool {
        self.agg.is_some()
    }
}

/// A selection predicate over a column (WHERE) or an aggregate (HAVING).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Aggregate applied to the column — only valid in HAVING position.
    pub agg: Option<AggFunc>,
    /// The compared column; `None` only for `COUNT(*)` in HAVING.
    pub col: Option<ColumnId>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand constant.
    pub value: Value,
    /// Second constant, used only for `BETWEEN`.
    pub value2: Option<Value>,
}

impl Predicate {
    /// A simple column/constant predicate for the WHERE clause.
    pub fn new(col: ColumnId, op: CmpOp, value: Value) -> Self {
        Predicate { agg: None, col: Some(col), op, value, value2: None }
    }

    /// A BETWEEN predicate.
    pub fn between(col: ColumnId, lo: Value, hi: Value) -> Self {
        Predicate { agg: None, col: Some(col), op: CmpOp::Between, value: lo, value2: Some(hi) }
    }

    /// An aggregated predicate for the HAVING clause.
    pub fn having(agg: AggFunc, col: Option<ColumnId>, op: CmpOp, value: Value) -> Self {
        Predicate { agg: Some(agg), col, op, value, value2: None }
    }

    /// Whether the predicate is aggregated (HAVING-position).
    pub fn is_aggregate(&self) -> bool {
        self.agg.is_some()
    }

    /// The numeric interval this range predicate accepts, as
    /// `(lo, lo_inclusive, hi, hi_inclusive)` — the binary-search bounds an
    /// ordered index range scan uses. `None` when the predicate is not a
    /// finite-numeric range (equality/LIKE/NE, text or NULL constants,
    /// non-finite bounds), in which case index range access does not apply.
    /// Text ranges are deliberately excluded: SQL text comparison is
    /// case-insensitive while the index order is case-sensitive, so a text
    /// range slice would not be a superset of the matching rows.
    pub fn numeric_range_bounds(&self) -> Option<(f64, bool, f64, bool)> {
        let Value::Number(v) = self.value else { return None };
        if !v.is_finite() {
            return None;
        }
        match self.op {
            CmpOp::Lt => Some((f64::NEG_INFINITY, true, v, false)),
            CmpOp::Le => Some((f64::NEG_INFINITY, true, v, true)),
            CmpOp::Gt => Some((v, false, f64::INFINITY, true)),
            CmpOp::Ge => Some((v, true, f64::INFINITY, true)),
            CmpOp::Between => match self.value2.as_ref().unwrap_or(&self.value) {
                Value::Number(h) if h.is_finite() => Some((v, true, *h, true)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// The sort key of an ORDER BY clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKey {
    /// Order by a plain column.
    Column(ColumnId),
    /// Order by an aggregate (e.g. `ORDER BY COUNT(*) DESC`); `None` column means `COUNT(*)`.
    Aggregate(AggFunc, Option<ColumnId>),
}

/// An ORDER BY clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderSpec {
    /// Sort key.
    pub key: OrderKey,
    /// Descending if true, ascending otherwise.
    pub desc: bool,
}

/// A fully resolved, executable SPJA query.
///
/// `Eq` is structural (field-by-field; every NaN is one NaN and `-0.0` is
/// `0.0`), and so is the exact byte encoding that keys a run's probe memo
/// (`encode::encode_spec`); nothing hashes a spec. The canonical
/// set-semantics equivalence of `duoquest-sql`'s `queries_equivalent` is
/// [`crate::encode::canonical_key`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectSpec {
    /// Projected items; must be non-empty to execute.
    pub select: Vec<SelectItem>,
    /// Whether duplicate output rows are removed.
    pub distinct: bool,
    /// The FROM clause as a connected join tree.
    pub join: JoinTree,
    /// Non-aggregated predicates of the WHERE clause.
    pub predicates: Vec<Predicate>,
    /// Connective between the WHERE predicates.
    pub predicate_op: LogicalOp,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnId>,
    /// Aggregated predicates of the HAVING clause (combined with AND).
    pub having: Vec<Predicate>,
    /// Optional ORDER BY.
    pub order_by: Option<OrderSpec>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl SelectSpec {
    /// Whether the query involves any aggregation (projection, HAVING or ORDER BY).
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(SelectItem::is_aggregate)
            || !self.having.is_empty()
            || matches!(self.order_by, Some(OrderSpec { key: OrderKey::Aggregate(..), .. }))
    }

    /// Every column referenced anywhere in the query.
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        let mut out = Vec::new();
        for item in &self.select {
            if let Some(c) = item.col {
                out.push(c);
            }
        }
        for p in self.predicates.iter().chain(&self.having) {
            if let Some(c) = p.col {
                out.push(c);
            }
        }
        out.extend(self.group_by.iter().copied());
        if let Some(OrderSpec { key, .. }) = self.order_by {
            match key {
                OrderKey::Column(c) => out.push(c),
                OrderKey::Aggregate(_, Some(c)) => out.push(c),
                OrderKey::Aggregate(_, None) => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_result_types() {
        assert_eq!(AggFunc::Count.result_type(Some(DataType::Text)), DataType::Number);
        assert_eq!(AggFunc::Min.result_type(Some(DataType::Text)), DataType::Text);
        assert_eq!(AggFunc::Avg.result_type(Some(DataType::Number)), DataType::Number);
        assert!(AggFunc::Count.allows_text_input());
        assert!(!AggFunc::Avg.allows_text_input());
    }

    #[test]
    fn cmp_op_properties() {
        assert!(CmpOp::Between.requires_ordering());
        assert!(!CmpOp::Eq.requires_ordering());
        assert_eq!(CmpOp::Ge.to_string(), ">=");
        assert_eq!(CmpOp::Like.to_string(), "LIKE");
    }

    #[test]
    fn select_item_constructors() {
        let c = ColumnId::new(0, 1);
        assert!(!SelectItem::column(c).is_aggregate());
        assert!(SelectItem::aggregate(AggFunc::Max, c).is_aggregate());
        assert!(SelectItem::count_star().is_aggregate());
        assert!(SelectItem::count_star().col.is_none());
    }

    #[test]
    fn spec_referenced_columns_and_aggregates() {
        let c0 = ColumnId::new(0, 0);
        let c1 = ColumnId::new(0, 1);
        let spec = SelectSpec {
            select: vec![SelectItem::column(c0), SelectItem::count_star()],
            group_by: vec![c0],
            having: vec![Predicate::having(AggFunc::Count, None, CmpOp::Gt, Value::int(5))],
            order_by: Some(OrderSpec { key: OrderKey::Column(c1), desc: true }),
            ..Default::default()
        };
        assert!(spec.has_aggregates());
        assert_eq!(spec.referenced_columns(), vec![c0, c1]);
    }
}
