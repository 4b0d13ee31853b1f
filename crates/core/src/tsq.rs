//! The table sketch query (TSQ).
//!
//! Paper Definition 2.3: a TSQ `T = (α, χ, τ, k)` has an optional list of type
//! annotations `α`, an optional list of example tuples `χ`, a boolean sorting
//! flag `τ`, and a limit integer `k ≥ 0` (`k = 0` meaning "no limit").
//! Example tuple cells may be *exact*, *empty* (match anything) or *range*
//! cells (Definition 2.3 / Table 2).

use duoquest_db::{DataType, Value};

/// One cell of an example tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum TsqCell {
    /// The user does not constrain this cell.
    Empty,
    /// The cell must equal this value (case-insensitive for text).
    Exact(Value),
    /// The cell must lie within this inclusive range (numeric).
    Range(Value, Value),
}

impl TsqCell {
    /// An exact text cell.
    pub fn text(s: impl Into<String>) -> Self {
        TsqCell::Exact(Value::text(s))
    }

    /// An exact numeric cell.
    pub fn number(n: impl Into<f64>) -> Self {
        TsqCell::Exact(Value::Number(n.into()))
    }

    /// A numeric range cell `[lo, hi]`.
    pub fn range(lo: impl Into<f64>, hi: impl Into<f64>) -> Self {
        TsqCell::Range(Value::Number(lo.into()), Value::Number(hi.into()))
    }

    /// Whether a concrete output value satisfies this cell.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            TsqCell::Empty => true,
            TsqCell::Exact(v) => value.sql_eq(v),
            TsqCell::Range(lo, hi) => {
                use std::cmp::Ordering::*;
                matches!(value.sql_cmp(lo), Some(Greater | Equal))
                    && matches!(value.sql_cmp(hi), Some(Less | Equal))
            }
        }
    }

    /// The data type this cell constrains its column to, if any.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            TsqCell::Empty => None,
            TsqCell::Exact(v) => v.data_type(),
            TsqCell::Range(lo, _) => lo.data_type(),
        }
    }

    /// Whether the cell imposes any constraint.
    pub fn is_constrained(&self) -> bool {
        !matches!(self, TsqCell::Empty)
    }
}

/// A table sketch query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableSketchQuery {
    /// Optional type annotations `α` for the projected columns.
    pub types: Option<Vec<DataType>>,
    /// Example tuples `χ`; every tuple must have the same width as `types`
    /// when both are provided.
    pub tuples: Vec<Vec<TsqCell>>,
    /// Sorting flag `τ`: whether the desired query has ordered results.
    pub sorted: bool,
    /// Limit `k`: `0` means no limit, otherwise the query returns at most `k` rows.
    pub limit: usize,
}

impl TableSketchQuery {
    /// An entirely empty TSQ (provides no information).
    pub fn empty() -> Self {
        TableSketchQuery::default()
    }

    /// A TSQ with only type annotations (the "Minimal" detail level of §5.4.4).
    pub fn with_types(types: Vec<DataType>) -> Self {
        TableSketchQuery { types: Some(types), ..Default::default() }
    }

    /// Builder-style: add an example tuple.
    pub fn with_tuple(mut self, tuple: Vec<TsqCell>) -> Self {
        self.tuples.push(tuple);
        self
    }

    /// Builder-style: mark the desired query as sorted.
    pub fn sorted(mut self) -> Self {
        self.sorted = true;
        self
    }

    /// Builder-style: set the limit `k`.
    pub fn with_limit(mut self, k: usize) -> Self {
        self.limit = k;
        self
    }

    /// Number of projected columns implied by the TSQ, if any.
    pub fn width(&self) -> Option<usize> {
        if let Some(t) = &self.types {
            return Some(t.len());
        }
        self.tuples.first().map(Vec::len)
    }

    /// Whether the TSQ constrains anything at all.
    pub fn is_empty(&self) -> bool {
        self.types.is_none() && self.tuples.is_empty() && !self.sorted && self.limit == 0
    }

    /// The effective type annotation of column `i`, falling back to the type
    /// implied by the example cells when no explicit annotation exists.
    pub fn column_type(&self, i: usize) -> Option<DataType> {
        if let Some(types) = &self.types {
            return types.get(i).copied();
        }
        self.tuples.iter().find_map(|t| t.get(i).and_then(TsqCell::data_type))
    }

    /// Whether a full output row satisfies example tuple `tuple_idx`
    /// (Definition 2.3: every cell must match the cell of the same index).
    pub fn row_satisfies_tuple(&self, tuple_idx: usize, row: &[Value]) -> bool {
        let Some(tuple) = self.tuples.get(tuple_idx) else { return true };
        tuple.iter().zip(row.iter()).all(|(cell, value)| cell.matches(value))
    }

    /// The example TSQ of the paper's Table 2 (Kevin's movie query), useful in
    /// examples and tests.
    pub fn paper_example() -> Self {
        TableSketchQuery {
            types: Some(vec![DataType::Text, DataType::Text, DataType::Number]),
            tuples: vec![
                vec![TsqCell::text("Forrest Gump"), TsqCell::text("Tom Hanks"), TsqCell::Empty],
                vec![
                    TsqCell::text("Gravity"),
                    TsqCell::text("Sandra Bullock"),
                    TsqCell::range(2010, 2017),
                ],
            ],
            sorted: false,
            limit: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_matching() {
        assert!(TsqCell::Empty.matches(&Value::text("anything")));
        assert!(TsqCell::text("Tom Hanks").matches(&Value::text("tom hanks")));
        assert!(!TsqCell::text("Tom Hanks").matches(&Value::text("Brad Pitt")));
        assert!(TsqCell::range(2010, 2017).matches(&Value::int(2013)));
        assert!(!TsqCell::range(2010, 2017).matches(&Value::int(2018)));
        assert!(!TsqCell::range(2010, 2017).matches(&Value::text("2013")));
    }

    #[test]
    fn cell_types_and_constraints() {
        assert_eq!(TsqCell::text("x").data_type(), Some(DataType::Text));
        assert_eq!(TsqCell::number(3).data_type(), Some(DataType::Number));
        assert_eq!(TsqCell::Empty.data_type(), None);
        assert!(TsqCell::number(1).is_constrained());
        assert!(!TsqCell::Empty.is_constrained());
    }

    #[test]
    fn width_and_column_types() {
        let tsq = TableSketchQuery::paper_example();
        assert_eq!(tsq.width(), Some(3));
        assert_eq!(tsq.column_type(0), Some(DataType::Text));
        assert_eq!(tsq.column_type(2), Some(DataType::Number));
        assert!(!tsq.is_empty());
        assert!(!tsq.sorted);
        assert_eq!(tsq.limit, 0);
    }

    #[test]
    fn width_from_tuples_when_no_types() {
        let tsq =
            TableSketchQuery::empty().with_tuple(vec![TsqCell::text("a"), TsqCell::number(1)]);
        assert_eq!(tsq.width(), Some(2));
        assert_eq!(tsq.column_type(1), Some(DataType::Number));
        assert_eq!(tsq.column_type(0), Some(DataType::Text));
    }

    #[test]
    fn row_satisfaction() {
        let tsq = TableSketchQuery::paper_example();
        assert!(tsq.row_satisfies_tuple(
            0,
            &[Value::text("Forrest Gump"), Value::text("Tom Hanks"), Value::int(1994)]
        ));
        assert!(!tsq.row_satisfies_tuple(
            1,
            &[Value::text("Gravity"), Value::text("Sandra Bullock"), Value::int(2020)]
        ));
    }

    #[test]
    fn empty_tsq_detection() {
        assert!(TableSketchQuery::empty().is_empty());
        assert!(!TableSketchQuery::empty().sorted().is_empty());
        assert!(!TableSketchQuery::empty().with_limit(3).is_empty());
        assert_eq!(TableSketchQuery::empty().width(), None);
    }
}
