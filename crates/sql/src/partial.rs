//! Partial queries: the unit of enumeration in GPQE.
//!
//! Paper Definition 3.1: *"A partial query (PQ) is a SQL query in which a query
//! element (i.e. SQL query, clause, expression, column reference, aggregate
//! function, or constant) may be replaced by a placeholder."*
//!
//! [`PartialQuery`] mirrors the decision structure of the SyntaxSQLNet-style
//! guidance modules (paper Table 3): the clause set (KW), the projected columns
//! (COL), per-projection aggregates (AGG), selection predicates (COL + OP +
//! constants), the predicate connective (AND/OR), grouping, HAVING, and the
//! ORDER BY direction plus LIMIT (DESC/ASC). The join path is attached
//! separately by progressive join path construction.
//!
//! A child differs from its parent in one decision, so the SELECT, WHERE and
//! GROUP BY lists and the HAVING and ORDER BY slots are reference-counted:
//! cloning a partial query bumps their counts, and a decision copies on write
//! (`Arc::make_mut`) only the slot it fills. Siblings share every other slot
//! with their parent.

use crate::error::{SqlError, SqlResult};
use crate::slot::Slot;
use duoquest_db::{
    AggFunc, CmpOp, ColumnId, DataType, JoinTree, LogicalOp, OrderKey, OrderSpec, Predicate,
    Schema, SelectItem, SelectSpec, Value,
};
use std::sync::Arc;

/// Which optional clauses are present in the query (the KW module's output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClauseSet {
    /// `WHERE` clause present.
    pub where_clause: bool,
    /// `GROUP BY` clause present.
    pub group_by: bool,
    /// `ORDER BY` clause present.
    pub order_by: bool,
}

impl ClauseSet {
    /// All eight possible clause combinations, simplest first.
    pub fn all() -> Vec<ClauseSet> {
        let mut out = Vec::with_capacity(8);
        for bits in 0..8u8 {
            out.push(ClauseSet {
                where_clause: bits & 1 != 0,
                group_by: bits & 2 != 0,
                order_by: bits & 4 != 0,
            });
        }
        out
    }

    /// Number of optional clauses present.
    pub fn count(&self) -> usize {
        self.where_clause as usize + self.group_by as usize + self.order_by as usize
    }
}

/// A projected column: either a concrete column or `*` (only under `COUNT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectColumn {
    /// `*`, only valid when aggregated with `COUNT`.
    Star,
    /// A concrete schema column.
    Column(ColumnId),
}

/// One projected item of a partial query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialSelectItem {
    /// The projected column (COL module decision).
    pub col: Slot<SelectColumn>,
    /// The aggregate applied to it, `None` for a bare column (AGG module decision).
    pub agg: Slot<Option<AggFunc>>,
}

impl PartialSelectItem {
    /// A fresh item with the column decided and the aggregate still open.
    pub fn with_column(col: SelectColumn) -> Self {
        PartialSelectItem { col: Slot::Filled(col), agg: Slot::Hole }
    }

    /// Whether both decisions have been made.
    pub fn is_complete(&self) -> bool {
        self.col.is_filled() && self.agg.is_filled()
    }

    /// Output type of the item against a schema, if decidable from the filled parts.
    pub fn output_type(&self, schema: &Schema) -> Option<DataType> {
        match (self.agg.as_ref(), self.col.as_ref()) {
            (Some(Some(agg)), Some(SelectColumn::Column(c))) => {
                Some(agg.result_type(Some(schema.column(*c).dtype)))
            }
            (Some(Some(agg)), Some(SelectColumn::Star)) => Some(agg.result_type(None)),
            (Some(None), Some(SelectColumn::Column(c))) => Some(schema.column(*c).dtype),
            // An undecided aggregate over a numeric column is still numeric;
            // over a text column the type depends on the aggregate choice.
            (None, Some(SelectColumn::Column(c))) => {
                let dt = schema.column(*c).dtype;
                if dt == DataType::Number {
                    Some(DataType::Number)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// One selection predicate of a partial query (`WHERE` position).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialPredicate {
    /// Compared column.
    pub col: Slot<ColumnId>,
    /// Comparison operator (OP module decision).
    pub op: Slot<CmpOp>,
    /// Right-hand constant, bound from the NLQ's tagged literals.
    pub value: Slot<Value>,
    /// Upper bound for `BETWEEN`.
    pub value2: Option<Value>,
}

impl PartialPredicate {
    /// A predicate with only the column decided.
    pub fn with_column(col: ColumnId) -> Self {
        PartialPredicate { col: Slot::Filled(col), op: Slot::Hole, value: Slot::Hole, value2: None }
    }

    /// Whether all parts are decided.
    pub fn is_complete(&self) -> bool {
        self.col.is_filled() && self.op.is_filled() && self.value.is_filled()
    }

    /// Lower to an executable predicate (requires completeness).
    pub fn to_predicate(&self) -> SqlResult<Predicate> {
        let col =
            *self.col.as_ref().ok_or_else(|| SqlError::Incomplete("predicate column".into()))?;
        let op =
            *self.op.as_ref().ok_or_else(|| SqlError::Incomplete("predicate operator".into()))?;
        let value = self
            .value
            .as_ref()
            .ok_or_else(|| SqlError::Incomplete("predicate value".into()))?
            .clone();
        Ok(Predicate { agg: None, col: Some(col), op, value, value2: self.value2.clone() })
    }
}

/// A HAVING predicate of a partial query (always aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialHaving {
    /// Aggregate function.
    pub agg: Slot<AggFunc>,
    /// Aggregated column; `None` means `COUNT(*)`.
    pub col: Slot<Option<ColumnId>>,
    /// Comparison operator.
    pub op: Slot<CmpOp>,
    /// Right-hand constant.
    pub value: Slot<Value>,
}

impl PartialHaving {
    /// Whether all parts are decided.
    pub fn is_complete(&self) -> bool {
        self.agg.is_filled()
            && self.col.is_filled()
            && self.op.is_filled()
            && self.value.is_filled()
    }

    /// Lower to an executable HAVING predicate.
    pub fn to_predicate(&self) -> SqlResult<Predicate> {
        Ok(Predicate {
            agg: Some(*self.agg.as_ref().ok_or_else(|| SqlError::Incomplete("having agg".into()))?),
            col: *self.col.as_ref().ok_or_else(|| SqlError::Incomplete("having column".into()))?,
            op: *self.op.as_ref().ok_or_else(|| SqlError::Incomplete("having op".into()))?,
            value: self
                .value
                .as_ref()
                .ok_or_else(|| SqlError::Incomplete("having value".into()))?
                .clone(),
            value2: None,
        })
    }
}

/// ORDER BY direction, key and LIMIT (the DESC/ASC+LIMIT module decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialOrder {
    /// Sort key.
    pub key: Slot<OrderKey>,
    /// Direction: descending if true.
    pub desc: Slot<bool>,
    /// Optional LIMIT (None = no limit).
    pub limit: Slot<Option<usize>>,
}

impl PartialOrder {
    /// Whether all parts are decided.
    pub fn is_complete(&self) -> bool {
        self.key.is_filled() && self.desc.is_filled() && self.limit.is_filled()
    }
}

/// A partial SPJA query: every clause may still contain placeholders.
///
/// The list slots and the HAVING / ORDER BY slots hold `Arc`s, so a clone
/// shares them (see the module docs); write through `Arc::make_mut`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialQuery {
    /// Which optional clauses are present (KW module decision).
    pub clauses: Slot<ClauseSet>,
    /// Projected items; the outer slot is a hole until the COL module decides
    /// the projection list.
    pub select: Slot<Arc<[PartialSelectItem]>>,
    /// Whether duplicates are removed.
    pub distinct: bool,
    /// The join path, attached by progressive join path construction.
    pub join: Option<JoinTree>,
    /// WHERE predicates; hole until the predicate column list is decided.
    pub where_predicates: Slot<Arc<[PartialPredicate]>>,
    /// Connective between WHERE predicates (AND/OR module decision).
    pub where_op: Slot<LogicalOp>,
    /// GROUP BY columns.
    pub group_by: Slot<Arc<[ColumnId]>>,
    /// Optional HAVING predicate (HAVING module decision).
    pub having: Slot<Option<Arc<PartialHaving>>>,
    /// Optional ORDER BY specification.
    pub order_by: Slot<Option<Arc<PartialOrder>>>,
}

impl PartialQuery {
    /// The completely empty partial query (the root of the search space).
    pub fn empty() -> Self {
        PartialQuery::default()
    }

    /// Whether every decision required by the chosen clause set has been made.
    pub fn is_complete(&self) -> bool {
        let Some(clauses) = self.clauses.as_ref() else { return false };
        let Some(select) = self.select.as_ref() else { return false };
        if select.is_empty() || !select.iter().all(PartialSelectItem::is_complete) {
            return false;
        }
        if self.join.is_none() {
            return false;
        }
        if clauses.where_clause {
            let Some(preds) = self.where_predicates.as_ref() else { return false };
            if preds.is_empty() || !preds.iter().all(PartialPredicate::is_complete) {
                return false;
            }
            if preds.len() > 1 && !self.where_op.is_filled() {
                return false;
            }
        }
        if clauses.group_by {
            let Some(group) = self.group_by.as_ref() else { return false };
            if group.is_empty() {
                return false;
            }
            match self.having.as_ref() {
                None => return false,
                Some(Some(h)) if !h.is_complete() => return false,
                _ => {}
            }
        }
        if clauses.order_by {
            match self.order_by.as_ref() {
                None | Some(None) => return false,
                Some(Some(o)) if !o.is_complete() => return false,
                _ => {}
            }
        }
        true
    }

    /// Filled projected columns so far (ignoring holes), used for join path
    /// construction and column-wise verification. Sorted and distinct.
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        let mut out = Vec::new();
        self.for_each_referenced_column(|c| out.push(c));
        out.sort();
        out.dedup();
        out
    }

    /// Visit every filled column reference in clause order — the columns of
    /// [`PartialQuery::referenced_columns`] before sorting, repeats included —
    /// without allocating.
    pub fn for_each_referenced_column(&self, mut visit: impl FnMut(ColumnId)) {
        if let Some(items) = self.select.as_ref() {
            for it in items.iter() {
                if let Some(SelectColumn::Column(c)) = it.col.as_ref() {
                    visit(*c);
                }
            }
        }
        if let Some(preds) = self.where_predicates.as_ref() {
            for p in preds.iter() {
                if let Some(c) = p.col.as_ref() {
                    visit(*c);
                }
            }
        }
        if let Some(group) = self.group_by.as_ref() {
            group.iter().copied().for_each(&mut visit);
        }
        if let Some(Some(h)) = self.having.as_ref() {
            if let Some(Some(c)) = h.col.as_ref() {
                visit(*c);
            }
        }
        if let Some(Some(o)) = self.order_by.as_ref() {
            match o.key.as_ref() {
                Some(OrderKey::Column(c)) | Some(OrderKey::Aggregate(_, Some(c))) => visit(*c),
                _ => {}
            }
        }
    }

    /// Whether any filled projection carries an aggregate.
    pub fn has_aggregate_projection(&self) -> bool {
        self.select
            .as_ref()
            .map(|items| items.iter().any(|i| matches!(i.agg.as_ref(), Some(Some(_)))))
            .unwrap_or(false)
    }

    /// Whether the WHERE and GROUP BY clauses have no remaining holes, which is
    /// the precondition for row-wise verification of aggregated projections
    /// (paper §3.4, `CanCheckRows`).
    pub fn where_and_group_complete(&self) -> bool {
        let Some(clauses) = self.clauses.as_ref() else { return false };
        if clauses.where_clause {
            match self.where_predicates.as_ref() {
                Some(preds)
                    if !preds.is_empty() && preds.iter().all(PartialPredicate::is_complete) => {}
                _ => return false,
            }
        }
        if clauses.group_by {
            match self.group_by.as_ref() {
                Some(group) if !group.is_empty() => {}
                _ => return false,
            }
        }
        true
    }

    /// Lower a complete partial query to an executable [`SelectSpec`].
    pub fn to_spec(&self) -> SqlResult<SelectSpec> {
        if !self.is_complete() {
            return Err(SqlError::Incomplete("query still contains placeholders".into()));
        }
        let clauses = *self.clauses.as_ref().expect("checked by is_complete");
        let select_items = self.select.as_ref().expect("checked");
        let mut select = Vec::with_capacity(select_items.len());
        for it in select_items.iter() {
            let agg = *it.agg.as_ref().expect("checked");
            match it.col.as_ref().expect("checked") {
                SelectColumn::Star => {
                    if agg != Some(AggFunc::Count) {
                        return Err(SqlError::Unsupported("`*` requires COUNT".into()));
                    }
                    select.push(SelectItem::count_star());
                }
                SelectColumn::Column(c) => select.push(SelectItem { agg, col: Some(*c) }),
            }
        }
        let mut predicates = Vec::new();
        if clauses.where_clause {
            for p in self.where_predicates.as_ref().expect("checked").iter() {
                predicates.push(p.to_predicate()?);
            }
        }
        let mut having = Vec::new();
        let mut group_by = Vec::new();
        if clauses.group_by {
            group_by = self.group_by.as_ref().expect("checked").to_vec();
            if let Some(h) = self.having.as_ref().expect("checked") {
                having.push(h.to_predicate()?);
            }
        }
        let (order_by, limit) = if clauses.order_by {
            let o = self.order_by.as_ref().expect("checked").as_ref().expect("checked");
            (
                Some(OrderSpec {
                    key: *o.key.as_ref().expect("checked"),
                    desc: *o.desc.as_ref().expect("checked"),
                }),
                *o.limit.as_ref().expect("checked"),
            )
        } else {
            (None, None)
        };
        Ok(SelectSpec {
            select,
            distinct: self.distinct,
            join: self.join.clone().ok_or_else(|| SqlError::Incomplete("join path".into()))?,
            predicates,
            predicate_op: *self.where_op.as_ref().unwrap_or(&LogicalOp::And),
            group_by,
            having,
            order_by,
            limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnDef, TableDef};

    fn schema() -> Schema {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s
    }

    fn name_col(s: &Schema) -> ColumnId {
        s.column_id("movies", "name").unwrap()
    }

    fn year_col(s: &Schema) -> ColumnId {
        s.column_id("movies", "year").unwrap()
    }

    #[test]
    fn clause_set_enumeration() {
        let all = ClauseSet::all();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0].count(), 0);
        assert_eq!(all[7].count(), 3);
    }

    #[test]
    fn empty_query_is_incomplete() {
        let q = PartialQuery::empty();
        assert!(!q.is_complete());
        assert!(q.referenced_columns().is_empty());
        assert!(q.to_spec().is_err());
    }

    #[test]
    fn select_item_output_types() {
        let s = schema();
        let item = PartialSelectItem {
            col: Slot::Filled(SelectColumn::Column(name_col(&s))),
            agg: Slot::Filled(None),
        };
        assert_eq!(item.output_type(&s), Some(DataType::Text));
        let counted = PartialSelectItem {
            col: Slot::Filled(SelectColumn::Star),
            agg: Slot::Filled(Some(AggFunc::Count)),
        };
        assert_eq!(counted.output_type(&s), Some(DataType::Number));
        let undecided_agg_text = PartialSelectItem {
            col: Slot::Filled(SelectColumn::Column(name_col(&s))),
            agg: Slot::Hole,
        };
        assert_eq!(undecided_agg_text.output_type(&s), None);
        let undecided_agg_num = PartialSelectItem {
            col: Slot::Filled(SelectColumn::Column(year_col(&s))),
            agg: Slot::Hole,
        };
        assert_eq!(undecided_agg_num.output_type(&s), Some(DataType::Number));
    }

    fn complete_query(s: &Schema) -> PartialQuery {
        PartialQuery {
            clauses: Slot::Filled(ClauseSet { where_clause: true, ..Default::default() }),
            select: Slot::Filled(
                vec![PartialSelectItem {
                    col: Slot::Filled(SelectColumn::Column(name_col(s))),
                    agg: Slot::Filled(None),
                }]
                .into(),
            ),
            distinct: false,
            join: Some(JoinTree::single(s.table_id("movies").unwrap())),
            where_predicates: Slot::Filled(
                vec![PartialPredicate {
                    col: Slot::Filled(year_col(s)),
                    op: Slot::Filled(CmpOp::Lt),
                    value: Slot::Filled(Value::int(1995)),
                    value2: None,
                }]
                .into(),
            ),
            where_op: Slot::Filled(LogicalOp::And),
            group_by: Slot::Hole,
            having: Slot::Hole,
            order_by: Slot::Hole,
        }
    }

    #[test]
    fn completeness_and_lowering() {
        let s = schema();
        let q = complete_query(&s);
        assert!(q.is_complete());
        let spec = q.to_spec().unwrap();
        assert_eq!(spec.select.len(), 1);
        assert_eq!(spec.predicates.len(), 1);
        assert_eq!(spec.predicates[0].op, CmpOp::Lt);
    }

    #[test]
    fn missing_predicate_value_blocks_completion() {
        let s = schema();
        let mut q = complete_query(&s);
        if let Slot::Filled(preds) = &mut q.where_predicates {
            Arc::make_mut(preds)[0].value = Slot::Hole;
        }
        assert!(!q.is_complete());
        assert!(!q.where_and_group_complete());
    }

    #[test]
    fn group_by_requires_having_decision() {
        let s = schema();
        let mut q = complete_query(&s);
        q.clauses = Slot::Filled(ClauseSet { where_clause: true, group_by: true, order_by: false });
        q.group_by = Slot::Filled(vec![name_col(&s)].into());
        // HAVING decision not yet made.
        assert!(!q.is_complete());
        q.having = Slot::Filled(None);
        assert!(q.is_complete());
    }

    #[test]
    fn order_by_requires_full_decision() {
        let s = schema();
        let mut q = complete_query(&s);
        q.clauses = Slot::Filled(ClauseSet { where_clause: true, group_by: false, order_by: true });
        assert!(!q.is_complete());
        q.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(OrderKey::Column(year_col(&s))),
                desc: Slot::Filled(false),
                limit: Slot::Hole,
            }
            .into(),
        ));
        assert!(!q.is_complete());
        q.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(OrderKey::Column(year_col(&s))),
                desc: Slot::Filled(false),
                limit: Slot::Filled(None),
            }
            .into(),
        ));
        assert!(q.is_complete());
        let spec = q.to_spec().unwrap();
        assert!(spec.order_by.is_some());
        assert_eq!(spec.limit, None);
    }

    #[test]
    fn referenced_columns_collects_all_clauses() {
        let s = schema();
        let mut q = complete_query(&s);
        q.group_by = Slot::Filled(vec![name_col(&s)].into());
        let cols = q.referenced_columns();
        assert!(cols.contains(&name_col(&s)));
        assert!(cols.contains(&year_col(&s)));

        // The visitor sees the same columns in clause order, repeats kept:
        // the projected `name` first, and again from GROUP BY.
        let mut visited = Vec::new();
        q.for_each_referenced_column(|c| visited.push(c));
        assert_eq!(visited.first(), Some(&name_col(&s)));
        assert!(visited.len() > cols.len());
        visited.sort();
        visited.dedup();
        assert_eq!(visited, cols);
    }

    #[test]
    fn aggregate_projection_detection() {
        let s = schema();
        let mut q = complete_query(&s);
        assert!(!q.has_aggregate_projection());
        if let Slot::Filled(items) = &mut q.select {
            let counted = PartialSelectItem {
                col: Slot::Filled(SelectColumn::Star),
                agg: Slot::Filled(Some(AggFunc::Count)),
            };
            *items = items.iter().copied().chain([counted]).collect();
        }
        assert!(q.has_aggregate_projection());
    }

    #[test]
    fn star_without_count_rejected() {
        let s = schema();
        let mut q = complete_query(&s);
        if let Slot::Filled(items) = &mut q.select {
            Arc::make_mut(items)[0] = PartialSelectItem {
                col: Slot::Filled(SelectColumn::Star),
                agg: Slot::Filled(Some(AggFunc::Max)),
            };
        }
        assert!(q.to_spec().is_err());
    }
}
