//! Projected column type checks (`VerifyColumnTypes`, paper Example 3.4).
//!
//! The TSQ's type annotations are compared against the output types of the
//! projected columns. This needs schema access but no data access.

use crate::tsq::TableSketchQuery;
use duoquest_db::Schema;
use duoquest_sql::PartialQuery;

/// Whether the (partially) decided projection is compatible with the TSQ's
/// type annotations and width.
pub fn verify_column_types(schema: &Schema, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
    let Some(items) = pq.select.as_ref() else { return true };
    if let Some(width) = tsq.width() {
        if items.len() != width {
            return false;
        }
    }
    for (i, item) in items.iter().enumerate() {
        let Some(expected) = tsq.column_type(i) else { continue };
        if let Some(actual) = item.output_type(schema) {
            if actual != expected {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{AggFunc, ColumnDef, DataType, TableDef};
    use duoquest_sql::{PartialSelectItem, SelectColumn, Slot};

    fn schema() -> Schema {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "actor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name"), ColumnDef::number("birth_yr")],
            Some(0),
        ));
        s
    }

    fn item(s: &Schema, col: &str, agg: Option<AggFunc>) -> PartialSelectItem {
        PartialSelectItem {
            col: Slot::Filled(SelectColumn::Column(s.column_id("actor", col).unwrap())),
            agg: Slot::Filled(agg),
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let s = schema();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(vec![item(&s, "name", None)].into());
        assert!(!verify_column_types(&s, &tsq, &pq));
        pq.select = Slot::Filled(vec![item(&s, "name", None), item(&s, "birth_yr", None)].into());
        assert!(verify_column_types(&s, &tsq, &pq));
    }

    #[test]
    fn type_mismatch_rejected_example_3_4() {
        let s = schema();
        // α = [text, number]; CQ2-like projection of two text columns fails.
        let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(vec![item(&s, "name", None), item(&s, "name", None)].into());
        assert!(!verify_column_types(&s, &tsq, &pq));
    }

    #[test]
    fn aggregates_use_result_type() {
        let s = schema();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(
            vec![item(&s, "name", None), item(&s, "name", Some(AggFunc::Count))].into(),
        );
        assert!(verify_column_types(&s, &tsq, &pq));
    }

    #[test]
    fn undecided_projection_not_pruned() {
        let s = schema();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text]);
        assert!(verify_column_types(&s, &tsq, &PartialQuery::empty()));
        // Undecided aggregate over a text column could still be COUNT (number)
        // or bare (text), so a text annotation does not prune it.
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(
            vec![PartialSelectItem::with_column(SelectColumn::Column(
                s.column_id("actor", "name").unwrap(),
            ))]
            .into(),
        );
        assert!(verify_column_types(&s, &tsq, &pq));
    }

    #[test]
    fn no_annotations_uses_example_cell_types() {
        let s = schema();
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![crate::tsq::TsqCell::number(1956), crate::tsq::TsqCell::Empty]);
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(vec![item(&s, "name", None), item(&s, "birth_yr", None)].into());
        assert!(!verify_column_types(&s, &tsq, &pq));
        pq.select = Slot::Filled(vec![item(&s, "birth_yr", None), item(&s, "name", None)].into());
        assert!(verify_column_types(&s, &tsq, &pq));
    }
}
