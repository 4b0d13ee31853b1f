//! SQL rendering of complete and partial queries.
//!
//! The candidate list shown to Duoquest users displays each candidate as SQL
//! text; partial queries are rendered with `?` placeholders exactly like the
//! paper's Figure 2.

use crate::partial::{PartialQuery, SelectColumn};
use crate::slot::Slot;
use duoquest_db::{
    CmpOp, JoinTree, LogicalOp, OrderKey, Predicate, Schema, SelectItem, SelectSpec,
};

/// Render a complete query as SQL text.
pub fn render_sql(spec: &SelectSpec, schema: &Schema) -> String {
    let mut out = String::from("SELECT ");
    if spec.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = spec.select.iter().map(|i| render_item(i, schema)).collect();
    out.push_str(&items.join(", "));
    out.push_str(" FROM ");
    out.push_str(&render_join(&spec.join, schema));
    if !spec.predicates.is_empty() {
        out.push_str(" WHERE ");
        let preds: Vec<String> =
            spec.predicates.iter().map(|p| render_predicate(p, schema)).collect();
        out.push_str(&preds.join(&format!(" {} ", render_logical(spec.predicate_op))));
    }
    if !spec.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        let cols: Vec<String> = spec.group_by.iter().map(|c| schema.qualified_name(*c)).collect();
        out.push_str(&cols.join(", "));
    }
    if !spec.having.is_empty() {
        out.push_str(" HAVING ");
        let preds: Vec<String> = spec.having.iter().map(|p| render_predicate(p, schema)).collect();
        out.push_str(&preds.join(" AND "));
    }
    if let Some(order) = &spec.order_by {
        out.push_str(" ORDER BY ");
        out.push_str(&render_order_key(&order.key, schema));
        out.push_str(if order.desc { " DESC" } else { " ASC" });
    }
    if let Some(limit) = spec.limit {
        out.push_str(&format!(" LIMIT {limit}"));
    }
    out
}

/// Render a partial query as SQL text with `?` placeholders.
pub fn render_partial(pq: &PartialQuery, schema: &Schema) -> String {
    let mut out = String::from("SELECT ");
    if pq.distinct {
        out.push_str("DISTINCT ");
    }
    match &pq.select {
        Slot::Hole => out.push('?'),
        Slot::Filled(items) => {
            let rendered: Vec<String> = items
                .iter()
                .map(|it| {
                    let col = match it.col.as_ref() {
                        None => "?".to_string(),
                        Some(SelectColumn::Star) => "*".to_string(),
                        Some(SelectColumn::Column(c)) => schema.qualified_name(*c),
                    };
                    match it.agg.as_ref() {
                        None => format!("?({col})"),
                        Some(None) => col,
                        Some(Some(agg)) => format!("{agg}({col})"),
                    }
                })
                .collect();
            out.push_str(&rendered.join(", "));
        }
    }
    out.push_str(" FROM ");
    match &pq.join {
        None => out.push('?'),
        Some(join) => out.push_str(&render_join(join, schema)),
    }
    let clauses = pq.clauses.as_ref();
    if clauses.map(|c| c.where_clause).unwrap_or(false) {
        out.push_str(" WHERE ");
        match &pq.where_predicates {
            Slot::Hole => out.push('?'),
            Slot::Filled(preds) => {
                let conj = match pq.where_op.as_ref() {
                    Some(op) => render_logical(*op).to_string(),
                    None => "?".to_string(),
                };
                let rendered: Vec<String> = preds
                    .iter()
                    .map(|p| {
                        let col = p
                            .col
                            .as_ref()
                            .map(|c| schema.qualified_name(*c))
                            .unwrap_or_else(|| "?".into());
                        let op = p.op.as_ref().map(|o| o.to_string()).unwrap_or_else(|| "?".into());
                        let value =
                            p.value.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "?".into());
                        if p.op.as_ref() == Some(&CmpOp::Between) {
                            let hi = p
                                .value2
                                .as_ref()
                                .map(|v| v.to_string())
                                .unwrap_or_else(|| "?".into());
                            format!("{col} BETWEEN {value} AND {hi}")
                        } else {
                            format!("{col} {op} {value}")
                        }
                    })
                    .collect();
                out.push_str(&rendered.join(&format!(" {conj} ")));
            }
        }
    } else if clauses.is_none() {
        out.push_str(" ?");
    }
    if clauses.map(|c| c.group_by).unwrap_or(false) {
        out.push_str(" GROUP BY ");
        match &pq.group_by {
            Slot::Hole => out.push('?'),
            Slot::Filled(cols) => {
                let rendered: Vec<String> =
                    cols.iter().map(|c| schema.qualified_name(*c)).collect();
                out.push_str(&rendered.join(", "));
            }
        }
        if let Some(Some(h)) = pq.having.as_ref() {
            let agg = h.agg.as_ref().map(|a| a.to_string()).unwrap_or_else(|| "?".into());
            let col = match h.col.as_ref() {
                None => "?".to_string(),
                Some(None) => "*".to_string(),
                Some(Some(c)) => schema.qualified_name(*c),
            };
            let op = h.op.as_ref().map(|o| o.to_string()).unwrap_or_else(|| "?".into());
            let value = h.value.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "?".into());
            out.push_str(&format!(" HAVING {agg}({col}) {op} {value}"));
        }
    }
    if clauses.map(|c| c.order_by).unwrap_or(false) {
        out.push_str(" ORDER BY ");
        match pq.order_by.as_ref() {
            None | Some(None) => out.push('?'),
            Some(Some(o)) => {
                match o.key.as_ref() {
                    None => out.push('?'),
                    Some(k) => out.push_str(&render_order_key(k, schema)),
                }
                match o.desc.as_ref() {
                    None => out.push_str(" ?"),
                    Some(true) => out.push_str(" DESC"),
                    Some(false) => out.push_str(" ASC"),
                }
                if let Some(Some(limit)) = o.limit.as_ref() {
                    out.push_str(&format!(" LIMIT {limit}"));
                }
            }
        }
    }
    out
}

fn render_item(item: &SelectItem, schema: &Schema) -> String {
    match (item.agg, item.col) {
        (Some(agg), Some(c)) => format!("{agg}({})", schema.qualified_name(c)),
        (Some(agg), None) => format!("{agg}(*)"),
        (None, Some(c)) => schema.qualified_name(c),
        (None, None) => "?".to_string(),
    }
}

fn render_predicate(p: &Predicate, schema: &Schema) -> String {
    let lhs = match (p.agg, p.col) {
        (Some(agg), Some(c)) => format!("{agg}({})", schema.qualified_name(c)),
        (Some(agg), None) => format!("{agg}(*)"),
        (None, Some(c)) => schema.qualified_name(c),
        (None, None) => "?".to_string(),
    };
    if p.op == CmpOp::Between {
        let hi = p.value2.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "?".into());
        format!("{lhs} BETWEEN {} AND {hi}", p.value)
    } else {
        format!("{lhs} {} {}", p.op, p.value)
    }
}

fn render_order_key(key: &OrderKey, schema: &Schema) -> String {
    match key {
        OrderKey::Column(c) => schema.qualified_name(*c),
        OrderKey::Aggregate(agg, Some(c)) => format!("{agg}({})", schema.qualified_name(*c)),
        OrderKey::Aggregate(agg, None) => format!("{agg}(*)"),
    }
}

fn render_logical(op: LogicalOp) -> &'static str {
    match op {
        LogicalOp::And => "AND",
        LogicalOp::Or => "OR",
    }
}

/// Render the FROM clause of a join tree deterministically (smallest table id
/// first, joins added in edge order).
fn render_join(join: &JoinTree, schema: &Schema) -> String {
    if join.tables.is_empty() {
        return "?".to_string();
    }
    let mut out = schema.table(join.tables[0]).name.clone();
    let mut joined = vec![join.tables[0]];
    let mut remaining = join.edges.to_vec();
    while joined.len() < join.tables.len() && !remaining.is_empty() {
        let Some(pos) = remaining.iter().position(|e| {
            let (a, b) = e.tables();
            joined.contains(&a) != joined.contains(&b)
        }) else {
            break;
        };
        let edge = remaining.remove(pos);
        let (a, b) = edge.tables();
        let new_table = if joined.contains(&a) { b } else { a };
        out.push_str(&format!(
            " JOIN {} ON {} = {}",
            schema.table(new_table).name,
            schema.qualified_name(edge.fk.from),
            schema.qualified_name(edge.fk.to)
        ));
        joined.push(new_table);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::{ClauseSet, PartialPredicate, PartialSelectItem};
    use duoquest_db::{ColumnDef, JoinGraph, Schema, TableDef, Value};

    fn schema() -> Schema {
        let mut s = Schema::new("movies");
        s.add_table(TableDef::new(
            "actor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "starring",
            vec![ColumnDef::number("aid"), ColumnDef::number("mid")],
            None,
        ));
        s.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
        s.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
        s
    }

    #[test]
    fn render_complete_query() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let join =
            g.steiner_tree(&[s.table_id("actor").unwrap(), s.table_id("movies").unwrap()]).unwrap();
        let spec = SelectSpec {
            select: vec![
                SelectItem::column(s.column_id("movies", "name").unwrap()),
                SelectItem::column(s.column_id("actor", "name").unwrap()),
            ],
            join,
            predicates: vec![Predicate::new(
                s.column_id("movies", "year").unwrap(),
                CmpOp::Lt,
                Value::int(1995),
            )],
            order_by: Some(duoquest_db::OrderSpec {
                key: OrderKey::Column(s.column_id("movies", "year").unwrap()),
                desc: false,
            }),
            ..Default::default()
        };
        let sql = render_sql(&spec, &s);
        assert!(sql.starts_with("SELECT movies.name, actor.name FROM "));
        assert!(sql.contains("JOIN"));
        assert!(sql.contains("WHERE movies.year < 1995"));
        assert!(sql.contains("ORDER BY movies.year ASC"));
    }

    #[test]
    fn render_partial_with_holes() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        let rendered = render_partial(&pq, &s);
        assert!(rendered.contains("SELECT ?"));
        assert!(rendered.contains("FROM ?"));

        pq.clauses = Slot::Filled(ClauseSet { where_clause: true, ..Default::default() });
        pq.select = Slot::Filled(
            vec![PartialSelectItem::with_column(SelectColumn::Column(
                s.column_id("movies", "name").unwrap(),
            ))]
            .into(),
        );
        pq.join = Some(JoinTree::single(s.table_id("movies").unwrap()));
        pq.where_predicates = Slot::Filled(
            vec![PartialPredicate::with_column(s.column_id("movies", "year").unwrap())].into(),
        );
        let rendered = render_partial(&pq, &s);
        assert!(rendered.contains("?(movies.name)"));
        assert!(rendered.contains("WHERE movies.year ? ?"));
    }

    #[test]
    fn render_between_and_having() {
        let s = schema();
        let spec = SelectSpec {
            select: vec![SelectItem::column(s.column_id("movies", "name").unwrap())],
            join: JoinTree::single(s.table_id("movies").unwrap()),
            predicates: vec![Predicate::between(
                s.column_id("movies", "year").unwrap(),
                Value::int(2010),
                Value::int(2017),
            )],
            group_by: vec![s.column_id("movies", "name").unwrap()],
            having: vec![Predicate::having(
                duoquest_db::AggFunc::Count,
                None,
                CmpOp::Gt,
                Value::int(5),
            )],
            ..Default::default()
        };
        let sql = render_sql(&spec, &s);
        assert!(sql.contains("BETWEEN 2010 AND 2017"));
        assert!(sql.contains("HAVING COUNT(*) > 5"));
        assert!(sql.contains("GROUP BY movies.name"));
    }
}
