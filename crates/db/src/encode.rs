//! Byte encodings of a [`SelectSpec`]: the one place a spec becomes bytes.
//!
//! The **exact** encoding (`encode_spec`, every field in declaration order)
//! keys a run's probe memo. The **canonical** key ([`canonical_key`]) is
//! candidate equivalence: `duoquest-sql`'s `queries_equivalent` and the
//! engine's dedup. Both are built from the same
//! self-delimiting primitives — sequences and text carry their length,
//! options and enums a tag byte, integers are LEB128 and numbers their 8
//! canonical bytes (`canonical_bits`: every NaN is one NaN, `-0.0` is `0.0`)
//! — so a key is a prefix code, and comparing two keys byte for byte
//! compares what they encode.

use crate::query::{AggFunc, OrderKey, Predicate, SelectItem, SelectSpec};
use crate::schema::ColumnId;
use crate::types::{canonical_bits, Value};

/// Append `n` as LEB128: seven bits a byte, low bits first, the high bit
/// set on every byte but the last. One of the encoder's primitives, public
/// for callers that build a verdict tag.
pub fn encode_uint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Append a self-delimiting encoding of `v`: a type byte, then a text's
/// length and bytes or a number's 8 canonical bytes. One of the encoder's
/// primitives, public for callers that build a verdict tag.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    value(out, v, false);
}

/// Append the exact encoding of `spec`. Two specs encode equally exactly
/// when they are equal under `SelectSpec: Eq`, which treats every NaN as one
/// and `-0.0` as `0.0`, as the canonical bits do. A run's probe memo keys
/// its answers on these bytes.
pub fn encode_spec(out: &mut Vec<u8>, spec: &SelectSpec) {
    list(out, &spec.select, select_item);
    out.push(spec.distinct as u8);
    list(out, &spec.join.tables, |out, table| encode_uint(out, table.0));
    list(out, &spec.join.edges, |out, edge| {
        column(out, &edge.fk.from);
        column(out, &edge.fk.to);
    });
    list(out, &spec.predicates, |out, p| predicate(out, p, false));
    out.push(spec.predicate_op as u8);
    list(out, &spec.group_by, column);
    list(out, &spec.having, |out, p| predicate(out, p, false));
    order_and_limit(out, spec);
}

/// The canonical key of `spec`: two queries are the same query exactly when
/// their keys are equal. The select items, tables, WHERE predicates, GROUP
/// BY columns and HAVING predicates are each a multiset, text literals are
/// ASCII-lowercased, the WHERE connective counts only between two or more
/// predicates, and ORDER BY and LIMIT count as they are. `distinct` and the
/// join edges are not encoded (the FROM clause is its set of tables). Numbers
/// fold as everywhere else, so a `-0.0` literal is the same as `0.0`.
pub fn canonical_key(spec: &SelectSpec) -> Box<[u8]> {
    let mut out = Vec::new();
    multiset(&mut out, &spec.select, select_item);
    multiset(&mut out, &spec.join.tables, |out, table| encode_uint(out, table.0));
    multiset(&mut out, &spec.predicates, |out, p| predicate(out, p, true));
    if spec.predicates.len() >= 2 {
        out.push(spec.predicate_op as u8);
    }
    multiset(&mut out, &spec.group_by, column);
    multiset(&mut out, &spec.having, |out, p| predicate(out, p, true));
    order_and_limit(&mut out, spec);
    out.into_boxed_slice()
}

/// Append `items` in order: their count, then each item's encoding.
fn list<T>(out: &mut Vec<u8>, items: &[T], encode: impl Fn(&mut Vec<u8>, &T)) {
    encode_uint(out, items.len());
    items.iter().for_each(|item| encode(out, item));
}

/// Append `items` as a multiset: [`list`]'s bytes with the items' encodings
/// sorted, so any order of the same items encodes the same.
fn multiset<T>(out: &mut Vec<u8>, items: &[T], encode: impl Fn(&mut Vec<u8>, &T)) {
    encode_uint(out, items.len());
    let start = out.len();
    let mut spans: Vec<_> = items
        .iter()
        .map(|item| {
            let from = out.len();
            encode(out, item);
            from..out.len()
        })
        .collect();
    spans.sort_by(|a, b| out[a.clone()].cmp(&out[b.clone()]));
    let end = out.len();
    spans.into_iter().for_each(|span| out.extend_from_within(span));
    out.drain(start..end);
}

fn option<T>(out: &mut Vec<u8>, v: Option<&T>, encode: impl Fn(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            encode(out, v);
        }
    }
}

/// A value's encoding; `fold` lowercases a text's ASCII letters (same
/// length, so the length prefix is the text's own).
fn value(out: &mut Vec<u8>, v: &Value, fold: bool) {
    match v {
        Value::Null => out.push(0),
        Value::Text(s) => {
            out.push(1);
            encode_uint(out, s.len());
            if fold {
                out.extend(s.bytes().map(|b| b.to_ascii_lowercase()));
            } else {
                out.extend_from_slice(s.as_bytes());
            }
        }
        Value::Number(n) => {
            out.push(2);
            out.extend_from_slice(&canonical_bits(*n).to_le_bytes());
        }
    }
}

fn column(out: &mut Vec<u8>, col: &ColumnId) {
    encode_uint(out, col.table.0);
    encode_uint(out, col.column);
}

fn agg(out: &mut Vec<u8>, agg: Option<AggFunc>) {
    out.push(agg.map_or(0, |a| a as u8 + 1));
}

fn select_item(out: &mut Vec<u8>, item: &SelectItem) {
    agg(out, item.agg);
    option(out, item.col.as_ref(), column);
}

fn predicate(out: &mut Vec<u8>, p: &Predicate, fold: bool) {
    agg(out, p.agg);
    option(out, p.col.as_ref(), column);
    out.push(p.op as u8);
    value(out, &p.value, fold);
    option(out, p.value2.as_ref(), |out, v| value(out, v, fold));
}

fn order_and_limit(out: &mut Vec<u8>, spec: &SelectSpec) {
    match spec.order_by {
        None => out.push(0),
        Some(order) => {
            out.push(1 + order.desc as u8);
            match order.key {
                OrderKey::Column(col) => {
                    out.push(0);
                    column(out, &col);
                }
                OrderKey::Aggregate(func, col) => {
                    out.push(1);
                    agg(out, Some(func));
                    option(out, col.as_ref(), column);
                }
            }
        }
    }
    option(out, spec.limit.as_ref(), |out, &n| encode_uint(out, n));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::join_graph::{JoinEdge, JoinTree};
    use crate::query::{CmpOp, LogicalOp, OrderSpec};
    use crate::schema::{ForeignKey, TableId};

    /// A deterministic stream of specs drawn from a few values per field, so
    /// equal specs recur and distinct ones differ in every field somewhere:
    /// numbers include both zeros and two NaN payloads, text includes the
    /// encoder's own tag and length bytes, and column ids cross the one-byte
    /// LEB128 boundary.
    pub(crate) fn generated_specs(n: usize) -> Vec<SelectSpec> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut pick = move |k: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k as u64) as usize
        };
        let values = [
            Value::Null,
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Number(f64::NAN),
            Value::Number(f64::from_bits(f64::NAN.to_bits() | 1)),
            Value::Number(1.0),
            Value::text(""),
            Value::text("a"),
            Value::text("\u{1}\u{1}a"),
            Value::text("\0\u{2}"),
        ];
        let col = |i: usize| ColumnId::new([0, 1, 127, 128, 300][i % 5], i / 5);
        let aggs = [None, Some(AggFunc::Count), Some(AggFunc::Max)];
        let ops = [CmpOp::Eq, CmpOp::Like, CmpOp::Between];
        (0..n)
            .map(|_| {
                let predicates = |pick: &mut dyn FnMut(usize) -> usize| -> Vec<Predicate> {
                    (0..pick(3))
                        .map(|_| Predicate {
                            agg: aggs[pick(3)],
                            col: [None, Some(col(pick(10)))][pick(2)],
                            op: ops[pick(3)],
                            value: values[pick(values.len())].clone(),
                            value2: (pick(2) == 1).then(|| values[pick(values.len())].clone()),
                        })
                        .collect()
                };
                let select = (0..pick(3))
                    .map(|_| SelectItem {
                        agg: aggs[pick(3)],
                        col: [None, Some(col(pick(10)))][pick(2)],
                    })
                    .collect();
                let tables: Vec<TableId> = (0..1 + pick(2)).map(|_| TableId(pick(3))).collect();
                let edges: Vec<JoinEdge> = (0..pick(2))
                    .map(|_| JoinEdge { fk: ForeignKey { from: col(pick(10)), to: col(pick(10)) } })
                    .collect();
                let where_ = predicates(&mut pick);
                let having = predicates(&mut pick);
                SelectSpec {
                    select,
                    distinct: pick(2) == 1,
                    join: JoinTree { tables: tables.into(), edges: edges.into() },
                    predicates: where_,
                    predicate_op: [LogicalOp::And, LogicalOp::Or][pick(2)],
                    group_by: (0..pick(2)).map(|_| col(pick(10))).collect(),
                    having,
                    order_by: [
                        None,
                        Some(OrderSpec {
                            key: OrderKey::Column(col(pick(10))),
                            desc: pick(2) == 1,
                        }),
                        Some(OrderSpec {
                            key: OrderKey::Aggregate(AggFunc::Count, [None, Some(col(0))][pick(2)]),
                            desc: pick(2) == 1,
                        }),
                    ][pick(3)],
                    limit: [None, Some(0), Some(1), Some(200)][pick(4)],
                }
            })
            .collect()
    }

    /// An equal spec built from other bits: every zero's sign flipped, every
    /// NaN's payload changed, the join tree's slices freshly allocated.
    pub(crate) fn twin(spec: &SelectSpec) -> SelectSpec {
        let flip = |v: &mut Value| {
            if let Value::Number(n) = v {
                if *n == 0.0 {
                    *n = -*n;
                } else if n.is_nan() {
                    *n = f64::from_bits(n.to_bits() ^ 2);
                }
            }
        };
        let mut twin = spec.clone();
        for p in twin.predicates.iter_mut().chain(&mut twin.having) {
            flip(&mut p.value);
            p.value2.iter_mut().for_each(flip);
        }
        twin.join = JoinTree {
            tables: spec.join.tables.to_vec().into(),
            edges: spec.join.edges.to_vec().into(),
        };
        twin
    }

    /// `spec` in the form equivalence compares, built field by field: every
    /// number folded (one NaN, `-0.0` as `0.0`) and every text lowercased,
    /// then the select items, tables, predicates, GROUP BY columns and HAVING
    /// predicates sorted, `distinct` and the join edges cleared, and the
    /// connective cleared below two predicates. After folding, equal items
    /// print equally, so sorting by their `Debug` text is a canonical order.
    fn normalised(spec: &SelectSpec) -> SelectSpec {
        fn fold(v: &mut Value) {
            match v {
                Value::Number(n) if n.is_nan() => *n = f64::NAN,
                Value::Number(n) => *n += 0.0,
                Value::Text(s) => s.make_ascii_lowercase(),
                Value::Null => {}
            }
        }
        fn sort<T: std::fmt::Debug>(items: &mut [T]) {
            items.sort_by_cached_key(|item| format!("{item:?}"));
        }
        let mut n = spec.clone();
        for p in n.predicates.iter_mut().chain(&mut n.having) {
            fold(&mut p.value);
            p.value2.iter_mut().for_each(fold);
        }
        let mut tables = n.join.tables.to_vec();
        sort(&mut tables);
        n.join = JoinTree { tables: tables.into(), edges: Vec::new().into() };
        sort(&mut n.select);
        sort(&mut n.predicates);
        sort(&mut n.group_by);
        sort(&mut n.having);
        n.distinct = false;
        if n.predicates.len() < 2 {
            n.predicate_op = LogicalOp::And;
        }
        n
    }

    /// A spec equivalent to `spec` that differs from it wherever equivalence
    /// allows: numbers flipped ([`twin`]), every list reversed, text
    /// upper-cased, `distinct` flipped, the join edges replaced and, below
    /// two predicates, the connective flipped.
    fn variant(spec: &SelectSpec) -> SelectSpec {
        let mut v = twin(spec);
        v.select.reverse();
        v.predicates.reverse();
        v.group_by.reverse();
        v.having.reverse();
        let mut tables = v.join.tables.to_vec();
        tables.reverse();
        let col = ColumnId::new(9, 9);
        v.join = JoinTree {
            tables: tables.into(),
            edges: vec![JoinEdge { fk: ForeignKey { from: col, to: col } }].into(),
        };
        for p in v.predicates.iter_mut().chain(&mut v.having) {
            for value in std::iter::once(&mut p.value).chain(&mut p.value2) {
                if let Value::Text(s) = value {
                    s.make_ascii_uppercase();
                }
            }
        }
        v.distinct = !v.distinct;
        if v.predicates.len() < 2 {
            v.predicate_op = match v.predicate_op {
                LogicalOp::And => LogicalOp::Or,
                LogicalOp::Or => LogicalOp::And,
            };
        }
        v
    }

    #[test]
    fn canonical_keys_are_equal_exactly_when_normalised_specs_are() {
        let base = generated_specs(400);
        let mut specs = base.clone();
        specs.extend(base.iter().map(variant));
        let keys: Vec<_> = specs.iter().map(canonical_key).collect();
        let normal: Vec<_> = specs.iter().map(normalised).collect();
        let (mut pairs, mut equivalent, mut unequal_but_equivalent) = (0, 0, 0);
        for i in 0..specs.len() {
            assert_eq!(keys[i], canonical_key(&specs[i].clone()), "deterministic");
            for j in i + 1..specs.len() {
                let same = normal[i] == normal[j];
                assert_eq!(keys[i] == keys[j], same, "{:?}\n{:?}", specs[i], specs[j]);
                pairs += 1;
                equivalent += same as usize;
                unequal_but_equivalent += (same && specs[i] != specs[j]) as usize;
            }
        }
        println!(
            "{pairs} pairs, {equivalent} equivalent, {unequal_but_equivalent} of them unequal"
        );
        assert!(unequal_but_equivalent >= base.len(), "every variant is equivalent to its base");
    }
}
