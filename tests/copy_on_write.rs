//! A child is its parent plus one decision, and siblings share their
//! parent's slots: the list, HAVING and ORDER BY slots of a `PartialQuery`
//! are `Arc`s, and `apply` copies on write only the slot its decision fills.
//! Over states walked from the root on generated Spider tasks and the MAS
//! study tasks, every decision of `next_decisions` is applied to a clone of
//! its parent, and:
//!
//! * the parent still equals a deep snapshot taken before, so no write went
//!   through an `Arc` the parent shares with its children;
//! * every child keeps each filled slot of its parent and fills one more;
//! * no two children of one state are equal.

use duoquest::core::enumerate::{apply, next_decisions};
use duoquest::core::DuoquestConfig;
use duoquest::db::Database;
use duoquest::nlq::{Choice, Nlq};
use duoquest::sql::{PartialQuery, Slot};
use duoquest::workloads::{mas, mas_tasks, spider};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

fn variant(choice: &Choice) -> &'static str {
    match choice {
        Choice::Clauses(_) => "Clauses",
        Choice::SelectColumns(_) => "SelectColumns",
        Choice::Aggregate { .. } => "Aggregate",
        Choice::WhereColumns(_) => "WhereColumns",
        Choice::Operator { .. } => "Operator",
        Choice::PredicateValue { .. } => "PredicateValue",
        Choice::Connective(_) => "Connective",
        Choice::GroupBy(_) => "GroupBy",
        Choice::Having(_) => "Having",
        Choice::OrderBy(_) => "OrderBy",
    }
}

/// A copy of `pq` that shares no `Arc` with it.
fn deep_snapshot(pq: &PartialQuery) -> PartialQuery {
    fn list<T: Clone>(slot: &Slot<Arc<[T]>>) -> Slot<Arc<[T]>> {
        match slot {
            Slot::Filled(items) => Slot::Filled(items.to_vec().into()),
            Slot::Hole => Slot::Hole,
        }
    }
    fn optional<T: Clone>(slot: &Slot<Option<Arc<T>>>) -> Slot<Option<Arc<T>>> {
        match slot {
            Slot::Filled(value) => Slot::Filled(value.as_deref().cloned().map(Arc::new)),
            Slot::Hole => Slot::Hole,
        }
    }
    PartialQuery {
        select: list(&pq.select),
        where_predicates: list(&pq.where_predicates),
        group_by: list(&pq.group_by),
        having: optional(&pq.having),
        order_by: optional(&pq.order_by),
        ..pq.clone()
    }
}

/// A filled `parent` slot is the same in `child`.
fn kept<T: PartialEq>(parent: &Slot<T>, child: &Slot<T>) -> bool {
    parent.is_hole() || parent == child
}

/// A filled `parent` list has the child's length, and each of its items is
/// kept by the child's item at the same position.
fn kept_items<T>(
    parent: &Slot<Arc<[T]>>,
    child: &Slot<Arc<[T]>>,
    item_kept: impl Fn(&T, &T) -> bool,
) -> bool {
    match (parent, child) {
        (Slot::Hole, _) => true,
        (Slot::Filled(p), Slot::Filled(c)) => {
            p.len() == c.len() && p.iter().zip(c.iter()).all(|(p, c)| item_kept(p, c))
        }
        (Slot::Filled(_), Slot::Hole) => false,
    }
}

/// Whether `child` keeps every filled slot of `parent`, down to the items of
/// its lists.
fn keeps_parent(parent: &PartialQuery, child: &PartialQuery) -> bool {
    kept(&parent.clauses, &child.clauses)
        && kept_items(&parent.select, &child.select, |p, c| {
            kept(&p.col, &c.col) && kept(&p.agg, &c.agg)
        })
        && parent.distinct == child.distinct
        && parent.join == child.join
        && kept_items(&parent.where_predicates, &child.where_predicates, |p, c| {
            kept(&p.col, &c.col)
                && kept(&p.op, &c.op)
                && kept(&p.value, &c.value)
                && (p.value2.is_none() || p.value2 == c.value2)
        })
        && kept(&parent.where_op, &child.where_op)
        && kept_items(&parent.group_by, &child.group_by, |p, c| p == c)
        && kept(&parent.having, &child.having)
        && kept(&parent.order_by, &child.order_by)
}

/// Walk the decision tree of one (database, NLQ) pair level by level, a
/// stride-sampled `WIDTH` states per level, checking every child of every
/// state walked. Records the `Choice` variants applied and returns how many
/// children were checked.
fn walk(db: &Database, nlq: &Nlq, seen: &mut BTreeSet<&'static str>) -> usize {
    const WIDTH: usize = 48;
    let config = DuoquestConfig::default();
    let mut level = vec![PartialQuery::empty()];
    let mut checked = 0;
    while !level.is_empty() {
        let mut next = Vec::new();
        for parent in &level {
            let Some(decisions) = next_decisions(parent, db, nlq, &config) else { continue };
            let snapshot = deep_snapshot(parent);
            let mut distinct = HashSet::new();
            let children: Vec<PartialQuery> = decisions
                .iter()
                .map(|choice| {
                    let mut child = parent.clone();
                    apply(&mut child, choice);
                    assert!(
                        keeps_parent(parent, &child) && child != *parent,
                        "{choice:?} is not one more decision on {parent:?}: {child:?}"
                    );
                    assert!(distinct.insert(format!("{child:?}")), "{choice:?} repeats a sibling");
                    seen.insert(variant(choice));
                    child
                })
                .collect();
            // Checked while the children, and every `Arc` they share with
            // the parent, are alive.
            assert_eq!(*parent, snapshot, "a decision wrote through a slot its parent shares");
            checked += children.len();
            next.extend(children);
        }
        let stride = next.len().div_ceil(WIDTH).max(1);
        // An odd offset, so that a stride does not always land on the first
        // of a run of siblings.
        let offset = (stride / 2) | 1;
        level = next.into_iter().skip(offset.min(stride - 1)).step_by(stride).collect();
    }
    checked
}

const ALL_VARIANTS: [&str; 10] = [
    "Aggregate",
    "Clauses",
    "Connective",
    "GroupBy",
    "Having",
    "Operator",
    "OrderBy",
    "PredicateValue",
    "SelectColumns",
    "WhereColumns",
];

#[test]
fn a_child_shares_its_parents_slots_and_writes_only_its_own() {
    let mut seen = BTreeSet::new();
    let mut checked = 0;
    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);
    for task in dataset.tasks.iter().step_by(8) {
        checked += walk(dataset.database(task), &task.nlq, &mut seen);
    }
    let dataset = mas::generate(7, 0.05);
    let mut tasks = mas_tasks::mas_nli_tasks(&dataset);
    tasks.extend(mas_tasks::mas_pbe_tasks(&dataset));
    for task in &tasks {
        checked += walk(&dataset.db, &task.nlq, &mut seen);
    }
    println!("{checked} children checked, variants {seen:?}");
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ALL_VARIANTS,
        "a decision kind went unchecked"
    );
}
