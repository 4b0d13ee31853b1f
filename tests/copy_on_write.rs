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
//! * no two children of one state are equal;
//! * split into join variants as a round splits it, every variant keeps
//!   every table and edge of the join path its parent carries — a decision
//!   grows a join path, it never rebuilds it.

use duoquest::core::enumerate::{apply, next_decisions};
use duoquest::core::joinpath::construct_join_paths;
use duoquest::core::DuoquestConfig;
use duoquest::db::{Database, JoinGraph, JoinTree, TableId};
use duoquest::nlq::{Choice, Nlq};
use duoquest::sql::{PartialQuery, Slot};
use duoquest::workloads::{mas, mas_tasks, spider};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
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

/// The join path lists of one walk, by the path a child carries and the
/// tables it references: a list is a function of the two.
type Built = HashMap<(Option<JoinTree>, Vec<TableId>), Rc<[JoinTree]>>;

/// The join paths a round splits `child` into: `None` while its projection
/// is open or the path it carries covers every table it references (the
/// child is verified as it is), otherwise one variant per candidate join
/// path. Every one of them must keep every table and edge of the path
/// `child` carries, which is its parent's.
fn join_paths(
    db: &Database,
    graph: &JoinGraph,
    depth: usize,
    child: &PartialQuery,
    built: &mut Built,
) -> Option<Rc<[JoinTree]>> {
    let mut tables = Vec::new();
    child.for_each_referenced_column(|c| tables.push(c.table));
    tables.sort();
    tables.dedup();
    let covered = child.join.as_ref().is_some_and(|j| tables.iter().all(|t| j.contains(*t)));
    if child.select.is_hole() || covered {
        return None;
    }
    let key = (child.join.clone(), tables);
    let paths = built.entry(key).or_insert_with(|| {
        let paths = construct_join_paths(db, graph, child, child.join.as_ref(), depth);
        if let Some(parent) = &child.join {
            for path in &paths {
                let kept = parent.tables.iter().all(|t| path.contains(*t))
                    && parent.edges.iter().all(|e| path.edges.contains(e));
                assert!(
                    kept,
                    "a decision dropped a join edge of {parent:?}: {path:?} for {child:?}"
                );
            }
        }
        paths.into()
    });
    Some(Rc::clone(paths))
}

/// What the walks checked: children, those split into join variants, the
/// join path lists built for them, and those of the lists grown from a join
/// path a child carried.
#[derive(Default)]
struct Checked {
    children: usize,
    split: usize,
    built: usize,
    grown: usize,
}

/// Walk the decision tree of one (database, NLQ) pair level by level, a
/// stride-sampled `WIDTH` states per level, checking every child of every
/// state walked and every join variant a round would split it into. Records
/// the `Choice` variants applied.
fn walk(db: &Database, nlq: &Nlq, seen: &mut BTreeSet<&'static str>, checked: &mut Checked) {
    const WIDTH: usize = 48;
    let config = DuoquestConfig::default();
    let graph = JoinGraph::new(db.schema());
    let depth = config.join_extension_depth;
    let mut built = Built::new();
    let mut level = vec![PartialQuery::empty()];
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
            checked.children += children.len();
            for child in children {
                let paths = join_paths(db, &graph, depth, &child, &mut built);
                checked.split += usize::from(paths.is_some());
                next.push((child, paths));
            }
        }
        // The states a round would push: each child as it is, or one variant
        // per join path — sampled before any variant is built.
        let states = next.iter().flat_map(|(child, paths)| {
            let own = paths.is_none().then_some((child, None));
            own.into_iter()
                .chain(paths.iter().flat_map(|p| p.iter()).map(move |join| (child, Some(join))))
        });
        let stride = states.clone().count().div_ceil(WIDTH).max(1);
        // An odd offset, so that a stride does not always land on the first
        // of a run of siblings.
        let offset = (stride / 2) | 1;
        level = states
            .skip(offset.min(stride - 1))
            .step_by(stride)
            .map(|(child, join)| PartialQuery {
                join: join.or(child.join.as_ref()).cloned(),
                ..child.clone()
            })
            .collect();
    }
    checked.built += built.len();
    checked.grown += built.keys().filter(|(carried, _)| carried.is_some()).count();
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
    let mut checked = Checked::default();
    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);
    for task in dataset.tasks.iter().step_by(8) {
        walk(dataset.database(task), &task.nlq, &mut seen, &mut checked);
    }
    let dataset = mas::generate(7, 0.05);
    let mut tasks = mas_tasks::mas_nli_tasks(&dataset);
    tasks.extend(mas_tasks::mas_pbe_tasks(&dataset));
    for task in &tasks {
        walk(&dataset.db, &task.nlq, &mut seen, &mut checked);
    }
    let Checked { children, split, built, grown } = checked;
    println!(
        "{children} children checked, {split} split over {built} join path lists \
         ({grown} grown from a carried join path), variants {seen:?}"
    );
    assert!(grown >= 100, "only {grown} join path lists grown from a carried one");
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ALL_VARIANTS,
        "a decision kind went unchecked"
    );
}
