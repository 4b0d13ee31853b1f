//! The per-run verdict table behind column-wise verification.
//!
//! "Can column `c` produce example cell `(t, i)`" is a pure function of the
//! database, the cell and the column, yet GPQE asks it for every child of
//! every popped state: a few hundred distinct questions, tens of thousands
//! of times per run. A [`VerifyPlan`] holds one byte per (constrained cell,
//! schema column) — the verdict of the existence probe and of the `AVG`
//! range check, each unknown until first asked. The first touch of a pair
//! runs the probe (through the database's probe cache, so cross-session
//! sharing and per-run attribution apply to it unchanged); every later
//! touch is one byte read.
//!
//! The plan also holds the sketch's **verdict tags**, encoded once per run:
//! the cache tag under which a complete candidate's sketch check
//! (`by_order`) stores its one-bit answer ([`VerifyPlan::tag`]). A tag is the
//! [`Decision`]'s byte, then the sketch's tuples, sorted flag and limit —
//! everything the decision reads besides the rows — so two sketches never
//! share an answer, and two runs of one sketch do.
//!
//! A plan belongs to one synthesis run: it is built once from the run's TSQ
//! next to the run's `JoinPlanner`, read and filled by the run's rounds on
//! whichever one worker holds the session (`Send`, not `Sync`), and dropped
//! with the run. The database cannot change underneath it — writes need
//! `&mut Database`, which nobody can take while the run borrows (or holds an
//! `Arc` of) the database.

use crate::tsq::{TableSketchQuery, TsqCell};
use duoquest_db::encode::{encode_uint, encode_value};
use duoquest_db::{ColumnId, Database};
use std::cell::Cell;

/// What a verdict probe decides about a complete query's rows; its byte
/// leads the probe's cache tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The example tuples are satisfied by rows in the order given, within
    /// the limit (`by_order::verify_by_order`).
    InOrder = 0,
    /// Every example tuple is satisfied by a row of its own, within the
    /// limit (`by_order::verify_complete` for unsorted sketches).
    Matching = 1,
    /// The row-wise stage's global `COUNT(*)` probe returns a row that is
    /// not an empty group HAVING rejects (`by_row`). It reads nothing but the
    /// rows and the spec, so its tag is its byte alone.
    NonZeroCount = 2,
}

/// The tag of [`Decision::NonZeroCount`].
pub(crate) const COUNT_TAG: &[u8] = &[Decision::NonZeroCount as u8];

/// Which of a pair's two verdicts is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Check {
    /// The column holds a value matching the cell (`MIN`/`MAX`/plain
    /// projections).
    Exists,
    /// The cell intersects the column's observed range (`AVG` projections).
    AvgRange,
}

const UNKNOWN: u8 = 0b00;
const ABSENT: u8 = 0b01;
const PRESENT: u8 = 0b10;

/// One run's lazily filled column-wise verdicts. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct VerifyPlan {
    /// Position of each table's first column within a cell's row of
    /// `verdicts`.
    table_offsets: Vec<usize>,
    /// Columns in the schema: the length of a cell's row.
    columns: usize,
    /// Two bits per [`Check`], cells in the order `verify_by_column` walks
    /// them (tuple by tuple, constrained cells only), columns in schema order.
    verdicts: Vec<Cell<u8>>,
    /// The tags of [`Decision::InOrder`] and [`Decision::Matching`]; empty
    /// for a sketch no complete check reads (no tuple, no limit).
    in_order: Box<[u8]>,
    matching: Box<[u8]>,
}

impl VerifyPlan {
    /// A plan with every verdict unknown: one byte per (constrained cell of
    /// `tsq`, column of `db`), and the sketch's verdict tags when it has
    /// tuples or a limit. A type-only sketch, or `None`, allocates nothing.
    pub fn new(db: &Database, tsq: Option<&TableSketchQuery>) -> Self {
        let mut plan = VerifyPlan::default();
        let Some(tsq) = tsq else { return plan };
        if !tsq.tuples.is_empty() || tsq.limit > 0 {
            plan.in_order = encode_tag(Decision::InOrder, tsq);
            plan.matching = encode_tag(Decision::Matching, tsq);
        }
        let cells = constrained_cells(tsq);
        if cells == 0 {
            return plan;
        }
        let mut columns = 0;
        plan.table_offsets = (db.schema().tables.iter())
            .map(|table| {
                columns += table.columns.len();
                columns - table.columns.len()
            })
            .collect();
        plan.columns = columns;
        plan.verdicts = vec![Cell::new(UNKNOWN); cells * columns];
        plan
    }

    /// Bytes of verdict storage the plan holds for its whole run.
    pub fn bytes(&self) -> usize {
        self.verdicts.len()
    }

    /// The cache tag of `decision` about the plan's sketch (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sketch the plan was built from has
    /// neither tuples nor a limit, so no complete check reads it.
    pub fn tag(&self, decision: Decision) -> &[u8] {
        let tag = match decision {
            Decision::InOrder => &self.in_order,
            Decision::Matching => &self.matching,
            Decision::NonZeroCount => return COUNT_TAG,
        };
        debug_assert!(!tag.is_empty(), "the plan was built for a sketch without tuples or limit");
        tag
    }

    /// The verdict of `check` for the `cell`-th constrained cell against
    /// `col`, running `probe` only if nobody has asked before. (The bytes
    /// are cells because the plan is filled through the shared reference
    /// the run's verifier holds.)
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `col` lies outside the TSQ and schema the plan was
    /// built from.
    pub(crate) fn verdict(
        &self,
        check: Check,
        cell: usize,
        col: ColumnId,
        probe: impl FnOnce() -> bool,
    ) -> bool {
        let shift = match check {
            Check::Exists => 0,
            Check::AvgRange => 2,
        };
        let column = self.table_offsets[col.table.0] + col.column;
        let slot = &self.verdicts[cell * self.columns + column];
        match (slot.get() >> shift) & 0b11 {
            UNKNOWN => {
                let present = probe();
                let verdict = if present { PRESENT } else { ABSENT };
                slot.update(|byte| byte | verdict << shift);
                present
            }
            known => known == PRESENT,
        }
    }
}

/// Cells of `tsq` that constrain their column.
fn constrained_cells(tsq: &TableSketchQuery) -> usize {
    tsq.tuples.iter().flatten().filter(|cell| cell.is_constrained()).count()
}

/// `decision`'s byte, then `tsq`'s tuples (each length-prefixed, each cell
/// a kind byte and its values), sorted flag and limit, in the probe cache's
/// key encoding — self-delimiting throughout, so two sketches share a tag
/// only if they are equal cell for cell.
fn encode_tag(decision: Decision, tsq: &TableSketchQuery) -> Box<[u8]> {
    let mut out = vec![decision as u8];
    encode_uint(&mut out, tsq.tuples.len());
    for tuple in &tsq.tuples {
        encode_uint(&mut out, tuple.len());
        for cell in tuple {
            match cell {
                TsqCell::Empty => out.push(0),
                TsqCell::Exact(v) => {
                    out.push(1);
                    encode_value(&mut out, v);
                }
                TsqCell::Range(lo, hi) => {
                    out.push(2);
                    encode_value(&mut out, lo);
                    encode_value(&mut out, hi);
                }
            }
        }
    }
    out.push(u8::from(tsq.sorted));
    encode_uint(&mut out, tsq.limit);
    out.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsq::TsqCell;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::DataType;
    use std::cell::Cell;

    #[test]
    fn a_verdict_is_probed_once_per_check_cell_and_column() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty().with_tuple(vec![
            TsqCell::text("Tom Hanks"),
            TsqCell::Empty,
            TsqCell::range(1950, 1960),
        ]);
        let plan = VerifyPlan::new(&db, Some(&tsq));
        assert_eq!(plan.bytes(), 2 * db.schema().column_count(), "two constrained cells");

        let probes = Cell::new(0);
        let ask = |check, cell, col, answer| {
            plan.verdict(check, cell, col, || {
                probes.set(probes.get() + 1);
                answer
            })
        };
        let name = db.schema().column_id("actor", "name").unwrap();
        let year = db.schema().column_id("movies", "year").unwrap();
        assert!(ask(Check::Exists, 0, name, true));
        assert!(ask(Check::Exists, 0, name, false), "the stored verdict wins over a second probe");
        assert!(!ask(Check::Exists, 1, name, false), "another cell is another question");
        assert!(!ask(Check::Exists, 0, year, false), "another column is another question");
        assert!(!ask(Check::AvgRange, 0, name, false), "the two checks of a pair are independent");
        assert!(ask(Check::Exists, 0, name, false));
        assert!(!ask(Check::AvgRange, 0, name, true));
        assert_eq!(probes.get(), 4);
    }

    #[test]
    fn a_sketch_without_constrained_cells_allocates_nothing() {
        let db = movie_db();
        for tsq in [
            None,
            Some(TableSketchQuery::with_types(vec![DataType::Text, DataType::Number])),
            Some(TableSketchQuery::empty().with_tuple(vec![TsqCell::Empty, TsqCell::Empty])),
        ] {
            let plan = VerifyPlan::new(&db, tsq.as_ref());
            assert_eq!(plan.bytes(), 0);
            assert_eq!(plan.verdicts.capacity() + plan.table_offsets.capacity(), 0);
            // Only a sketch a complete check reads has tags to keep.
            let checked = tsq.as_ref().is_some_and(|t| !t.tuples.is_empty());
            assert_eq!(plan.in_order.is_empty() && plan.matching.is_empty(), !checked);
        }
    }

    #[test]
    fn tags_name_the_decision_and_every_part_of_the_sketch() {
        let db = movie_db();
        let base = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Gravity"), TsqCell::Empty])
            .with_tuple(vec![TsqCell::Empty, TsqCell::range(2010, 2017)]);
        let tags = |tsq: &TableSketchQuery| {
            let plan = VerifyPlan::new(&db, Some(tsq));
            [Decision::InOrder, Decision::Matching].map(|d| plan.tag(d).to_vec())
        };
        let [in_order, matching] = tags(&base);
        assert_ne!(in_order, matching);
        assert_eq!((in_order[0], matching[0]), (0, 1), "the decision's byte leads");
        assert_eq!(tags(&base.clone()), [in_order.clone(), matching]);
        assert_eq!(VerifyPlan::default().tag(Decision::NonZeroCount), [2]);

        let mut variants = vec![
            base.clone().sorted(),
            base.clone().with_limit(2),
            base.clone().with_tuple(vec![TsqCell::Empty, TsqCell::Empty]),
        ];
        for (t, c, cell) in [
            (0, 0, TsqCell::text("gravity")),
            (0, 0, TsqCell::Empty),
            (0, 1, TsqCell::text("")),
            (1, 1, TsqCell::range(2010, 2018)),
            (1, 1, TsqCell::number(2010)),
        ] {
            let mut tsq = base.clone();
            tsq.tuples[t][c] = cell;
            variants.push(tsq);
        }
        let mut seen = vec![in_order];
        for tsq in &variants {
            let [tag, _] = tags(tsq);
            assert!(!seen.contains(&tag), "{tsq:?} shares a tag");
            seen.push(tag);
        }
    }
}
