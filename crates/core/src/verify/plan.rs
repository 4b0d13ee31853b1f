//! The per-run verdict table behind column-wise verification.
//!
//! "Can column `c` produce example cell `(t, i)`" is a pure function of the
//! database, the cell and the column, yet GPQE asks it for every child of
//! every popped state: a few hundred distinct questions, tens of thousands
//! of times per run. A [`VerifyPlan`] holds one byte per (constrained cell,
//! schema column) — the verdict of the existence probe and of the `AVG`
//! range check, each unknown until first asked. The first touch of a pair
//! runs the probe (through the database's probe cache, so cross-session
//! sharing, single-flight and per-run attribution apply to it unchanged);
//! every later touch is one relaxed atomic load.
//!
//! A plan belongs to one synthesis run: it is built once from the run's TSQ
//! next to the run's `JoinPlanner`, read and filled by the run's rounds on
//! whichever worker holds the session, and dropped with the run. The
//! database cannot change underneath it — writes need `&mut Database`, which
//! nobody can take while the run borrows (or holds an `Arc` of) the database.

use crate::tsq::TableSketchQuery;
use duoquest_db::{ColumnId, Database};
use std::sync::atomic::{AtomicU8, Ordering};

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
#[derive(Debug, Default)]
pub struct VerifyPlan {
    /// Position of each table's first column within a cell's row of
    /// `verdicts`.
    table_offsets: Vec<usize>,
    /// Columns in the schema: the length of a cell's row.
    columns: usize,
    /// Two bits per [`Check`], cells in the order `verify_by_column` walks
    /// them (tuple by tuple, constrained cells only), columns in schema order.
    verdicts: Vec<AtomicU8>,
}

impl VerifyPlan {
    /// A plan with every verdict unknown: one byte per (constrained cell of
    /// `tsq`, column of `db`), and no allocation at all for a TSQ without a
    /// constrained cell (type-only sketches, `None`).
    pub fn new(db: &Database, tsq: Option<&TableSketchQuery>) -> Self {
        let cells = tsq.map_or(0, constrained_cells);
        if cells == 0 {
            return VerifyPlan::default();
        }
        let mut columns = 0;
        let table_offsets = (db.schema().tables.iter())
            .map(|table| {
                columns += table.columns.len();
                columns - table.columns.len()
            })
            .collect();
        let verdicts = std::iter::repeat_with(AtomicU8::default).take(cells * columns).collect();
        VerifyPlan { table_offsets, columns, verdicts }
    }

    /// Bytes of verdict storage the plan holds for its whole run.
    pub fn bytes(&self) -> usize {
        self.verdicts.len()
    }

    /// The verdict of `check` for the `cell`-th constrained cell against
    /// `col`, running `probe` only if nobody has asked before. (The bytes
    /// are atomic because the plan is filled through a shared reference,
    /// not because anybody races: a run is on one thread at a time.)
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
        // Relaxed: the byte is the whole message, it publishes no other data.
        match (slot.load(Ordering::Relaxed) >> shift) & 0b11 {
            UNKNOWN => {
                let present = probe();
                let verdict = if present { PRESENT } else { ABSENT };
                slot.fetch_or(verdict << shift, Ordering::Relaxed);
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
        }
    }
}
