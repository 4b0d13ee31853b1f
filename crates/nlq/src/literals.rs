//! Literal value tagging.
//!
//! Duoquest's front end lets users tag domain-specific literal text values in
//! the NLQ search bar with an autocomplete over the database's inverted column
//! index; numbers are recognized directly (paper §2.3 and §4). The tagged
//! literal set `L` is part of the problem input and is consumed both by the
//! enumerator (to bind predicate constants) and the final `VerifyLiterals`
//! check.

use crate::tokenize::tokenize;
use duoquest_db::{ColumnId, DataType, Database, Value};
use std::ops::Range;

/// Whether a literal is a text value or a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralKind {
    /// A quoted / autocompleted text value.
    Text,
    /// A numeric value.
    Number,
}

/// One literal value tagged in the NLQ.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// The surface form as it appears in the NLQ.
    pub surface: String,
    /// The literal value.
    pub value: Value,
    /// Text or number.
    pub kind: LiteralKind,
}

impl Literal {
    /// A tagged text literal.
    pub fn text(surface: impl Into<String>, value: Value) -> Self {
        Literal { surface: surface.into(), value, kind: LiteralKind::Text }
    }

    /// A tagged numeric literal.
    pub fn number(n: f64) -> Self {
        Literal { surface: format!("{n}"), value: Value::Number(n), kind: LiteralKind::Number }
    }

    /// The declared type this literal can compare against.
    pub fn data_type(&self) -> DataType {
        match self.kind {
            LiteralKind::Text => DataType::Text,
            LiteralKind::Number => DataType::Number,
        }
    }
}

/// Extract literal values from an NLQ:
///
/// * substrings enclosed in double quotes are treated as tagged text values
///   (the front end's `"`-activated autocomplete);
/// * bare numeric tokens become numeric literals: a token is numeric when it
///   parses as a **finite** `f64` (`2010`, `-3.5`, `1e3`), so words such as
///   `nan`, `inf` or `Infinity` stay words;
/// * when a database is provided, un-quoted non-numeric token n-grams that
///   exactly match an indexed text value are tagged as well — this emulates
///   the autocomplete suggestions a user would accept.
pub fn extract_literals(text: &str, db: Option<&Database>) -> Vec<Literal> {
    let mut out: Vec<Literal> = Vec::new();

    // Quoted text values.
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        match after.find('"') {
            Some(end) => {
                let inner = &after[..end];
                if !inner.is_empty() {
                    out.push(Literal::text(inner, Value::text(inner)));
                }
                rest = &after[end + 1..];
            }
            None => break,
        }
    }

    // Numeric tokens.
    for token in text.split(|c: char| !c.is_alphanumeric() && c != '.' && c != '-') {
        if token.is_empty() {
            continue;
        }
        if let Some(n) = finite_number(token) {
            if !out.iter().any(|l| l.kind == LiteralKind::Number && l.value == Value::Number(n)) {
                out.push(Literal::number(n));
            }
        }
    }

    // Database-backed n-gram matching (autocomplete emulation): each window
    // of one to four words, joined by single spaces, is looked up in the text
    // index (which folds case) unless a tagged literal's lowercased surface
    // already contains it — checked first, since it needs no lookup. The NLQ
    // is lowercased once (ASCII folding keeps every byte in place, so one set
    // of word ranges serves both copies), and a window is assembled in two
    // reused buffers, so only a tagged window allocates.
    if let Some(db) = db {
        let index = db.index();
        let lowercase = text.to_ascii_lowercase();
        let words: Vec<Range<usize>> = text
            .split(|c: char| !c.is_alphanumeric() && c != '\'')
            .filter(|s| !s.is_empty())
            .map(|word| {
                let start = word.as_ptr() as usize - text.as_ptr() as usize;
                start..start + word.len()
            })
            .collect();
        let mut surfaces: Vec<String> =
            out.iter().map(|l| l.surface.to_ascii_lowercase()).collect();
        let (mut candidate, mut lowered) = (String::new(), String::new());
        for n in (1..=4usize).rev() {
            for window in words.windows(n) {
                candidate.clear();
                lowered.clear();
                for (i, word) in window.iter().enumerate() {
                    if i > 0 {
                        candidate.push(' ');
                        lowered.push(' ');
                    }
                    candidate.push_str(&text[word.clone()]);
                    lowered.push_str(&lowercase[word.clone()]);
                }
                // Words hold no space, so only a single word can be a number.
                if n == 1 && finite_number(&candidate).is_some() {
                    continue;
                }
                if !surfaces.iter().any(|surface| surface.contains(lowered.as_str()))
                    && index.contains(&candidate)
                {
                    out.push(Literal::text(candidate.clone(), Value::text(candidate.as_str())));
                    surfaces.push(lowered.clone());
                }
            }
        }
    }

    out
}

/// The token's value if it is a numeric token: one that parses as a finite
/// number.
fn finite_number(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|n| n.is_finite())
}

/// Candidate columns for a text literal: every text column whose indexed values
/// contain it, most frequent first.
pub fn candidate_columns(db: &Database, literal: &Literal) -> Vec<ColumnId> {
    match literal.kind {
        LiteralKind::Number => Vec::new(),
        LiteralKind::Text => {
            let mut hits = db.index().lookup(literal.value.as_text().unwrap_or(&literal.surface));
            hits.sort_by_key(|h| std::cmp::Reverse(h.count));
            hits.into_iter().map(|h| h.column).collect()
        }
    }
}

/// Whether the NLQ tokens mention the literal (used by VerifyLiterals-style checks).
pub fn literal_mentioned(text: &str, literal: &Literal) -> bool {
    match literal.kind {
        LiteralKind::Number => tokenize(text).contains(&literal.surface.to_ascii_lowercase()),
        LiteralKind::Text => {
            text.to_ascii_lowercase().contains(&literal.surface.to_ascii_lowercase())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnDef, Schema, TableDef};

    fn db() -> Database {
        let mut s = Schema::new("mas");
        s.add_table(TableDef::new(
            "conference",
            vec![ColumnDef::number("cid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "author",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        let mut d = Database::new(s).unwrap();
        d.insert("conference", vec![Value::int(1), Value::text("SIGMOD")]).unwrap();
        d.insert("conference", vec![Value::int(2), Value::text("Very Large Data Bases")]).unwrap();
        d.insert("author", vec![Value::int(1), Value::text("Nan")]).unwrap();
        d
    }

    #[test]
    fn quoted_and_numeric_literals() {
        let lits = extract_literals("publications in \"SIGMOD\" after 2010", None);
        assert_eq!(lits.len(), 2);
        assert_eq!(lits[0].kind, LiteralKind::Text);
        assert_eq!(lits[0].value, Value::text("SIGMOD"));
        assert_eq!(lits[1].kind, LiteralKind::Number);
        assert_eq!(lits[1].value, Value::Number(2010.0));
        // Words that parse as non-finite floats are not numbers; "Nan" is
        // an author.
        let lits =
            extract_literals("papers by Nan cited inf or INFINITY times, -3.5e1", Some(&db()));
        assert_eq!(lits, vec![Literal::number(-35.0), Literal::text("Nan", Value::text("Nan"))]);
    }

    #[test]
    fn autocomplete_backed_ngram_matching() {
        let mut d = db();
        let lits = extract_literals("publications in Very Large Data Bases this year", Some(&d));
        assert!(lits.iter().any(|l| l.surface.eq_ignore_ascii_case("very large data bases")));
        // Single word "SIGMOD" also matches.
        let lits = extract_literals("count papers in sigmod", Some(&d));
        assert!(lits.iter().any(|l| l.surface.eq_ignore_ascii_case("sigmod")));
        // A word that parses as NaN is matched like any other.
        let lits = extract_literals("papers by nan", Some(&d));
        assert_eq!(lits, vec![Literal::text("nan", Value::text("nan"))]);
        // A value inserted into a loaded database is tagged at once.
        d.insert("author", vec![Value::int(2), Value::text("Infinity Ward")]).unwrap();
        let lits = extract_literals("papers by infinity ward", Some(&d));
        assert_eq!(lits, vec![Literal::text("infinity ward", Value::text("infinity ward"))]);
    }

    /// A database as it is loaded — one bulk insert per table, no rebuild —
    /// answers literal lookups at once: NLQ tagging, and the index lookup
    /// the PBE baseline locates example cells with.
    #[test]
    fn a_freshly_loaded_database_answers_literal_lookups() {
        let mut s = Schema::new("mas");
        s.add_table(TableDef::new(
            "author",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "conference",
            vec![ColumnDef::number("cid"), ColumnDef::text("name")],
            Some(0),
        ));
        let mut d = Database::new(s).unwrap();
        let authors = ["Grace Hopper", "Edgar Codd", "Grace Hopper"];
        let rows =
            authors.iter().zip(1..).map(|(name, aid)| vec![Value::int(aid), Value::text(*name)]);
        d.insert_all("author", rows).unwrap();
        d.insert_all("conference", [vec![Value::int(1), Value::text("SIGMOD")]]).unwrap();

        let lits = extract_literals("papers by grace hopper in SIGMOD", Some(&d));
        assert_eq!(
            lits,
            vec![
                Literal::text("grace hopper", Value::text("grace hopper")),
                Literal::text("SIGMOD", Value::text("SIGMOD")),
            ]
        );
        let (author, conference) = (
            d.schema().column_id("author", "name").unwrap(),
            d.schema().column_id("conference", "name").unwrap(),
        );
        let hit = |column, count| duoquest_db::IndexHit { column, count };
        assert_eq!(d.index().lookup("GRACE HOPPER"), vec![hit(author, 2)]);
        assert_eq!(d.index().lookup("edgar codd"), vec![hit(author, 1)]);
        assert_eq!(d.index().lookup("sigmod"), vec![hit(conference, 1)]);
        assert_eq!(candidate_columns(&d, &lits[1]), vec![conference]);
    }

    #[test]
    fn candidate_columns_for_text_literal() {
        let d = db();
        let lit = Literal::text("SIGMOD", Value::text("SIGMOD"));
        let cols = candidate_columns(&d, &lit);
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0], d.schema().column_id("conference", "name").unwrap());
        assert!(candidate_columns(&d, &Literal::number(3.0)).is_empty());
    }

    #[test]
    fn literal_mention_detection() {
        let lit = Literal::number(1995.0);
        assert!(literal_mentioned("movies before 1995", &lit));
        assert!(!literal_mentioned("movies before 2000", &lit));
        let lit = Literal::text("Tom Hanks", Value::text("Tom Hanks"));
        assert!(literal_mentioned("films starring tom hanks", &lit));
    }

    #[test]
    fn duplicate_numbers_not_repeated() {
        let lits = extract_literals("between 2010 and 2010", None);
        assert_eq!(lits.iter().filter(|l| l.kind == LiteralKind::Number).count(), 1);
    }
}
