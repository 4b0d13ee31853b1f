//! Lexical similarity between NLQ tokens and schema identifiers.
//!
//! The paper's prototype relies on off-the-shelf word embeddings inside
//! SyntaxSQLNet; the self-contained heuristic guidance model here uses a
//! combination of exact/stemmed token overlap and character-trigram Jaccard
//! similarity, which is sufficient for schemas that follow the paper's advice
//! of using complete words for table and column names (§4.1).

use crate::tokenize::{normalize_token, Nlq};
use duoquest_db::{ColumnId, Schema};

/// Split a schema identifier such as `birth_yr` or `domain_conference` into
/// normalized word tokens.
pub fn identifier_tokens(identifier: &str) -> Vec<String> {
    #[cfg(test)]
    IDENTIFIER_TOKEN_CALLS.with(|calls| calls.set(calls.get() + 1));
    identifier.split(['_', ' ', '.']).filter(|s| !s.is_empty()).map(normalize_token).collect()
}

#[cfg(test)]
thread_local! {
    /// How often this thread has split an identifier (the guidance plan's
    /// tests hold the count to one per distinct identifier per run).
    pub(crate) static IDENTIFIER_TOKEN_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// The character trigrams of `word`, ASCII-lower-cased and padded with two
/// spaces on either side, each packed into one integer (a `char` is 21 bits,
/// so three fit and packed equality is trigram equality). A word of `n`
/// characters has `n + 2` trigrams — never none.
fn trigrams(word: &str) -> impl Iterator<Item = u64> + '_ {
    const PAD: [char; 2] = [' ', ' '];
    const THREE_CHARS: u64 = (1 << 63) - 1;
    let mut window = 0u64;
    PAD.into_iter()
        .chain(word.chars().map(|c| c.to_ascii_lowercase()))
        .chain(PAD)
        .map(move |c| {
            window = ((window << 21) | c as u64) & THREE_CHARS;
            window
        })
        .skip(2)
}

/// Jaccard similarity between the trigrams of `a` and the trigram list `gb`.
/// The intersection counts every trigram of `a` found in `gb`, repeats
/// included (`"aaaa"` has `aaa` twice), and the union is sized from that
/// count; scores downstream depend on exactly this arithmetic.
fn trigram_jaccard(a: &str, gb: &[u64]) -> f64 {
    let (mut len_a, mut inter) = (0usize, 0usize);
    for gram in trigrams(a) {
        len_a += 1;
        inter += usize::from(gb.contains(&gram));
    }
    let union = len_a + gb.len() - inter;
    inter as f64 / union as f64
}

/// Character trigram Jaccard similarity between two words.
pub fn trigram_similarity(a: &str, b: &str) -> f64 {
    let gb: Vec<u64> = trigrams(b).collect();
    trigram_jaccard(a, &gb)
}

/// Similarity in `[0, 1]` between an NLQ and one schema identifier: the best
/// per-word match (exact/stem match scores 1, otherwise trigram similarity),
/// averaged over the identifier's words.
pub fn name_similarity(nlq: &Nlq, identifier: &str) -> f64 {
    let id_tokens = identifier_tokens(identifier);
    if id_tokens.is_empty() || nlq.tokens.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut grams: Vec<u64> = Vec::new();
    for idt in &id_tokens {
        grams.clear();
        grams.extend(trigrams(idt));
        let mut best: f64 = 0.0;
        for tok in &nlq.tokens {
            if tok == idt {
                best = 1.0;
                break;
            }
            best = best.max(trigram_jaccard(tok, &grams));
        }
        total += best;
    }
    total / id_tokens.len() as f64
}

/// Similarity between an NLQ and a column, considering both the column name and
/// its table name (the table name contributes with a lower weight).
pub fn column_similarity(nlq: &Nlq, schema: &Schema, col: ColumnId) -> f64 {
    let col_name = &schema.column(col).name;
    let table_name = &schema.table(col.table).name;
    weigh_column_and_table(name_similarity(nlq, col_name), name_similarity(nlq, table_name))
}

/// [`column_similarity`] from the two [`name_similarity`] values it is made
/// of, for callers that computed them once per identifier.
pub(crate) fn weigh_column_and_table(col_sim: f64, table_sim: f64) -> f64 {
    (0.75 * col_sim + 0.25 * table_sim).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnDef, TableDef};

    #[test]
    fn identifier_splitting() {
        assert_eq!(identifier_tokens("birth_yr"), vec!["birth", "yr"]);
        assert_eq!(identifier_tokens("domain_conference"), vec!["domain", "conference"]);
    }

    #[test]
    fn trigram_similarity_bounds() {
        assert!(trigram_similarity("year", "year") > 0.99);
        assert!(trigram_similarity("year", "years") > 0.4);
        assert!(trigram_similarity("year", "name") < 0.2);
        assert_eq!(trigram_similarity("", "x"), 0.0);
    }

    /// The implementation this module shipped before trigrams were packed
    /// into integers: one `String` per trigram. Kept as the oracle for the
    /// quirks below.
    fn string_trigram_similarity(a: &str, b: &str) -> f64 {
        let grams = |s: &str| -> Vec<String> {
            let padded = format!("  {}  ", s.to_ascii_lowercase());
            let chars: Vec<char> = padded.chars().collect();
            chars.windows(3).map(|w| w.iter().collect()).collect()
        };
        let (ga, gb) = (grams(a), grams(b));
        let inter = ga.iter().filter(|g| gb.contains(g)).count();
        inter as f64 / (ga.len() + gb.len() - inter) as f64
    }

    #[test]
    fn trigram_quirks_are_pinned() {
        // Repeated trigrams of the first word each count towards the
        // intersection, so the score is asymmetric and can exceed 1.
        assert_eq!(trigram_similarity("aaaa", "aaa"), 6.0 / 5.0);
        assert_eq!(trigram_similarity("aaa", "aaaa"), 5.0 / 6.0);
        assert_eq!(trigram_similarity("aaaa", "aa"), 4.0 / 6.0);
        // An empty word still has two all-space trigrams.
        assert_eq!(trigram_similarity("", ""), 1.0);
        assert_eq!(trigram_similarity("", "x"), 0.0);
        // Only ASCII letters fold case; other scalars compare as they are.
        assert_eq!(trigram_similarity("CAF\u{c9}", "caf\u{c9}"), 1.0);
        assert!(trigram_similarity("caf\u{c9}", "caf\u{e9}") < 1.0);

        let words = [
            "",
            "a",
            "aa",
            "aaaa",
            "abab",
            "year",
            "Years",
            "na\u{ef}ve",
            "\u{4e2d}\u{6587}",
            "x y",
        ];
        for a in words {
            for b in words {
                assert_eq!(
                    trigram_similarity(a, b).to_bits(),
                    string_trigram_similarity(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn identifiers_split_on_every_separator_and_may_be_empty() {
        assert_eq!(
            identifier_tokens("first name.last_name"),
            vec!["first", "name", "last", "name"]
        );
        assert!(identifier_tokens("").is_empty());
        assert!(identifier_tokens("_. ").is_empty());
        let nlq = Nlq::new("first names of na\u{ef}ve authors");
        assert_eq!(name_similarity(&nlq, ""), 0.0);
        assert_eq!(name_similarity(&nlq, "_. "), 0.0);
        assert_eq!(name_similarity(&nlq, "first name"), 1.0);
        assert_eq!(name_similarity(&nlq, "author.first"), 1.0);
        assert_eq!(name_similarity(&nlq, "na\u{ef}ve"), 1.0);
        assert_eq!(name_similarity(&Nlq::new(""), "name"), 0.0);
    }

    #[test]
    fn name_similarity_prefers_mentioned_columns() {
        let nlq = Nlq::new("List the titles and years of publications by author A");
        assert!(name_similarity(&nlq, "title") > 0.9);
        assert!(name_similarity(&nlq, "year") > 0.9);
        assert!(name_similarity(&nlq, "title") > name_similarity(&nlq, "homepage"));
    }

    #[test]
    fn column_similarity_uses_table_context() {
        let mut s = Schema::new("mas");
        s.add_table(TableDef::new(
            "publication",
            vec![ColumnDef::text("title"), ColumnDef::number("year")],
            None,
        ));
        s.add_table(TableDef::new("keyword", vec![ColumnDef::text("keyword")], None));
        let nlq = Nlq::new("List publication titles");
        let title = s.column_id("publication", "title").unwrap();
        let keyword = s.column_id("keyword", "keyword").unwrap();
        assert!(column_similarity(&nlq, &s, title) > column_similarity(&nlq, &s, keyword));
    }
}
