//! Value and data-type model.
//!
//! The Duoquest task scope (paper §2.5) only distinguishes *text* and *number*
//! output columns in table sketch queries, so the engine uses the same two
//! scalar types plus SQL `NULL`. [`Key`] is the typed equality key derived
//! from a value ([`Value::key`]): the one notion of "same value" that the
//! column index, the joins, GROUP BY and DISTINCT share.

use crate::table_index::fold;
use std::cmp::Ordering;
use std::fmt;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Free-form text (SQL `TEXT` / `VARCHAR`).
    Text,
    /// Numeric data (SQL `INTEGER` / `REAL`), represented as `f64`.
    Number,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Text => write!(f, "text"),
            DataType::Number => write!(f, "number"),
        }
    }
}

/// A scalar cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A text value.
    Text(String),
    /// A numeric value.
    Number(f64),
}

impl Value {
    /// Construct a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Construct a numeric value.
    pub fn number(n: impl Into<f64>) -> Self {
        Value::Number(n.into())
    }

    /// Construct an integer-valued number.
    pub fn int(n: i64) -> Self {
        Value::Number(n as f64)
    }

    /// The dynamic type of this value, if it is not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Text(_) => Some(DataType::Text),
            Value::Number(_) => Some(DataType::Number),
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Return the numeric content if the value is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Return the textual content if the value is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style equality: NULL is never equal to anything (including NULL);
    /// text comparison is case-insensitive to mirror the paper's autocomplete
    /// driven matching of user-provided example cells.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a.eq_ignore_ascii_case(b),
            (Value::Number(a), Value::Number(b)) => {
                (a - b).abs() < f64::EPSILON * a.abs().max(b.abs()).max(1.0)
            }
            _ => false,
        }
    }

    /// SQL-style ordering comparison. Returns `None` if the values are not
    /// comparable (NULLs or mixed types), mirroring three-valued logic where
    /// such comparisons evaluate to UNKNOWN. Text compares by its
    /// ASCII-lowercased bytes, folded in place: a comparison allocates
    /// nothing.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
            (Value::Text(a), Value::Text(b)) => Some(fold(a).cmp(fold(b))),
            _ => None,
        }
    }

    /// Total ordering used for deterministic sorting of result sets:
    /// NULL < numbers < text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Number(_) => 1,
                Value::Text(_) => 2,
            }
        }
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// SQL `LIKE` with `%` wildcards (case-insensitive). Only meaningful on text.
    /// Compares ASCII-folded bytes in place, so a match allocates nothing.
    pub fn sql_like(&self, pattern: &str) -> bool {
        let Value::Text(s) = self else { return false };
        like_match(s.as_bytes(), pattern.as_bytes())
    }

    /// The typed key this value joins, groups and deduplicates under, or
    /// `None` for NULL (which joins nothing and groups only with NULL).
    pub fn key(&self) -> Option<Key> {
        match self {
            Value::Null => None,
            Value::Number(n) => Some(Key::Num(canonical_bits(*n))),
            Value::Text(s) => Some(Key::Text(s.to_ascii_lowercase())),
        }
    }
}

/// The bits a number is keyed and encoded by, consistent with
/// `PartialEq for Value`: every NaN is one NaN, and `-0.0` is `0.0` (adding
/// 0.0 folds it onto `+0.0`).
pub(crate) fn canonical_bits(n: f64) -> u64 {
    if n.is_nan() {
        f64::NAN.to_bits()
    } else {
        (n + 0.0).to_bits()
    }
}

/// Equality key of a non-NULL [`Value`]: what the column index files row ids
/// under and what join, GROUP BY and DISTINCT compare. Two values share a key
/// exactly when they are the same number (`-0.0` is `0.0`, every NaN is one
/// NaN) or the same text up to ASCII case. A number's key is a plain `u64`,
/// so deriving and looking one up allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// A number, by its canonical bits.
    Num(u64),
    /// Text, ASCII-lowercased.
    Text(String),
}

/// `%`-wildcard pattern matching used for SQL `LIKE`, up to ASCII case: the
/// pattern's fragments between `%`s are matched greedily in order, the first
/// as a prefix, the last as a suffix of what the others left, and each
/// middle one at its leftmost place.
fn like_match(s: &[u8], pattern: &[u8]) -> bool {
    let mut parts = pattern.split(|&b| b == b'%');
    let first = parts.next().unwrap_or_default();
    let mut parts = parts.peekable();
    if parts.peek().is_none() {
        return s.eq_ignore_ascii_case(pattern);
    }
    if s.len() < first.len() || !s[..first.len()].eq_ignore_ascii_case(first) {
        return false;
    }
    let mut rest = &s[first.len()..];
    while let Some(part) = parts.next() {
        if part.is_empty() {
            continue;
        }
        if parts.peek().is_none() {
            return rest.len() >= part.len()
                && rest[rest.len() - part.len()..].eq_ignore_ascii_case(part);
        }
        match rest.windows(part.len()).position(|w| w.eq_ignore_ascii_case(part)) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    true
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Number(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b || (a.is_nan() && b.is_nan()),
            _ => false,
        }
    }
}

// `PartialEq` above is a total equivalence: NaN equals NaN, so reflexivity
// holds and `Eq` is sound.
impl Eq for Value {}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Number(n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::Text.to_string(), "text");
        assert_eq!(DataType::Number.to_string(), "number");
    }

    #[test]
    fn value_constructors_and_types() {
        assert_eq!(Value::text("abc").data_type(), Some(DataType::Text));
        assert_eq!(Value::int(3).data_type(), Some(DataType::Number));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn sql_eq_is_case_insensitive_for_text() {
        assert!(Value::text("Tom Hanks").sql_eq(&Value::text("tom hanks")));
        assert!(!Value::text("Tom").sql_eq(&Value::text("Tim")));
    }

    #[test]
    fn sql_eq_null_never_equal() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::int(1)));
    }

    #[test]
    fn sql_cmp_numbers_and_text() {
        assert_eq!(Value::int(1994).sql_cmp(&Value::int(1995)), Some(Ordering::Less));
        assert_eq!(Value::text("b").sql_cmp(&Value::text("A")), Some(Ordering::Greater));
        assert_eq!(Value::text("AbC").sql_cmp(&Value::text("aBc")), Some(Ordering::Equal));
        assert_eq!(Value::text("ab").sql_cmp(&Value::text("AB_")), Some(Ordering::Less));
        assert_eq!(Value::text("Z").sql_cmp(&Value::text("_")), Some(Ordering::Greater));
        assert_eq!(Value::int(1).sql_cmp(&Value::text("a")), None);
        assert_eq!(Value::Null.sql_cmp(&Value::int(1)), None);
    }

    #[test]
    fn like_matching() {
        assert!(Value::text("SIGMOD 2020").sql_like("%sigmod%"));
        assert!(Value::text("SIGMOD 2020").sql_like("sigmod%"));
        assert!(Value::text("SIGMOD 2020").sql_like("%2020"));
        assert!(!Value::text("VLDB 2020").sql_like("%sigmod%"));
        assert!(Value::text("abc").sql_like("abc"));
        assert!(!Value::int(1956).sql_like("%1956%"));
        // Case folds on both sides; a suffix may not reuse what a middle
        // fragment matched; `%` alone, `%%` and the empty pattern.
        assert!(Value::text("Data Mining").sql_like("%MINING"));
        assert!(Value::text("ab").sql_like("%A%b"));
        assert!(!Value::text("ab").sql_like("%ab%b"));
        assert!(!Value::text("aba").sql_like("%ab%ba"));
        assert!(Value::text("x").sql_like("%") && Value::text("").sql_like("%%"));
        assert!(Value::text("").sql_like("") && !Value::text("a").sql_like(""));
        // Only ASCII folds, as in `to_ascii_lowercase`.
        assert!(Value::text("Émile Zola").sql_like("%ÉMILE%"));
        assert!(!Value::text("émile zola").sql_like("%ÉMILE%"));
        assert!(!Value::text("a").sql_like("ab%") && !Value::text("a").sql_like("%ba"));
    }

    /// `LIKE` as it was written before it folded in place: both sides
    /// lowercased into new strings and the pattern split into a vector.
    fn lowercasing_like(s: &str, pattern: &str) -> bool {
        let (s, pattern) = (s.to_ascii_lowercase(), pattern.to_ascii_lowercase());
        let parts: Vec<&str> = pattern.split('%').collect();
        if parts.len() == 1 {
            return s == pattern;
        }
        let mut pos = 0usize;
        for (i, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                if !s.starts_with(part) {
                    return false;
                }
                pos = part.len();
            } else if i == parts.len() - 1 {
                return s[pos..].ends_with(part);
            } else {
                match s[pos..].find(part) {
                    Some(idx) => pos += idx + part.len(),
                    None => return false,
                }
            }
        }
        true
    }

    #[test]
    fn like_matches_the_lowercasing_match_on_generated_text() {
        let alphabet = ['a', 'A', 'b', 'B', '%', 'é', 'É', ' '];
        let mut state = 0x853c_49e6_748f_ea9b_u64;
        let mut word = |max: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % (max + 1)) as usize;
            (0..len).map(|i| alphabet[((state >> (3 * i + 8)) % 8) as usize]).collect::<String>()
        };
        let (mut matched, mut cases) = (0, 0);
        for _ in 0..20_000 {
            let (text, pattern) = (word(7).replace('%', "a"), word(6));
            let like = Value::text(text.clone()).sql_like(&pattern);
            assert_eq!(like, lowercasing_like(&text, &pattern), "{text:?} LIKE {pattern:?}");
            (matched, cases) = (matched + usize::from(like), cases + 1);
        }
        assert!(matched > cases / 20 && matched < cases / 2, "{matched} of {cases} matched");
    }

    /// `Value::group_key` as it was until [`Key`] replaced it (with its
    /// helper), verbatim: the reference [`Value::key`] is held to.
    fn group_key(v: &Value) -> String {
        /// Render a float without trailing noise so equal numbers hash identically.
        fn canonical_f64(n: f64) -> String {
            if n == n.trunc() && n.abs() < 1e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }
        }
        match v {
            Value::Null => "\u{0}null".to_string(),
            Value::Number(n) => format!("n:{}", canonical_f64(*n)),
            Value::Text(s) => format!("t:{}", s.to_ascii_lowercase()),
        }
    }

    fn hash_of(key: &impl std::hash::Hash) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn keys_are_equal_exactly_when_the_old_group_keys_were() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut values = vec![Value::Null];
        let numbers = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            1e15,
            f64::from_bits(1e15_f64.to_bits() - 1),
            f64::from_bits(1e15_f64.to_bits() + 1),
            -1e15,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            42.0,
            -42.0,
            1994.5,
            -1994.5,
            0.1 + 0.2,
            0.3,
        ];
        values.extend(numbers.map(Value::Number));
        // ASCII case folds; non-ASCII case and an embedded separator do not.
        let texts =
            ["", "sigmod", "SIGMOD", "SigMod", "é", "É", "a\u{1}t:b", "A\u{1}T:B", "a", "n:1"];
        values.extend(texts.map(Value::text));

        let mut equal_pairs = 0;
        for a in &values {
            for b in &values {
                let same = group_key(a) == group_key(b);
                assert_eq!(a.key() == b.key(), same, "{a:?} vs {b:?}");
                if same {
                    assert_eq!(hash_of(&a.key()), hash_of(&b.key()), "{a:?} vs {b:?}");
                    equal_pairs += 1;
                }
            }
        }
        assert!(equal_pairs > values.len(), "some distinct values must share a key");
        assert_eq!(Value::Null.key(), None);
        assert_eq!(Value::int(3).key(), Some(Key::Num(3.0_f64.to_bits())));
        assert_eq!(Value::text("Tom").key(), Some(Key::Text("tom".into())));
    }

    /// Where the typed key is deliberately *finer* than the string it
    /// replaces: the executor joined the per-cell strings of a composite
    /// GROUP BY / DISTINCT key with `\u{1}`, so a cell containing the
    /// separator could merge two groups. A `Vec<Option<Key>>` cannot.
    #[test]
    fn composite_keys_keep_their_cell_boundaries() {
        let left = [Value::text("a\u{1}t:b"), Value::text("c")];
        let right = [Value::text("a"), Value::text("b\u{1}t:c")];
        let joined =
            |cells: &[Value]| cells.iter().map(group_key).collect::<Vec<_>>().join("\u{1}");
        assert_eq!(joined(&left), joined(&right), "the old composite string conflated them");
        let typed = |cells: &[Value]| cells.iter().map(Value::key).collect::<Vec<_>>();
        assert_ne!(typed(&left), typed(&right));
    }

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vals = [Value::text("z"), Value::Null, Value::int(4), Value::int(2)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::int(2));
        assert_eq!(vals[3], Value::text("z"));
    }

    #[test]
    fn display_quotes_text() {
        assert_eq!(Value::text("O'Brien").to_string(), "'O''Brien'");
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::Number(2.5).to_string(), "2.5");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(5i64), Value::int(5));
        assert_eq!(Value::from(5i32), Value::int(5));
        assert_eq!(Value::from(1.5f64), Value::Number(1.5));
    }
}
