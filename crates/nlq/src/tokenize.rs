//! NLQ tokenization and normalization.

use crate::literals::Literal;

/// Common English stop words removed before matching tokens against schema names.
const STOP_WORDS: [&str; 32] = [
    "a", "an", "the", "of", "in", "on", "for", "to", "and", "or", "with", "by", "from", "at", "is",
    "are", "was", "were", "be", "been", "their", "its", "his", "her", "each", "every", "all",
    "that", "those", "these", "which", "who",
];

/// A tokenized natural language query together with its tagged literal values.
///
/// In the paper the literal values `L` are a subset of the NLQ tokens obtained
/// through the autocomplete-based tagging interface (§2.3); here they are
/// carried explicitly on the [`Nlq`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Nlq {
    /// The raw query text.
    pub text: String,
    /// Normalized tokens (lowercased, stop words removed, lightly stemmed).
    pub tokens: Vec<String>,
    /// Tagged literal values.
    pub literals: Vec<Literal>,
}

impl Nlq {
    /// Tokenize a query with no tagged literals.
    pub fn new(text: impl Into<String>) -> Self {
        let text = text.into();
        let tokens = tokenize(&text);
        Nlq { text, tokens, literals: Vec::new() }
    }

    /// Tokenize a query and attach tagged literals.
    pub fn with_literals(text: impl Into<String>, literals: Vec<Literal>) -> Self {
        let mut nlq = Nlq::new(text);
        nlq.literals = literals;
        nlq
    }

    /// Whether a normalized token occurs in the query.
    pub fn contains_token(&self, token: &str) -> bool {
        let t = normalize_token(token);
        self.tokens.contains(&t)
    }

    /// Whether any of the given phrases occurs in the raw text (case-insensitive).
    pub fn contains_phrase(&self, phrases: &[&str]) -> bool {
        any_phrase_in(&self.text.to_ascii_lowercase(), phrases)
    }
}

/// Whether any of the (lower-case) phrases occurs in already lower-cased
/// text. Callers testing many phrase lists lower-case once and call this;
/// [`Nlq::contains_phrase`] lower-cases per call.
pub(crate) fn any_phrase_in(lower: &str, phrases: &[&str]) -> bool {
    phrases.iter().any(|p| lower.contains(p))
}

/// Tokenize and normalize a sentence.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric() && c != '\'')
        .filter(|s| !s.is_empty())
        .map(normalize_token)
        .filter(|t| !t.is_empty() && !STOP_WORDS.contains(&t.as_str()))
        .collect()
}

/// Lowercase and lightly stem one token (strip plural/verb suffixes).
pub fn normalize_token(token: &str) -> String {
    let t = token.trim_matches('\'').to_ascii_lowercase();
    stem(&t)
}

/// A deliberately small stemmer: enough to make `publications` match
/// `publication` and `starring` match `star`, without external NLP crates.
fn stem(t: &str) -> String {
    if t.len() > 3 && t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") {
        return t[..t.len() - 1].to_string();
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::Value;

    #[test]
    fn tokenize_removes_stop_words_and_lowercases() {
        let tokens = tokenize("Show the names of all movies from before 1995");
        assert!(tokens.contains(&"name".to_string()));
        assert!(tokens.contains(&"movie".to_string()));
        assert!(tokens.contains(&"1995".to_string()));
        assert!(!tokens.contains(&"the".to_string()));
        assert!(!tokens.contains(&"of".to_string()));
    }

    #[test]
    fn stemming_folds_plurals() {
        assert_eq!(normalize_token("publications"), "publication");
        assert_eq!(normalize_token("movies"), "movie");
        assert_eq!(normalize_token("conferences"), "conference");
        assert_eq!(normalize_token("years"), "year");
        assert_eq!(normalize_token("class"), "class");
    }

    #[test]
    fn nlq_token_and_phrase_queries() {
        let nlq = Nlq::new("List keywords and the number of publications containing each");
        assert!(nlq.contains_token("keyword"));
        assert!(nlq.contains_token("publications"));
        assert!(nlq.contains_phrase(&["number of"]));
        assert!(!nlq.contains_phrase(&["more than"]));
    }

    #[test]
    fn nlq_with_literals() {
        let lit = Literal::text("SIGMOD", Value::text("SIGMOD"));
        let nlq = Nlq::with_literals("publications in \"SIGMOD\"", vec![lit.clone()]);
        assert_eq!(nlq.literals, vec![lit]);
    }

    #[test]
    fn stem_stability() {
        // Stemming the same token twice is a no-op.
        for token in ["publications", "years", "authors", "organizations"] {
            let once = normalize_token(token);
            assert_eq!(normalize_token(&once), once);
        }
    }
}
