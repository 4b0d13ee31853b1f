//! `extract_literals` tags exactly what it tagged when it rebuilt and
//! lowercased every n-gram window: the 14 MAS study NLQs, every Spider dev
//! NLQ and a set of hand-written edge cases give byte-identical literal
//! lists under the current implementation and under a copy of that one.

use duoquest::db::{Database, Value};
use duoquest::nlq::{extract_literals, Literal, LiteralKind};
use duoquest::workloads::{mas, mas_nli_tasks, mas_pbe_tasks, spider};
use std::time::Instant;

/// `extract_literals` as it was written before it reused its window buffers:
/// every window joined into a new string and lowercased, and every tagged
/// literal's surface lowercased again for every window.
fn rebuilding(text: &str, db: Option<&Database>) -> Vec<Literal> {
    let mut out: Vec<Literal> = Vec::new();
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
    let finite = |token: &str| token.parse::<f64>().ok().filter(|n| n.is_finite());
    for token in text.split(|c: char| !c.is_alphanumeric() && c != '.' && c != '-') {
        if token.is_empty() {
            continue;
        }
        if let Some(n) = finite(token) {
            if !out.iter().any(|l| l.kind == LiteralKind::Number && l.value == Value::Number(n)) {
                out.push(Literal::number(n));
            }
        }
    }
    if let Some(db) = db {
        let words: Vec<&str> = text
            .split(|c: char| !c.is_alphanumeric() && c != '\'')
            .filter(|s| !s.is_empty())
            .collect();
        for n in (1..=4usize).rev() {
            for window in words.windows(n) {
                let candidate = window.join(" ");
                if finite(&candidate).is_some() {
                    continue;
                }
                let lowered = candidate.to_ascii_lowercase();
                if db.index().contains(&lowered)
                    && !out.iter().any(|l| l.surface.to_ascii_lowercase().contains(&lowered))
                {
                    out.push(Literal::text(candidate.clone(), Value::text(candidate)));
                }
            }
        }
    }
    out
}

/// Both implementations over `nlqs`, asserted equal; the fastest of five
/// alternating passes of each, in µs.
fn compare(nlqs: &[(&str, &Database)]) -> (u128, u128) {
    let (mut reference, mut current) = (u128::MAX, u128::MAX);
    for _ in 0..5 {
        let start = Instant::now();
        let expected: Vec<_> = nlqs.iter().map(|(text, db)| rebuilding(text, Some(db))).collect();
        reference = reference.min(start.elapsed().as_micros());
        let start = Instant::now();
        let got: Vec<_> = nlqs.iter().map(|(text, db)| extract_literals(text, Some(db))).collect();
        current = current.min(start.elapsed().as_micros());
        for (((text, _), expected), got) in nlqs.iter().zip(&expected).zip(&got) {
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{text}");
        }
    }
    (reference, current)
}

#[test]
fn literals_equal_the_rebuilding_extraction() {
    let dataset = mas::generate(42, 8.0);
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));
    assert_eq!(tasks.len(), 14);
    let db = &*dataset.db;
    let mut nlqs: Vec<(&str, &Database)> =
        tasks.iter().map(|t| (t.nlq.text.as_str(), db)).collect();
    let (reference, current) = compare(&nlqs);
    println!("14 MAS NLQs: {reference} µs rebuilding every window, {current} µs now");

    // Case, quotes, apostrophes, numbers (finite and not), repeated words
    // and words that only match as part of a longer tagged value.
    let name = dataset.author_a.clone();
    let edge = [
        format!("papers by {} and {}", name.to_ascii_uppercase(), name.to_ascii_lowercase()),
        format!("\"{name}\" wrote with {name} in 2010 or 2010.5 or -3 or 1e3, not NaN or inf"),
        format!("{name}'s papers in {} '{}' since 2001", dataset.conference_c, dataset.domain_d),
        format!("{}  {}, {} .. {}", dataset.organization_r, name, name, dataset.conference_c),
        String::new(),
        "\"unclosed quote about 12".to_string(),
        "é ü 7 ß".to_string(),
    ];
    nlqs.extend(edge.iter().map(|text| (text.as_str(), db)));
    compare(&nlqs);

    let spider = spider::generate_dev(42);
    let nlqs: Vec<(&str, &Database)> =
        spider.tasks.iter().map(|t| (t.nlq.text.as_str(), &**spider.database(t))).collect();
    let (reference, current) = compare(&nlqs);
    println!(
        "{} Spider dev NLQs: {reference} µs rebuilding every window, {current} µs now",
        nlqs.len()
    );
}
