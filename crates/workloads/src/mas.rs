//! A seeded generator for a Microsoft-Academic-Search-like database.
//!
//! The user studies of the paper run on the MAS database (15 tables,
//! 44 columns, 19 FK-PK relationships after the authors' trimming — paper
//! Table 5). The real MAS snapshot is not redistributable, so this module
//! generates a synthetic database with the same schema shape and with data
//! engineered so that every user-study task of Tables 7/8 has a non-empty
//! result (see DESIGN.md §3).

use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generated MAS-like dataset: the loaded database plus the entity names
/// the user-study tasks refer to. The database is `Arc`-shared so synthesis
/// sessions (and their worker pools) can reference it without copying rows.
#[derive(Debug, Clone)]
pub struct MasDataset {
    /// The loaded, indexed database, shared across sessions.
    pub db: std::sync::Arc<Database>,
    /// The conference used as "conference C" in the tasks.
    pub conference_c: String,
    /// The author used as "author A".
    pub author_a: String,
    /// The organization used as "organization R".
    pub organization_r: String,
    /// The domain used as "domain D".
    pub domain_d: String,
    /// The continent used in task D2.
    pub continent: String,
    /// HAVING threshold for "journals with more than N publications" (A4).
    pub journal_pub_threshold: i64,
    /// HAVING threshold for "organizations with more than N authors" (B3).
    pub org_author_threshold: i64,
    /// HAVING threshold for "authors ... with more than N publications" (B4).
    pub author_pub_threshold: i64,
    /// HAVING threshold for "authors with more than N papers in conference C" (C3).
    pub conf_paper_threshold_c3: i64,
    /// HAVING threshold for task D3.
    pub conf_paper_threshold_d3: i64,
}

/// Build the MAS schema (15 tables, 19 FK-PK relationships).
pub fn mas_schema() -> Schema {
    let mut s = Schema::new("mas");
    s.add_table(TableDef::new(
        "author",
        vec![
            ColumnDef::number("aid"),
            ColumnDef::text("name"),
            ColumnDef::text("homepage"),
            ColumnDef::number("oid"),
        ],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "conference",
        vec![ColumnDef::number("cid"), ColumnDef::text("name"), ColumnDef::text("homepage")],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "domain",
        vec![ColumnDef::number("did"), ColumnDef::text("name")],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "domain_author",
        vec![ColumnDef::number("aid"), ColumnDef::number("did")],
        None,
    ));
    s.add_table(TableDef::new(
        "domain_conference",
        vec![ColumnDef::number("cid"), ColumnDef::number("did")],
        None,
    ));
    s.add_table(TableDef::new(
        "domain_journal",
        vec![ColumnDef::number("jid"), ColumnDef::number("did")],
        None,
    ));
    s.add_table(TableDef::new(
        "domain_keyword",
        vec![ColumnDef::number("kid"), ColumnDef::number("did")],
        None,
    ));
    s.add_table(TableDef::new(
        "domain_publication",
        vec![ColumnDef::number("did"), ColumnDef::number("pid")],
        None,
    ));
    s.add_table(TableDef::new(
        "journal",
        vec![ColumnDef::number("jid"), ColumnDef::text("name"), ColumnDef::text("homepage")],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "keyword",
        vec![ColumnDef::number("kid"), ColumnDef::text("keyword")],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "organization",
        vec![
            ColumnDef::number("oid"),
            ColumnDef::text("name"),
            ColumnDef::text("continent"),
            ColumnDef::text("homepage"),
        ],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "publication",
        vec![
            ColumnDef::number("pid"),
            ColumnDef::text("title"),
            ColumnDef::text("abstract"),
            ColumnDef::number("year"),
            ColumnDef::number("citation_num"),
            ColumnDef::number("reference_num"),
            ColumnDef::number("cid"),
            ColumnDef::number("jid"),
        ],
        Some(0),
    ));
    s.add_table(TableDef::new(
        "publication_keyword",
        vec![ColumnDef::number("pid"), ColumnDef::number("kid")],
        None,
    ));
    s.add_table(TableDef::new(
        "writes",
        vec![ColumnDef::number("aid"), ColumnDef::number("pid")],
        None,
    ));
    s.add_table(TableDef::new(
        "cite",
        vec![ColumnDef::number("citing"), ColumnDef::number("cited")],
        None,
    ));

    for (ft, fc, tt, tc) in [
        ("author", "oid", "organization", "oid"),
        ("domain_author", "aid", "author", "aid"),
        ("domain_author", "did", "domain", "did"),
        ("domain_conference", "cid", "conference", "cid"),
        ("domain_conference", "did", "domain", "did"),
        ("domain_journal", "jid", "journal", "jid"),
        ("domain_journal", "did", "domain", "did"),
        ("domain_keyword", "kid", "keyword", "kid"),
        ("domain_keyword", "did", "domain", "did"),
        ("domain_publication", "did", "domain", "did"),
        ("domain_publication", "pid", "publication", "pid"),
        ("publication", "cid", "conference", "cid"),
        ("publication", "jid", "journal", "jid"),
        ("publication_keyword", "pid", "publication", "pid"),
        ("publication_keyword", "kid", "keyword", "kid"),
        ("writes", "aid", "author", "aid"),
        ("writes", "pid", "publication", "pid"),
        ("cite", "citing", "publication", "pid"),
        ("cite", "cited", "publication", "pid"),
    ] {
        s.add_foreign_key(ft, fc, tt, tc).expect("valid MAS foreign key");
    }
    s
}

/// Generate the MAS-like dataset. `scale` multiplies the entity counts
/// (1.0 ≈ a few hundred publications; large enough to exercise verification,
/// small enough for interactive experiments).
pub fn generate(seed: u64, scale: f64) -> MasDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = mas_schema();
    // Rows are kept per table in the order they are drawn and loaded with
    // one `insert_all` per table, which sorts each column's index once.
    let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); schema.table_count()];
    let mut insert = |table: &str, row: Vec<Value>| {
        rows[schema.table_id(table).expect("a MAS table").0].push(row);
    };

    let n = |base: usize| ((base as f64 * scale).round() as usize).max(4);

    let domains = [
        "Databases",
        "Machine Learning",
        "Systems",
        "Theory",
        "Networking",
        "Graphics",
        "Security",
        "Human Computer Interaction",
    ];
    for (i, d) in domains.iter().enumerate() {
        insert("domain", vec![Value::int(i as i64 + 1), Value::text(*d)]);
    }

    let continents = ["North America", "Europe", "Asia"];
    let n_orgs = n(8);
    for i in 0..n_orgs {
        let name = if i == 0 {
            "University of Michigan".to_string()
        } else {
            format!("Research Institute {i:02}")
        };
        let continent = continents[i % continents.len()];
        insert(
            "organization",
            vec![
                Value::int(i as i64 + 1),
                Value::text(name),
                Value::text(continent),
                Value::text(format!("http://org{i}.example.edu")),
            ],
        );
    }

    let n_authors = n(40);
    for i in 0..n_authors {
        let name = if i == 0 { "Alice Smith".to_string() } else { format!("Author {i:03}") };
        // The first 12 authors belong to organization R (University of Michigan).
        let oid = if i < 12 { 1 } else { (rng.gen_range(0..n_orgs) + 1) as i64 };
        insert(
            "author",
            vec![
                Value::int(i as i64 + 1),
                Value::text(name),
                Value::text(format!("http://people.example.edu/a{i}")),
                Value::int(oid),
            ],
        );
        // Domain membership: authors 0..20 are in "Databases".
        let did = if i < 20 { 1 } else { (rng.gen_range(0..domains.len()) + 1) as i64 };
        insert("domain_author", vec![Value::int(i as i64 + 1), Value::int(did)]);
    }

    let conferences = ["SIGMOD", "VLDB", "ICDE", "KDD", "SOSP", "NSDI", "CHI", "S&P"];
    let n_confs = conferences.len();
    for (i, c) in conferences.iter().enumerate() {
        insert(
            "conference",
            vec![
                Value::int(i as i64 + 1),
                Value::text(*c),
                Value::text(format!("http://{}.example.org", c.to_ascii_lowercase())),
            ],
        );
        let did = if i < 3 { 1 } else { (i % domains.len()) as i64 + 1 };
        insert("domain_conference", vec![Value::int(i as i64 + 1), Value::int(did)]);
    }

    let journals = ["TODS", "TKDE", "VLDB Journal", "JMLR"];
    for (i, j) in journals.iter().enumerate() {
        insert(
            "journal",
            vec![
                Value::int(i as i64 + 1),
                Value::text(*j),
                Value::text(format!("http://journal{i}.example.org")),
            ],
        );
        let did = if i < 3 { 1 } else { 2 };
        insert("domain_journal", vec![Value::int(i as i64 + 1), Value::int(did)]);
    }

    let keywords = [
        "query processing",
        "machine learning",
        "transactions",
        "indexing",
        "natural language",
        "program synthesis",
        "distributed systems",
        "privacy",
        "data integration",
        "crowdsourcing",
    ];
    for (i, k) in keywords.iter().enumerate() {
        insert("keyword", vec![Value::int(i as i64 + 1), Value::text(*k)]);
        let did = if i < 5 { 1 } else { (i % domains.len()) as i64 + 1 };
        insert("domain_keyword", vec![Value::int(i as i64 + 1), Value::int(did)]);
    }

    // Publications: the first journal (TODS) receives a guaranteed block so the
    // "more than N publications" journal task (A4) is non-empty, and SIGMOD
    // (conference 1) receives a large block for the conference tasks.
    let n_pubs = n(240);
    let journal_block = 18usize;
    for i in 0..n_pubs {
        let pid = i as i64 + 1;
        let year = rng.gen_range(1985..=2022);
        let (cid, jid) = if i < journal_block {
            (Value::Null, Value::int(1))
        } else if i < journal_block + 60 {
            (Value::int(1), Value::Null) // SIGMOD block
        } else if rng.gen_bool(0.8) {
            (Value::int(rng.gen_range(1..=n_confs as i64)), Value::Null)
        } else {
            (Value::Null, Value::int(rng.gen_range(1..=journals.len() as i64)))
        };
        insert(
            "publication",
            vec![
                Value::int(pid),
                Value::text(format!("Paper {pid:04}")),
                Value::text(format!("Abstract of paper {pid:04}")),
                Value::int(year),
                Value::int(rng.gen_range(0..400)),
                Value::int(rng.gen_range(5..60)),
                cid,
                jid,
            ],
        );
        // Keywords and domain membership.
        let kid = rng.gen_range(1..=keywords.len() as i64);
        insert("publication_keyword", vec![Value::int(pid), Value::int(kid)]);
        insert(
            "domain_publication",
            vec![Value::int(rng.gen_range(1..=domains.len() as i64)), Value::int(pid)],
        );
    }

    // Authorship: the first 6 authors (all from organization R, all in the
    // Databases domain, Alice Smith among them) each write a guaranteed block
    // of SIGMOD papers so the HAVING tasks (B4, C3, D3) are non-empty.
    let sigmod_start = journal_block as i64 + 1;
    for a in 0..6i64 {
        for k in 0..6i64 {
            let pid = sigmod_start + a * 6 + k;
            insert("writes", vec![Value::int(a + 1), Value::int(pid)]);
        }
    }
    // Remaining publications get 1–3 random authors.
    for pid in 1..=n_pubs as i64 {
        if pid >= sigmod_start && pid < sigmod_start + 36 {
            continue; // already assigned above
        }
        let n_auth = rng.gen_range(1..=3);
        for _ in 0..n_auth {
            let aid = rng.gen_range(1..=n_authors as i64);
            insert("writes", vec![Value::int(aid), Value::int(pid)]);
        }
    }

    // Citations.
    for _ in 0..n_pubs {
        let citing = rng.gen_range(1..=n_pubs as i64);
        let cited = rng.gen_range(1..=n_pubs as i64);
        if citing != cited {
            insert("cite", vec![Value::int(citing), Value::int(cited)]);
        }
    }

    let names: Vec<String> = schema.tables.iter().map(|t| t.name.clone()).collect();
    let mut db = Database::new(schema).expect("MAS schema is valid");
    for (name, rows) in names.iter().zip(rows) {
        db.insert_all(name, rows).expect("MAS rows fit their tables");
    }
    MasDataset {
        db: db.into_shared(),
        conference_c: "SIGMOD".to_string(),
        author_a: "Alice Smith".to_string(),
        organization_r: "University of Michigan".to_string(),
        domain_d: "Databases".to_string(),
        continent: "North America".to_string(),
        journal_pub_threshold: 10,
        org_author_threshold: 8,
        author_pub_threshold: 3,
        conf_paper_threshold_c3: 2,
        conf_paper_threshold_d3: 3,
    }
}

impl MasDataset {
    /// Generate with the default seed and scale.
    pub fn standard() -> Self {
        generate(42, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::execute;
    use duoquest_sql::parse_query;

    #[test]
    fn schema_shape_matches_table_5() {
        let s = mas_schema();
        assert_eq!(s.table_count(), 15);
        assert_eq!(s.foreign_key_count(), 19);
        assert!(s.column_count() >= 40 && s.column_count() <= 48, "{}", s.column_count());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(7, 0.5);
        let b = generate(7, 0.5);
        assert_eq!(a.db.total_rows(), b.db.total_rows());
        assert_ne!(a.db.total_rows(), generate(8, 0.5).db.total_rows());
    }

    #[test]
    fn focus_entities_exist_and_tasks_are_satisfiable() {
        let mas = MasDataset::standard();
        let db = &mas.db;
        assert!(db.index().contains(&mas.conference_c));
        assert!(db.index().contains(&mas.author_a));
        assert!(db.index().contains(&mas.organization_r));
        assert!(db.index().contains(&mas.domain_d));

        // Task B4-style query must be non-empty with the configured threshold.
        let sql = format!(
            "SELECT t1.name, COUNT(*) FROM author AS t1 JOIN writes AS t2 ON t1.aid = t2.aid \
             JOIN organization AS t3 ON t1.oid = t3.oid JOIN publication AS t4 ON t2.pid = t4.pid \
             WHERE t3.name = '{}' GROUP BY t1.name HAVING COUNT(*) > {}",
            mas.organization_r, mas.author_pub_threshold
        );
        let spec = parse_query(db.schema(), &sql).unwrap();
        let rs = execute(db, &spec).unwrap();
        assert!(!rs.is_empty());

        // Journals with more than N publications (A4).
        let sql = format!(
            "SELECT t1.name, COUNT(*) FROM journal AS t1 JOIN publication AS t2 ON t1.jid = t2.jid \
             GROUP BY t1.name HAVING COUNT(*) > {}",
            mas.journal_pub_threshold
        );
        let spec = parse_query(db.schema(), &sql).unwrap();
        assert!(!execute(db, &spec).unwrap().is_empty());

        // Organizations with more than N authors (B3).
        let sql = format!(
            "SELECT t2.name, COUNT(*) FROM author AS t1 JOIN organization AS t2 ON t1.oid = t2.oid \
             GROUP BY t2.name HAVING COUNT(*) > {}",
            mas.org_author_threshold
        );
        let spec = parse_query(db.schema(), &sql).unwrap();
        assert!(!execute(db, &spec).unwrap().is_empty());
    }
}
