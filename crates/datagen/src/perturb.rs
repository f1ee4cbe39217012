//! Dr.Spider-style robustness perturbations (paper §3 lists Dr.Spider in
//! the benchmark repository; this module implements its three diagnostic
//! angles as corpus transformations).
//!
//! * **NL perturbation** — the canonical question is replaced by a
//!   different surface form with synonym comparators, as Dr.Spider's NLQ
//!   post-perturbation sets do.
//! * **Schema perturbation** — tables and attribute columns are renamed to
//!   synonyms in a *copy* of each dev database, and the gold SQL is
//!   rewritten to match, so the gold stays executable while any
//!   linking that memorized the original names breaks.
//! * **DB-content perturbation** — text values are re-cased/padded in the
//!   database copy and in the gold SQL literals, while the NL question
//!   keeps the original spelling, defeating exact string matching.
//!
//! Perturbed samples carry a [`Perturbation`] tag that the simulated model
//! profiles translate into the class-specific robustness drops Dr.Spider
//! reports.

use crate::dataset::Corpus;
use crate::dbgen::GeneratedDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqlkit::ast::*;
use std::collections::BTreeMap;

/// The three Dr.Spider perturbation families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Perturbation {
    /// Question rephrased (synonyms, different template).
    NlParaphrase,
    /// Schema identifiers renamed to synonyms.
    SchemaSynonym,
    /// Database content re-cased / padded.
    DbContentReplace,
}

impl Perturbation {
    /// All perturbation families.
    pub const ALL: [Perturbation; 3] =
        [Perturbation::NlParaphrase, Perturbation::SchemaSynonym, Perturbation::DbContentReplace];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Perturbation::NlParaphrase => "NL paraphrase",
            Perturbation::SchemaSynonym => "schema synonyms",
            Perturbation::DbContentReplace => "DB content",
        }
    }
}

/// Synonym dictionary for attribute columns (Dr.Spider uses crowd-sourced
/// synonyms; this is the deterministic stand-in).
fn column_synonym(name: &str) -> String {
    match name {
        "name" => "full_name".into(),
        "title" => "heading".into(),
        "age" => "age_years".into(),
        "year" => "calendar_year".into(),
        "city" => "municipality".into(),
        "country" => "nation".into(),
        "salary" => "compensation".into(),
        "price" => "cost_amount".into(),
        "rating" => "score_value".into(),
        "capacity" => "max_capacity".into(),
        "status" => "current_status".into(),
        "category" => "classification".into(),
        "budget" => "allocated_funds".into(),
        "population" => "inhabitant_count".into(),
        other => format!("{other}_field"),
    }
}

/// Synonym dictionary for table names.
fn table_synonym(name: &str) -> String {
    match name {
        "singer" => "vocalist".into(),
        "student" => "pupil".into(),
        "teacher" => "instructor".into(),
        "film" => "motion_picture".into(),
        "concert" => "live_show".into(),
        "doctor" => "physician".into(),
        "patient" => "care_recipient".into(),
        "player" => "athlete".into(),
        "book" => "publication_item".into(),
        other => format!("{other}_tbl"),
    }
}

/// Apply one perturbation family to the dev split of `corpus`, returning a
/// new corpus (train split untouched). Samples gain the matching
/// [`Perturbation`] tag.
pub fn perturb_corpus(corpus: &Corpus, kind: Perturbation, seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        Perturbation::NlParaphrase => perturb_nl(corpus, &mut rng),
        Perturbation::SchemaSynonym => perturb_schema(corpus),
        Perturbation::DbContentReplace => perturb_content(corpus, &mut rng),
    }
}

fn perturb_nl(corpus: &Corpus, rng: &mut StdRng) -> Corpus {
    let mut out = corpus.clone();
    for s in &mut out.dev {
        // promote a non-canonical variant when available; otherwise apply a
        // light lexical rewrite to the canonical question
        if s.variants.len() >= 2 {
            let pick = 1 + (rng.gen::<usize>() % (s.variants.len() - 1));
            s.variants.swap(0, pick);
        } else {
            let rewritten = lexical_rewrite(&s.variants[0]);
            s.variants[0] = rewritten;
        }
        s.perturbation = Some(Perturbation::NlParaphrase);
    }
    out
}

/// Simple synonym-level rewrite of a question's comparator phrases.
fn lexical_rewrite(q: &str) -> String {
    q.replace("greater than", "above")
        .replace("less than", "below")
        .replace("at least", "no less than")
        .replace("at most", "no more than")
        .replace("What are", "Which are")
        .replace("sorted by", "ranked by")
}

fn perturb_schema(corpus: &Corpus) -> Corpus {
    let mut out = corpus.clone();
    // rename every dev database's identifiers and rewrite gold queries
    let mut renamed_dbs: BTreeMap<String, GeneratedDb> = BTreeMap::new();
    let mut table_maps: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut column_maps: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for db_id in &corpus.dev_db_ids {
        let db = &corpus.databases[db_id];
        let (new_db, tmap, cmap) = rename_database(db);
        table_maps.insert(db_id.clone(), tmap);
        column_maps.insert(db_id.clone(), cmap);
        renamed_dbs.insert(db_id.clone(), new_db);
    }
    for (db_id, db) in renamed_dbs {
        out.databases.insert(db_id, db);
    }
    for s in &mut out.dev {
        let tmap = &table_maps[&s.db_id];
        let cmap = &column_maps[&s.db_id];
        rename_query(&mut s.query, tmap, cmap);
        s.sql = sqlkit::to_sql(&s.query);
        s.features = sqlkit::SqlFeatures::of(&s.query);
        s.perturbation = Some(Perturbation::SchemaSynonym);
    }
    out
}

/// Rename a database's tables and attribute columns; returns the renamed
/// copy plus the (old → new) table and column maps. The `id` primary key
/// and FK columns keep their names so join structure stays legible.
fn rename_database(
    db: &GeneratedDb,
) -> (GeneratedDb, BTreeMap<String, String>, BTreeMap<String, String>) {
    let mut tmap = BTreeMap::new();
    let mut cmap = BTreeMap::new();
    for t in db.database.tables() {
        tmap.insert(t.schema.name.clone(), table_synonym(&t.schema.name));
        let fk_cols: Vec<usize> = t.schema.foreign_keys.iter().map(|f| f.column).collect();
        for (i, c) in t.schema.columns.iter().enumerate() {
            if i == 0 || fk_cols.contains(&i) {
                continue;
            }
            cmap.entry(c.name.clone()).or_insert_with(|| column_synonym(&c.name));
        }
    }
    let mut new_database = minidb::Database::new(db.database.name());
    for t in db.database.tables() {
        let mut schema = t.schema.clone();
        schema.name = tmap[&schema.name].clone();
        let fk_cols: Vec<usize> = schema.foreign_keys.iter().map(|f| f.column).collect();
        for (i, c) in schema.columns.iter_mut().enumerate() {
            if i == 0 || fk_cols.contains(&i) {
                continue;
            }
            if let Some(new) = cmap.get(&c.name) {
                c.name = new.clone();
            }
        }
        for fk in &mut schema.foreign_keys {
            if let Some(new) = tmap.get(&fk.ref_table) {
                fk.ref_table = new.clone();
            }
        }
        new_database
            .add_table(
                minidb::database::Table::from_rows(schema, t.to_rows())
                    .expect("renaming does not change cell values"),
            )
            .expect("renamed tables stay unique");
    }
    (
        GeneratedDb { db_id: db.db_id.clone(), domain: db.domain, database: new_database },
        tmap,
        cmap,
    )
}

/// Rewrite a query and its subqueries against the rename maps (aliases
/// stay untouched).
fn rename_query(
    q: &mut Query,
    tmap: &BTreeMap<String, String>,
    cmap: &BTreeMap<String, String>,
) {
    for core in q.cores_mut() {
        for item in &mut core.items {
            if let SelectItem::QualifiedWildcard(t) = item {
                rename(t, tmap);
            }
        }
        for table in core.from.iter_mut().flat_map(FromClause::tables_mut) {
            if let TableRef::Named { name, .. } = table {
                rename(name, tmap);
            }
        }
    }
    q.for_each_child_mut(|c| rename_child(c, tmap, cmap));
}

fn rename_child(
    child: ChildMut<'_>,
    tmap: &BTreeMap<String, String>,
    cmap: &BTreeMap<String, String>,
) {
    match child {
        ChildMut::Query(q) => rename_query(q, tmap, cmap),
        ChildMut::Expr(e) => {
            if let Expr::Column { table, column } = e {
                if let Some(t) = table {
                    rename(t, tmap);
                }
                rename(column, cmap);
            }
            e.for_each_child_mut(|c| rename_child(c, tmap, cmap));
        }
    }
}

fn rename(name: &mut String, map: &BTreeMap<String, String>) {
    if let Some(new) = map.get(name) {
        *name = new.clone();
    }
}

fn perturb_content(corpus: &Corpus, rng: &mut StdRng) -> Corpus {
    let mut out = corpus.clone();
    // per-db map of (old text value → mangled value)
    let mut value_maps: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for db_id in &corpus.dev_db_ids {
        let db = &corpus.databases[db_id];
        let mut vmap: BTreeMap<String, String> = BTreeMap::new();
        let mut new_database = minidb::Database::new(db.database.name());
        for t in db.database.tables() {
            let rows: Vec<Vec<minidb::Value>> = t
                .to_rows()
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|v| match v {
                            minidb::Value::Text(s) if s.len() >= 3 => {
                                let mangled = vmap
                                    .entry(s.clone())
                                    .or_insert_with(|| mangle_value(s, rng))
                                    .clone();
                                minidb::Value::Text(mangled)
                            }
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect();
            new_database
                .add_table(
                    minidb::database::Table::from_rows(t.schema.clone(), rows)
                        .expect("mangling maps text to text"),
                )
                .expect("table names unchanged");
        }
        out.databases.insert(
            db_id.clone(),
            GeneratedDb { db_id: db_id.clone(), domain: db.domain, database: new_database },
        );
        value_maps.insert(db_id.clone(), vmap);
    }
    for s in &mut out.dev {
        let vmap = &value_maps[&s.db_id];
        rewrite_literals(&mut s.query, vmap);
        s.sql = sqlkit::to_sql(&s.query);
        s.perturbation = Some(Perturbation::DbContentReplace);
    }
    out
}

/// Mangle a text value the way dirty production data looks: case changes
/// and stray whitespace.
fn mangle_value(s: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => s.to_uppercase(),
        1 => s.to_lowercase(),
        _ => format!(" {s}"),
    }
}

/// Rewrite string literals in the gold SQL to the mangled values so gold
/// stays correct on the perturbed database. Only WHERE and HAVING are
/// rewritten, and within them neither CASE, function or aggregate
/// arguments, casts, `IS NULL` operands nor LIKE patterns.
fn rewrite_literals(q: &mut Query, vmap: &BTreeMap<String, String>) {
    for core in q.cores_mut() {
        for clause in [&mut core.where_clause, &mut core.having].into_iter().flatten() {
            rewrite_literal_expr(clause, vmap);
        }
    }
}

fn rewrite_literal_expr(e: &mut Expr, vmap: &BTreeMap<String, String>) {
    match e {
        Expr::Literal(Literal::Str(s)) => {
            if let Some(new) = vmap.get(s) {
                *s = new.clone();
            }
        }
        // LIKE patterns contain fragments; leave them (fragment matching
        // is case-insensitive in the engine anyway)
        Expr::Like { expr, .. } => rewrite_literal_expr(expr, vmap),
        Expr::Case { .. }
        | Expr::Func { .. }
        | Expr::Agg { .. }
        | Expr::Cast { .. }
        | Expr::IsNull { .. } => {}
        _ => e.for_each_child_mut(|c| match c {
            ChildMut::Expr(x) => rewrite_literal_expr(x, vmap),
            ChildMut::Query(q) => rewrite_literals(q, vmap),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_corpus, CorpusConfig, CorpusKind};

    fn corpus() -> Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(64))
    }

    #[test]
    fn nl_perturbation_changes_canonical_question() {
        let base = corpus();
        let p = perturb_corpus(&base, Perturbation::NlParaphrase, 1);
        let changed = base
            .dev
            .iter()
            .zip(&p.dev)
            .filter(|(a, b)| a.question() != b.question())
            .count();
        assert!(changed * 10 >= base.dev.len() * 5, "most questions should change: {changed}");
        for s in &p.dev {
            assert_eq!(s.perturbation, Some(Perturbation::NlParaphrase));
            // gold SQL untouched by NL perturbation
            p.db(s).database.run_query(&s.query).expect("gold still executes");
        }
    }

    #[test]
    fn schema_perturbation_keeps_gold_executable_with_same_results() {
        let base = corpus();
        let p = perturb_corpus(&base, Perturbation::SchemaSynonym, 2);
        for (orig, pert) in base.dev.iter().zip(&p.dev) {
            let orig_rs = base.db(orig).database.run_query(&orig.query).expect("orig gold");
            let pert_rs = p.db(pert).database.run_query(&pert.query).unwrap_or_else(|e| {
                panic!("renamed gold `{}` fails: {e}", pert.sql)
            });
            assert!(
                minidb::results_equivalent(&orig_rs, &pert_rs),
                "rename must preserve results: `{}` vs `{}`",
                orig.sql,
                pert.sql
            );
            assert_ne!(orig.sql, pert.sql, "identifiers should actually change");
        }
    }

    #[test]
    fn schema_perturbation_renames_tables_and_columns() {
        let base = corpus();
        let p = perturb_corpus(&base, Perturbation::SchemaSynonym, 3);
        let db_id = &p.dev_db_ids[0];
        let orig_names: Vec<String> =
            base.databases[db_id].database.tables().map(|t| t.schema.name.clone()).collect();
        let new_names: Vec<String> =
            p.databases[db_id].database.tables().map(|t| t.schema.name.clone()).collect();
        assert_ne!(orig_names, new_names);
    }

    #[test]
    fn content_perturbation_keeps_gold_correct() {
        let base = corpus();
        let p = perturb_corpus(&base, Perturbation::DbContentReplace, 4);
        for s in &p.dev {
            p.db(s)
                .database
                .run_query(&s.query)
                .unwrap_or_else(|e| panic!("gold `{}` fails on mangled content: {e}", s.sql));
            assert_eq!(s.perturbation, Some(Perturbation::DbContentReplace));
        }
    }

    #[test]
    fn train_split_is_untouched() {
        let base = corpus();
        for kind in Perturbation::ALL {
            let p = perturb_corpus(&base, kind, 5);
            assert_eq!(p.train.len(), base.train.len());
            for (a, b) in base.train.iter().zip(&p.train) {
                assert_eq!(a.sql, b.sql);
                assert_eq!(a.perturbation, None);
            }
        }
    }

    #[test]
    fn literal_in_a_nested_where_subquery_is_rewritten_once() {
        // a mangled value that is itself a key must not be mangled again
        let vmap: BTreeMap<String, String> =
            [("abc", "ABC"), ("ABC", " ABC")].map(|(k, v)| (k.into(), v.into())).into();
        let mut q =
            sqlkit::parse_query("SELECT * FROM t WHERE x IN (SELECT y FROM t WHERE z = 'abc')")
                .unwrap();
        rewrite_literals(&mut q, &vmap);
        assert_eq!(
            sqlkit::to_sql(&q),
            "SELECT * FROM t WHERE x IN (SELECT y FROM t WHERE z = 'ABC')"
        );
    }

    #[test]
    fn perturbation_labels() {
        assert_eq!(Perturbation::SchemaSynonym.label(), "schema synonyms");
        assert_eq!(Perturbation::ALL.len(), 3);
    }
}
