//! Soundness of the `sqlcheck::equiv` canonicalizer: a canonical query
//! must be indistinguishable from its original by execution — same rows
//! and same error kind — on normal, NULL-dense, and empty database
//! content. The suite also pins non-vacuity (every rewrite rule fires on
//! at least one input), corpus hygiene (generated corpora are free of
//! canonical-form duplicate gold samples), and the interaction with the
//! tautology/unsatisfiability lint rules.

mod common;

use common::{empty_content, null_dense};
use datagen::{
    generate_corpus, generate_db, CorpusConfig, CorpusKind, QueryGenerator, Recipe, SchemaProfile,
};
use minidb::{Database, TableBuilder, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlcheck::equiv::{canonicalize, RewriteRule, RuleSet};
use sqlcheck::{Catalog, Rule};
use sqlkit::{parse_query, to_sql, Query};
use std::collections::{BTreeSet, HashSet};
use std::mem::discriminant;

/// Original and canonical must agree: equivalent results when both
/// succeed, the same error kind when both fail, and never a split.
fn assert_execution_parity(db: &Database, original: &Query, canonical: &Query, ctx: &str) {
    match (db.run_query(original), db.run_query(canonical)) {
        (Ok(a), Ok(b)) => {
            assert!(
                minidb::results_equivalent(&a, &b),
                "{ctx}: results diverge ({} vs {} rows)",
                a.rows.len(),
                b.rows.len()
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                discriminant(&a),
                discriminant(&b),
                "{ctx}: error kinds diverge: {a} vs {b}"
            );
        }
        (Ok(_), Err(e)) => panic!("{ctx}: canonical fails where original succeeds: {e}"),
        (Err(e), Ok(_)) => panic!("{ctx}: canonical succeeds where original fails: {e}"),
    }
}

/// Hand-built database matching the schema the per-rule inputs assume.
fn rule_db() -> Database {
    let mut db = Database::new("rules");
    db.add_table(
        TableBuilder::new("t")
            .column_int("id")
            .column_int("a")
            .column_int("b")
            .column_text("name")
            .rows((0..8).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 3 - 5),
                    if i % 3 == 0 { Value::Null } else { Value::Int(i % 4) },
                    Value::Text(format!("n{i}")),
                ]
            }))
            .build(),
    )
    .expect("t builds");
    db.add_table(
        TableBuilder::new("u")
            .column_int("id")
            .column_int("a")
            .column_int("score")
            .rows((0..5).map(|i| {
                vec![Value::Int(i), Value::Int(7 - i), Value::Int(i * i)]
            }))
            .build(),
    )
    .expect("u builds");
    db
}

/// One input per rewrite rule. Each must (a) fire its named rule and
/// (b) canonicalize to an execution-equivalent query on normal,
/// NULL-dense, and empty content — so the suite is non-vacuous for every
/// rule in the catalog, not just the ones generated corpora happen to
/// exercise.
#[test]
fn every_rule_fires_and_preserves_execution() {
    let inputs: [(RewriteRule, &str); 14] = [
        (RewriteRule::ConstFold, "SELECT t.a FROM t WHERE t.a > 2 + 3"),
        (RewriteRule::OrientComparison, "SELECT t.a FROM t WHERE 5 < t.a"),
        (RewriteRule::DoubleNegation, "SELECT t.a FROM t WHERE NOT NOT t.b"),
        (RewriteRule::DeMorgan, "SELECT t.a FROM t WHERE NOT (t.a > 5 AND t.b > 3)"),
        (RewriteRule::PushNegation, "SELECT t.a FROM t WHERE NOT (t.a < 5)"),
        (RewriteRule::CommutativeOperands, "SELECT t.a FROM t WHERE t.b + t.a = 10"),
        (RewriteRule::SortConjuncts, "SELECT t.a FROM t WHERE t.b > 3 AND t.a > 5"),
        (RewriteRule::BetweenToRange, "SELECT t.a FROM t WHERE t.a BETWEEN 1 AND 5"),
        (RewriteRule::InListToDisjuncts, "SELECT t.a FROM t WHERE t.a IN (1, 2)"),
        (RewriteRule::QualifyColumns, "SELECT a FROM t WHERE a > 5"),
        (RewriteRule::DistinctNoop, "SELECT DISTINCT COUNT(*) FROM t"),
        (RewriteRule::GroupByToDistinct, "SELECT t.a, t.b FROM t GROUP BY t.a, t.b"),
        (RewriteRule::OrderByNoop, "SELECT t.a FROM t ORDER BY t.a, t.a"),
        (RewriteRule::JoinCommute, "SELECT u.score FROM u JOIN t ON t.id = u.id"),
    ];
    let db = rule_db();
    let catalog = Catalog::from_database(&db);
    let nulled = null_dense(&db);
    let emptied = empty_content(&db);
    let mut union = BTreeSet::new();
    for (rule, sql) in inputs {
        let query = parse_query(sql).expect("per-rule input parses");
        let c = canonicalize(&query, RuleSet::full(), Some(&catalog));
        assert!(c.fired.contains(&rule), "{sql}: expected {} to fire, got {:?}", rule.id(), c.fired);
        union.extend(c.fired.iter().copied());
        for (label, database) in [("normal", &db), ("null-dense", &nulled), ("empty", &emptied)] {
            assert_execution_parity(database, &query, &c.query, &format!("{}/{label}: {sql}", rule.id()));
        }
    }
    assert_eq!(union.len(), RewriteRule::ALL.len(), "every rule fired across the palette");
}

/// Canonicalization cooperates with the static linter: tautological and
/// unsatisfiable predicates are flagged on the original, and rewriting
/// them (const-fold, conjunct sorting) never changes what executes.
#[test]
fn lint_findings_survive_canonicalization() {
    let db = rule_db();
    let catalog = Catalog::from_database(&db);
    let nulled = null_dense(&db);
    let emptied = empty_content(&db);
    let cases = [
        ("SELECT t.a FROM t WHERE 1 = 1", Rule::TautologicalPredicate),
        ("SELECT t.a FROM t WHERE t.a = 1 AND t.a = 2", Rule::UnsatisfiablePredicate),
        ("SELECT t.a FROM t WHERE t.b = NULL", Rule::UnsatisfiablePredicate),
    ];
    for (sql, rule) in cases {
        let query = parse_query(sql).expect("lint input parses");
        let diags = sqlcheck::analyze(&catalog, &query);
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{sql}: linter should flag {rule:?}, got {diags:?}"
        );
        let c = canonicalize(&query, RuleSet::full(), Some(&catalog));
        for (label, database) in [("normal", &db), ("null-dense", &nulled), ("empty", &emptied)] {
            assert_execution_parity(database, &query, &c.query, &format!("lint/{label}: {sql}"));
        }
    }
}

/// Generated corpora are duplicate-free under the full canonicalizer
/// (the datagen dedup rejects same-normalized gold; this pins the
/// stronger canonical-form property the `sqlcheck gold` sweep enforces),
/// and every gold query canonicalizes to an execution-equivalent form.
#[test]
fn tiny_corpora_are_canonical_duplicate_free_and_sound() {
    let mut fired_anywhere = BTreeSet::new();
    for kind in [CorpusKind::Spider, CorpusKind::Bird] {
        let corpus = generate_corpus(kind, &CorpusConfig::tiny(42));
        let catalogs: std::collections::HashMap<&str, Catalog> = corpus
            .databases
            .iter()
            .map(|(id, db)| (id.as_str(), Catalog::from_database(&db.database)))
            .collect();
        let mut seen: HashSet<(&str, &str, String)> = HashSet::new();
        for (split, samples) in [("train", &corpus.train), ("dev", &corpus.dev)] {
            for sample in samples {
                let catalog = catalogs.get(sample.db_id.as_str());
                let c = canonicalize(&sample.query, RuleSet::full(), catalog);
                fired_anywhere.extend(c.fired.iter().copied());
                let canonical_sql = to_sql(&c.query);
                assert!(
                    seen.insert((split, sample.db_id.as_str(), canonical_sql.clone())),
                    "{kind:?}/{split}: canonical duplicate on {}: {canonical_sql}",
                    sample.db_id
                );
                assert_execution_parity(
                    &corpus.databases[&sample.db_id].database,
                    &sample.query,
                    &c.query,
                    &format!("{kind:?}/{split}: {}", sample.sql),
                );
            }
        }
    }
    assert!(!fired_anywhere.is_empty(), "corpus sweep is vacuous: no rewrite ever fired");
}

proptest! {
    // each case canonicalizes and triple-executes every recipe's query
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary generated databases and every query recipe, the
    /// canonical form executes identically to the original on normal,
    /// NULL-dense, and empty content.
    #[test]
    fn canonical_queries_execute_identically(
        seed in any::<u64>(),
        domain_idx in 0usize..33,
        bird in any::<bool>(),
    ) {
        let profile = if bird { SchemaProfile::bird() } else { SchemaProfile::spider() };
        let gdb = generate_db("sound", datagen::DomainId(domain_idx), &profile, seed);
        let catalog = Catalog::from_database(&gdb.database);
        let nulled = null_dense(&gdb.database);
        let emptied = empty_content(&gdb.database);
        let qg = QueryGenerator::new(&gdb);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50F7);
        for recipe in Recipe::ALL {
            let Some(g) = qg.generate(recipe, &mut rng) else { continue };
            let c = canonicalize(&g.query, RuleSet::full(), Some(&catalog));
            for (label, database) in
                [("normal", &gdb.database), ("null-dense", &nulled), ("empty", &emptied)]
            {
                assert_execution_parity(
                    database,
                    &g.query,
                    &c.query,
                    &format!("{recipe:?}/{label}: {}", g.sql),
                );
            }
        }
    }
}
