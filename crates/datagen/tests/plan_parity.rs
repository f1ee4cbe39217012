//! Property tests: compiled query plans are observationally identical to
//! the AST interpreter over generated query corpora — same rows, columns,
//! ordered flag, and deterministic work units (the VES currency), or the
//! same execution error.

use datagen::{
    domain_by_name, generate_db, regenerate_content, GeneratedDb, QueryGenerator, Recipe,
    SchemaProfile,
};
use minidb::exec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_db(domain: &str, seed: u64) -> GeneratedDb {
    generate_db(
        format!("{}_{seed}", domain.to_lowercase()),
        domain_by_name(domain).unwrap(),
        &SchemaProfile::spider(),
        seed,
    )
}

/// Execute one generated query through both engines — the interpreter and
/// the compiled plan — and assert observational identity: rows (as a
/// sequence), columns, ordered flag, and deterministic work units (the VES
/// currency), or the same execution error.
/// Returns whether `compile` accepted the query (for vacuity accounting).
fn check_parity(db: &GeneratedDb, sql: &str, query: &sqlkit::Query) -> bool {
    let Some(plan) = minidb::compile(&db.database, query) else { return false };
    let compiled = plan.execute(&db.database);
    let interpreted = exec::execute(&db.database, query);
    match (&compiled, &interpreted) {
        (Ok(c), Ok(i)) => {
            assert_eq!(c.columns, i.columns, "`{sql}` columns diverged");
            assert_eq!(
                format!("{:?}", c.rows),
                format!("{:?}", i.rows),
                "`{sql}` rows diverged"
            );
            assert_eq!(c.ordered, i.ordered, "`{sql}` ordered flag diverged");
            assert_eq!(c.work, i.work, "`{sql}` work units diverged");
        }
        (Err(ce), Err(ie)) => {
            assert_eq!(format!("{ce:?}"), format!("{ie:?}"), "`{sql}` errors diverged");
        }
        _ => panic!(
            "`{sql}` outcome diverged: compiled {compiled:?} vs interpreted {interpreted:?}"
        ),
    }
    true
}

/// Rebuild a database with most non-key cells replaced by NULL: validity
/// bitmaps go sparse, zone maps lose whole batches, aggregates fold over
/// mostly-empty columns. Column 0 (the PK) survives so joins still match.
fn null_dense(db: &GeneratedDb, seed: u64) -> GeneratedDb {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut database = minidb::Database::new(db.database.name());
    for t in db.database.tables() {
        let rows: Vec<Vec<minidb::Value>> = t
            .to_rows()
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .map(|(c, v)| {
                        if c > 0 && rng.gen_bool(0.7) {
                            minidb::Value::Null
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let table = minidb::Table::from_rows(t.schema.clone(), rows)
            .expect("nulling cells never violates affinity");
        database.add_table(table).expect("names unchanged");
    }
    GeneratedDb { db_id: db.db_id.clone(), domain: db.domain, database }
}

/// Rebuild a database with every table empty: zero-row scans, empty hash
/// builds, the all-NULL aggregate head row.
fn emptied(db: &GeneratedDb) -> GeneratedDb {
    let mut database = minidb::Database::new(db.database.name());
    for t in db.database.tables() {
        let table = minidb::Table::from_rows(t.schema.clone(), Vec::new())
            .expect("empty tables are trivially valid");
        database.add_table(table).expect("names unchanged");
    }
    GeneratedDb { db_id: db.db_id.clone(), domain: db.domain, database }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_plan_matches_interpreter(
        db_seed in 0u64..4,
        query_seed in 0u64..500,
        recipe_idx in 0usize..Recipe::ALL.len(),
    ) {
        let db = build_db("College", db_seed);
        let qg = QueryGenerator::new(&db);
        let mut rng = StdRng::seed_from_u64(query_seed);
        if let Some(g) = qg.generate(Recipe::ALL[recipe_idx], &mut rng) {
            check_parity(&db, &g.sql, &g.query);
        }
    }

    #[test]
    fn compiled_plan_matches_interpreter_on_null_dense_content(
        query_seed in 0u64..250,
    ) {
        // queries are generated against the *original* content (value
        // sampling needs non-null cells) but executed against the
        // NULL-dense twin, whose schema is identical
        let db = build_db("College", 3);
        let sparse = null_dense(&db, 41);
        let qg = QueryGenerator::new(&db);
        let mut rng = StdRng::seed_from_u64(query_seed);
        let recipe = Recipe::ALL[(query_seed as usize) % Recipe::ALL.len()];
        if let Some(g) = qg.generate(recipe, &mut rng) {
            check_parity(&sparse, &g.sql, &g.query);
        }
    }

    #[test]
    fn compiled_plan_matches_interpreter_on_empty_tables(
        query_seed in 0u64..150,
    ) {
        let db = build_db("College", 5);
        let empty = emptied(&db);
        let qg = QueryGenerator::new(&db);
        let mut rng = StdRng::seed_from_u64(query_seed);
        let recipe = Recipe::ALL[(query_seed as usize) % Recipe::ALL.len()];
        if let Some(g) = qg.generate(recipe, &mut rng) {
            check_parity(&empty, &g.sql, &g.query);
        }
    }

    #[test]
    fn compiled_plan_matches_interpreter_across_domains(
        domain_idx in 0usize..3,
        query_seed in 0u64..300,
    ) {
        let domain = ["Music", "Medical", "Aviation"][domain_idx];
        let db = build_db(domain, 7);
        let qg = QueryGenerator::new(&db);
        let mut rng = StdRng::seed_from_u64(query_seed);
        let recipe = Recipe::ALL[(query_seed as usize) % Recipe::ALL.len()];
        if let Some(g) = qg.generate(recipe, &mut rng) {
            check_parity(&db, &g.sql, &g.query);
        }
    }
}

/// The property tests above are vacuous if `compile` rejected everything.
/// The healthy share is all of it: pin, per recipe, that every generated
/// query of all 15 recipes compiles on the normal, the NULL-dense and the
/// emptied database. A compiled plan has one executor, the columnar one, so
/// this is also the pin that no recipe — join chains and the two subquery
/// shapes included — reaches the interpreter.
#[test]
fn a_healthy_share_of_generated_queries_compiles() {
    let db = build_db("College", 11);
    let targets = [
        ("normal", build_db("College", 11)),
        ("null-dense", null_dense(&db, 41)),
        ("emptied", emptied(&db)),
    ];
    let qg = QueryGenerator::new(&db);
    let mut generated = vec![0usize; Recipe::ALL.len()];
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ri = (seed as usize) % Recipe::ALL.len();
        let recipe = Recipe::ALL[ri];
        let Some(g) = qg.generate(recipe, &mut rng) else { continue };
        generated[ri] += 1;
        for (label, target) in &targets {
            assert!(
                check_parity(target, &g.sql, &g.query),
                "{recipe:?} on the {label} database declined: `{}`",
                g.sql
            );
        }
    }
    for (recipe, n) in Recipe::ALL.iter().zip(&generated) {
        assert!(*n >= 10, "only {n} {recipe:?} queries generated");
    }
}

/// One plan, many contents: the test-suite metric compiles a query once and
/// re-executes it over `regenerate_content` instances. A sub-plan's recorded
/// run lives in per-execution state, so every execution must answer for the
/// database it was handed — including the original again afterwards.
#[test]
fn subquery_plans_are_reusable_across_regenerated_content() {
    let db = build_db("College", 13);
    let profile = SchemaProfile::spider();
    let instances =
        [regenerate_content(&db, &profile, 1), regenerate_content(&db, &profile, 2)];
    let qg = QueryGenerator::new(&db);
    let mut checked = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipe = [Recipe::ScalarSubquery, Recipe::InSubquery][(seed % 2) as usize];
        let Some(g) = qg.generate(recipe, &mut rng) else { continue };
        let plan = minidb::compile(&db.database, &g.query).expect("subquery recipes compile");
        for target in [&db, &instances[0], &instances[1], &db] {
            let compiled = plan.execute(&target.database).expect("gold-shaped query executes");
            let interpreted = exec::execute(&target.database, &g.query).expect("interpreter");
            assert_eq!(compiled, interpreted, "`{}` on {}", g.sql, target.db_id);
        }
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} subquery queries generated");
}
