//! Differential parity between sqlcheck and the minidb executor.
//!
//! The contract under test (see the crate docs):
//!
//! 1. a query with no Error-severity diagnostics never raises a minidb
//!    binding/type error,
//! 2. every minidb binding/type error is flagged by at least one
//!    Error-severity rule, and
//! 3. a name Error (`unknown-table` / `unknown-column`) ⇔ minidb refuses
//!    the statement with that name, on both executors and whatever the
//!    tables hold — minidb binds names before it reads a row, so an empty
//!    scan or an earlier FALSE no longer hides one.
//!
//! All three are exercised over generated corpora (gold queries must be
//! clean *and* execute) and over adversarial AST mutations of gold queries
//! (broken names, misused aggregates, arity violations) that drive the
//! executor into each error class, each on normal, NULL-dense and emptied
//! content.

mod common;

use datagen::{
    generate_corpus, generate_db, CorpusConfig, CorpusKind, QueryGenerator, Recipe,
    SchemaProfile,
};
use minidb::{Database, ExecError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlcheck::{analyze, is_clean, Catalog, Rule, Severity};
use sqlkit::ast::*;

/// The executor error classes the static analyzer is accountable for.
/// `ResourceExhausted` (data-dependent budgets), `Parse`, and
/// `DuplicateTable` (DDL) are outside the static contract.
fn binding_error(e: &ExecError) -> bool {
    matches!(
        e,
        ExecError::UnknownTable(_)
            | ExecError::UnknownColumn(_)
            | ExecError::AmbiguousColumn(_)
            | ExecError::Arity(_)
            | ExecError::Type(_)
            | ExecError::Unsupported(_)
            | ExecError::CardinalityViolation(_)
    )
}

/// The database as generated, NULL-dense and emptied: the contents a
/// lazily raised name error used to depend on.
fn contents(db: &Database) -> [Database; 3] {
    [db.clone(), common::null_dense(db), common::empty_content(db)]
}

/// Assert all three parity directions for one query on every content of
/// one database (see [`contents`]).
fn assert_parity(dbs: &[Database; 3], cat: &Catalog, q: &Query, label: &str) {
    let diags = analyze(cat, q);
    let clean = is_clean(&diags);
    let flagged: Vec<&str> = diags
        .iter()
        .filter(|d| {
            matches!(d.rule, Rule::UnknownTable | Rule::UnknownColumn)
                && d.severity == Severity::Error
        })
        .filter_map(|d| d.ident.as_deref())
        .collect();
    for db in dbs {
        let outcome = db.run_query(q);
        let context = || format!("{label}: `{}`\n  diags: {diags:?}", sqlkit::to_sql(q));
        // direction 3, both ways, and on both executors
        match &outcome {
            Err(e @ (ExecError::UnknownTable(_) | ExecError::UnknownColumn(_))) => {
                let name = e.offending_name().expect("name errors carry the name");
                assert!(flagged.contains(&name), "executor refused `{name}` unflagged\n  {}", context());
                assert_eq!(minidb::exec::execute(db, q).as_ref(), Err(e), "{}", context());
            }
            other => assert!(
                flagged.is_empty(),
                "name Error {flagged:?} but the executor answered {:?}\n  {}",
                other.as_ref().map(|rs| rs.rows.len()),
                context()
            ),
        }
        match outcome {
            Ok(_) => {}
            Err(e) if binding_error(&e) => {
                assert!(
                    !clean,
                    "executor raised `{e}` but sqlcheck found no Error diagnostics\n  {}",
                    context()
                );
            }
            // budget trips etc. are not the analyzer's business
            Err(_) => {}
        }
    }
}

// ---- AST mutations -------------------------------------------------------

/// Mutable references to every expression of the top-level core (plus the
/// query-level ORDER BY keys).
fn top_exprs_mut(q: &mut Query) -> Vec<&mut Expr> {
    let mut v = Vec::new();
    let body = &mut q.body;
    for item in &mut body.items {
        if let SelectItem::Expr { expr, .. } = item {
            v.push(expr);
        }
    }
    if let Some(from) = &mut body.from {
        for j in &mut from.joins {
            if let Some(on) = &mut j.on {
                v.push(on);
            }
        }
    }
    if let Some(w) = &mut body.where_clause {
        v.push(w);
    }
    for g in &mut body.group_by {
        v.push(g);
    }
    if let Some(h) = &mut body.having {
        v.push(h);
    }
    for k in &mut q.order_by {
        v.push(&mut k.expr);
    }
    v
}

/// Rename the first column reference found (depth-first) to `new`.
fn rename_first_col(e: &mut Expr, new: &str) -> bool {
    match e {
        Expr::Column { column, .. } => {
            *column = new.to_string();
            true
        }
        Expr::Binary { left, right, .. } => {
            rename_first_col(left, new) || rename_first_col(right, new)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            rename_first_col(expr, new)
        }
        Expr::Func { args, .. } => args.iter_mut().any(|a| rename_first_col(a, new)),
        Expr::Agg { arg, .. } => rename_first_col(arg, new),
        Expr::Between { expr, low, high, .. } => {
            rename_first_col(expr, new)
                || rename_first_col(low, new)
                || rename_first_col(high, new)
        }
        Expr::InList { expr, list, .. } => {
            rename_first_col(expr, new) || list.iter_mut().any(|i| rename_first_col(i, new))
        }
        Expr::Like { expr, pattern, .. } => {
            rename_first_col(expr, new) || rename_first_col(pattern, new)
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref_mut().map(|o| rename_first_col(o, new)).unwrap_or(false)
                || branches.iter_mut().any(|(w, t)| {
                    rename_first_col(w, new) || rename_first_col(t, new)
                })
                || else_expr.as_deref_mut().map(|e| rename_first_col(e, new)).unwrap_or(false)
        }
        _ => false,
    }
}

/// Wrap the first aggregate's argument in another aggregate.
fn nest_first_agg(e: &mut Expr) -> bool {
    match e {
        Expr::Agg { arg, .. } => {
            let inner = std::mem::replace(arg.as_mut(), Expr::Literal(Literal::Null));
            **arg = Expr::Agg {
                func: AggFunc::Max,
                distinct: false,
                arg: Box::new(inner),
            };
            true
        }
        Expr::Binary { left, right, .. } => nest_first_agg(left) || nest_first_agg(right),
        Expr::Unary { expr, .. } => nest_first_agg(expr),
        Expr::Func { args, .. } => args.iter_mut().any(nest_first_agg),
        _ => false,
    }
}

/// Widen the first IN/scalar subquery to two columns.
fn widen_first_subquery(e: &mut Expr) -> bool {
    match e {
        Expr::InSubquery { query, .. } | Expr::Subquery(query) => {
            if let Some(first) = query.body.items.first().cloned() {
                query.body.items.push(first);
                for (_, core) in &mut query.set_ops {
                    if let Some(f) = core.items.first().cloned() {
                        core.items.push(f);
                    }
                }
                true
            } else {
                false
            }
        }
        Expr::Binary { left, right, .. } => {
            widen_first_subquery(left) || widen_first_subquery(right)
        }
        Expr::Unary { expr, .. } => widen_first_subquery(expr),
        Expr::Exists { .. } => false, // EXISTS has no width constraint
        _ => false,
    }
}

fn count_star_gt_zero() -> Expr {
    Expr::Binary {
        op: BinOp::Gt,
        left: Box::new(Expr::AggWildcard(AggFunc::Count)),
        right: Box::new(Expr::Literal(Literal::Int(0))),
    }
}

/// A named query mutation returning `true` when it applied.
type Mutation = (&'static str, fn(&mut Query) -> bool);

/// Each mutation returns `true` when it applied; unapplicable mutations
/// are skipped for that query.
fn mutations() -> Vec<Mutation> {
    vec![
        ("rename-table", |q| {
            if let Some(from) = &mut q.body.from {
                if let TableRef::Named { name, .. } = &mut from.base {
                    *name = "zzz_missing".to_string();
                    return true;
                }
            }
            false
        }),
        ("rename-column", |q| {
            for e in top_exprs_mut(q) {
                if rename_first_col(e, "zzz_bogus") {
                    return true;
                }
            }
            false
        }),
        ("agg-in-where", |q| {
            let cond = count_star_gt_zero();
            q.body.where_clause = Some(match q.body.where_clause.take() {
                Some(old) => Expr::Binary {
                    op: BinOp::And,
                    left: Box::new(old),
                    right: Box::new(cond),
                },
                None => cond,
            });
            true
        }),
        ("nested-agg", |q| {
            for e in top_exprs_mut(q) {
                if nest_first_agg(e) {
                    return true;
                }
            }
            false
        }),
        ("bogus-function", |q| {
            for item in &mut q.body.items {
                if let SelectItem::Expr { expr, .. } = item {
                    let inner = std::mem::replace(expr, Expr::Literal(Literal::Null));
                    *expr = Expr::Func { name: "BOGUSFN".to_string(), args: vec![inner] };
                    return true;
                }
            }
            false
        }),
        ("wrong-arity", |q| {
            for item in &mut q.body.items {
                if let SelectItem::Expr { expr, .. } = item {
                    let inner = std::mem::replace(expr, Expr::Literal(Literal::Null));
                    *expr = Expr::Func {
                        name: "ABS".to_string(),
                        args: vec![inner, Expr::Literal(Literal::Int(1))],
                    };
                    return true;
                }
            }
            false
        }),
        ("setop-drop-item", |q| {
            if q.set_ops.is_empty() || q.body.items.len() < 2 {
                return false;
            }
            q.body.items.pop();
            true
        }),
        ("widen-subquery", |q| {
            let mut applied = false;
            if let Some(w) = &mut q.body.where_clause {
                applied = widen_first_subquery(w);
            }
            applied
        }),
        ("dequalify", |q| {
            let mut applied = false;
            for e in top_exprs_mut(q) {
                applied |= dequalify(e);
            }
            applied
        }),
    ]
}

/// Strip table qualifiers from every column reference in the expression.
fn dequalify(e: &mut Expr) -> bool {
    let mut applied = false;
    match e {
        Expr::Column { table, .. } => {
            applied = table.take().is_some();
        }
        Expr::Binary { left, right, .. } => {
            applied = dequalify(left);
            applied |= dequalify(right);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            applied = dequalify(expr);
        }
        Expr::Func { args, .. } => {
            for a in args {
                applied |= dequalify(a);
            }
        }
        Expr::Agg { arg, .. } => applied = dequalify(arg),
        Expr::Between { expr, low, high, .. } => {
            applied = dequalify(expr);
            applied |= dequalify(low);
            applied |= dequalify(high);
        }
        Expr::InList { expr, list, .. } => {
            applied = dequalify(expr);
            for i in list {
                applied |= dequalify(i);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            applied = dequalify(expr);
            applied |= dequalify(pattern);
        }
        _ => {}
    }
    applied
}

// ---- corpus-level pins ---------------------------------------------------

/// Gold SQL of the bundled corpora is diagnostic-free: not merely clean
/// (no Errors) but free of warnings too. This is the corpus-hygiene pin —
/// if a generator change starts emitting advisory-level constructs, this
/// is the test that says so.
#[test]
fn corpus_gold_is_diagnostic_free() {
    for kind in [CorpusKind::Spider, CorpusKind::Bird] {
        let c = generate_corpus(kind, &CorpusConfig::tiny(5));
        let catalogs: std::collections::BTreeMap<&str, (Catalog, [Database; 3])> = c
            .databases
            .iter()
            .map(|(id, gdb)| {
                (id.as_str(), (Catalog::from_database(&gdb.database), contents(&gdb.database)))
            })
            .collect();
        for s in c.train.iter().chain(c.dev.iter()) {
            let (cat, dbs) = &catalogs[s.db_id.as_str()];
            let diags = analyze(cat, &s.query);
            assert!(diags.is_empty(), "{kind:?} gold `{}`: {diags:?}", s.sql);
            assert_parity(dbs, cat, &s.query, "gold");
        }
    }
}

/// Crafted breakages produce runtime errors whose `offending_name()`
/// matches the `ident` of an Error diagnostic — names line up across the
/// static/dynamic boundary.
#[test]
fn offending_names_line_up() {
    let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let s = &c.dev[0];
    let db = &c.db(s).database;
    let cat = Catalog::from_database(db);

    let mut broken = s.query.clone();
    if let Some(from) = &mut broken.body.from {
        if let TableRef::Named { name, .. } = &mut from.base {
            *name = "zzz_missing".to_string();
        }
    }
    let err = db.run_query(&broken).expect_err("table is gone");
    let runtime_name = err.offending_name().expect("payload names the table").to_string();
    let diags = analyze(&cat, &broken);
    assert!(
        diags.iter().any(|d| d.ident.as_deref() == Some(runtime_name.as_str())),
        "no diagnostic names `{runtime_name}`: {diags:?}"
    );
}

// ---- property-based mutation sweep ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any seed: every recipe's gold query is clean and executes, and
    /// every applicable mutation preserves parity in both directions.
    #[test]
    fn mutated_gold_maintains_parity(seed in any::<u64>(), domain_idx in 0usize..33, bird in any::<bool>()) {
        let profile = if bird { SchemaProfile::bird() } else { SchemaProfile::spider() };
        let gdb = generate_db("pdb", datagen::DomainId(domain_idx), &profile, seed);
        let cat = Catalog::from_database(&gdb.database);
        let dbs = contents(&gdb.database);
        let qg = QueryGenerator::new(&gdb);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for recipe in Recipe::ALL {
            let Some(g) = qg.generate(recipe, &mut rng) else { continue };
            // direction 1 on the valid query: clean, and stays clean
            let diags = analyze(&cat, &g.query);
            prop_assert!(is_clean(&diags), "{recipe:?} gold `{}`: {diags:?}", g.sql);
            assert_parity(&dbs, &cat, &g.query, "gold");
            for (name, mutate) in mutations() {
                let mut mutated = g.query.clone();
                if !mutate(&mut mutated) {
                    continue;
                }
                assert_parity(&dbs, &cat, &mutated, name);
                // name-breaking mutations must always be flagged statically,
                // whether or not the executor happens to evaluate the site
                if matches!(name, "rename-table" | "rename-column" | "agg-in-where" | "bogus-function" | "wrong-arity") {
                    let diags = analyze(&cat, &mutated);
                    prop_assert!(
                        !is_clean(&diags),
                        "{recipe:?}/{name} `{}` not flagged",
                        sqlkit::to_sql(&mutated)
                    );
                }
            }
        }
    }
}
