//! The order in which the AST walks visit a query is observable: mutation
//! and restyling pick a site by an RNG index over the walk, so a change of
//! child or clause order changes which site a seed corrupts. This pins the
//! exact visit sequences over one query that uses every `Expr` variant in
//! every clause, a FROM subquery, a joined subquery and a set-operation arm.

use sqlkit::ast::*;
use sqlkit::parse_query;

/// Every `Expr` variant, once, with columns and subquery tables named
/// after the clause `p` it sits in.
fn every_variant(p: &str) -> String {
    format!(
        "CASE {p}op WHEN {p}w THEN ABS(-{p}f) ELSE CAST({p}c AS TEXT) END = COUNT(*) + SUM({p}s) \
         AND {p}b BETWEEN 1 AND 2 AND {p}l IN (3, 'x') AND {p}i IN (SELECT {p}sq FROM {p}t1) \
         AND EXISTS (SELECT {p}ex FROM {p}t2) AND (SELECT MAX({p}m) FROM {p}t3) > 0 \
         AND {p}k LIKE '%y%' AND {p}n IS NOT NULL"
    )
}

fn query() -> Query {
    let e = every_variant;
    let sql = format!(
        "SELECT {items} AS x, s.* FROM (SELECT {f} FROM base_t) AS s \
         JOIN (SELECT {j} FROM join_t) AS s2 ON {on} \
         WHERE {w} GROUP BY {g} HAVING {h} \
         UNION SELECT {u} FROM arm_t WHERE {uw} \
         ORDER BY {ob} LIMIT 1",
        items = e("i_"),
        f = e("f_"),
        j = e("j_"),
        on = e("o_"),
        w = e("w_"),
        g = e("g_"),
        h = e("h_"),
        u = e("u_"),
        uw = e("uw_"),
        ob = e("ob_"),
    );
    parse_query(&sql).unwrap_or_else(|err| panic!("`{sql}`: {err}"))
}

/// The name of an expression's variant.
fn variant(e: &Expr) -> String {
    format!("{e:?}").split([' ', '(']).next().unwrap_or_default().to_string()
}

/// A short name for a visited node: the column name, the literal, or the
/// variant.
fn tag(e: &Expr) -> String {
    match e {
        Expr::Column { column, .. } => column.clone(),
        Expr::Literal(lit) => format!("{lit:?}"),
        other => variant(other),
    }
}

/// The walk of one `every_variant(p)` expression, not entering subqueries.
const SHALLOW: &[&str] = &[
    "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Case",
    "{p}op", "{p}w", "Func", "Unary", "{p}f", "Cast", "{p}c", "Binary", "AggWildcard",
    "Agg", "{p}s", "Between", "{p}b", "Int(1)", "Int(2)", "InList", "{p}l", "Int(3)",
    "Str(\"x\")", "InSubquery", "{p}i", "Exists", "Binary", "Subquery", "Int(0)", "Like", "{p}k",
    "Str(\"%y%\")", "IsNull", "{p}n",
];

/// The same walk entering subqueries: each subquery's expressions follow
/// its node (after the left operand, for `IN`).
const DEEP: &[&str] = &[
    "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Binary", "Case",
    "{p}op", "{p}w", "Func", "Unary", "{p}f", "Cast", "{p}c", "Binary", "AggWildcard",
    "Agg", "{p}s", "Between", "{p}b", "Int(1)", "Int(2)", "InList", "{p}l", "Int(3)",
    "Str(\"x\")", "InSubquery", "{p}i", "{p}sq", "Exists", "{p}ex", "Binary", "Subquery", "Agg",
    "{p}m", "Int(0)", "Like", "{p}k", "Str(\"%y%\")", "IsNull", "{p}n",
];

fn expand(template: &[&str], clauses: &[&str]) -> Vec<String> {
    clauses
        .iter()
        .flat_map(|p| template.iter().map(move |t| t.replace("{p}", p)))
        .collect()
}

#[test]
fn the_query_uses_every_expr_variant() {
    let q = query();
    let mut seen = std::collections::BTreeSet::new();
    walk_query_exprs(&q, &mut |e| {
        seen.insert(variant(e));
    });
    assert_eq!(seen.len(), 16, "every Expr variant appears: {seen:?}");
}

#[test]
fn walk_entering_subqueries_visits_clauses_in_order() {
    let q = query();
    let mut got = Vec::new();
    walk_query_exprs(&q, &mut |e| got.push(tag(e)));
    // items, FROM subqueries (base, then joined), ON, WHERE, GROUP BY,
    // HAVING — per core, the set-op arm after the body — then ORDER BY
    let want = expand(DEEP, &["i_", "f_", "j_", "o_", "w_", "g_", "h_", "u_", "uw_", "ob_"]);
    assert_eq!(got, want);
}

/// Clause order without entering subqueries (FROM subqueries skipped):
/// the sites mutation and restyling choose among.
const SHALLOW_CLAUSES: &[&str] = &["i_", "o_", "w_", "g_", "h_", "u_", "uw_", "ob_"];

#[test]
fn walk_not_entering_subqueries_stops_at_them() {
    let q = query();
    let mut got = Vec::new();
    q.for_each_child(|c| {
        if let Child::Expr(e) = c {
            e.walk(false, &mut |x| got.push(tag(x)));
        }
    });
    assert_eq!(got, expand(SHALLOW, SHALLOW_CLAUSES));
}

#[test]
fn mutable_walk_visits_what_the_shared_walk_does() {
    let mut q = query();
    let mut got = Vec::new();
    q.for_each_child_mut(|c| {
        if let ChildMut::Expr(e) = c {
            e.walk_mut(&mut |x| got.push(tag(x)));
        }
    });
    assert_eq!(got, expand(SHALLOW, SHALLOW_CLAUSES));
}

#[test]
fn walk_subqueries_visits_each_query_once() {
    let q = query();
    let mut got = Vec::new();
    walk_subqueries(&q, &mut |sub| {
        let name = match sub.body.from.as_ref().map(|f| &f.base) {
            Some(TableRef::Named { name, .. }) => name.clone(),
            Some(TableRef::Subquery { .. }) => "outer".to_string(),
            None => "-".to_string(),
        };
        got.push(name);
    });
    // the shared clause order: a query, then its subqueries clause by
    // clause (items before FROM subqueries)
    let tables = ["{p}t1", "{p}t2", "{p}t3"];
    let mut want = vec!["outer".to_string()];
    want.extend(expand(&tables, &["i_"]));
    want.push("base_t".into());
    want.extend(expand(&tables, &["f_"]));
    want.push("join_t".into());
    want.extend(expand(&tables, &["j_", "o_", "w_", "g_", "h_", "u_", "uw_", "ob_"]));
    assert_eq!(got, want);
}
