//! The bind step: names resolve before rows move.
//!
//! Every table and column name of a whole statement — every clause, set-op
//! arm, derived table and (correlated) subquery, through the parent-chained
//! [`Scope`] — resolves against the schema *before any row is read or any
//! work unit charged*, as SQLite does when it prepares a statement. So
//! `UnknownTable` / `UnknownColumn` are properties of (schema, statement),
//! never of the data: an empty scan, an earlier FALSE or a small budget
//! cannot hide a wrong name, and a wrong name costs microseconds.
//!
//! Both executors sit behind this one pass. [`crate::exec::execute`] runs
//! it at entry; [`crate::plan::compile`] runs it only where lowering found
//! nothing — successful lowering resolved every name through the same
//! [`crate::exec::resolve_in`] and *is* the bind for that statement — and
//! turns the error into a plan whose execution is that error.
//!
//! **Precedence.** The first name that does not resolve, in clause order
//! FROM (every table, left to right) → ON → WHERE → GROUP BY → HAVING →
//! SELECT (`t.*` included) → ORDER BY; set-op arms left to right, then the
//! compound ORDER BY; a subquery or derived table where it stands. A bind
//! error wins over everything execution can raise, a budget trip included.
//! Other error classes (unknown function, arity, aggregate misuse, subquery
//! and set-op width) stay where they were, at evaluation.
//!
//! The walk recurses once per subquery level, so its depth is the height of
//! the AST, which [`sqlkit::MAX_NESTING`] bounds for anything the parser
//! returned.

use crate::database::Database;
use crate::error::ExecResult;
use crate::eval::{unknown_column, Binding, Scope};
use crate::exec::{binding_named, order_alias, output_columns};
use sqlkit::ast::*;

/// Resolve every table and column name in `query`, or return the first
/// that does not resolve.
pub(crate) fn bind(db: &Database, query: &Query) -> ExecResult<()> {
    bind_query(db, query, None).map(drop)
}

/// Bind a (possibly compound) query under `outer`; returns the FROM
/// bindings of its first arm, which name its output columns.
fn bind_query(db: &Database, q: &Query, outer: Option<&Scope<'_>>) -> ExecResult<Vec<Binding>> {
    if q.set_ops.is_empty() {
        return bind_core(db, &q.body, &q.order_by, outer);
    }
    let first = bind_core(db, &q.body, &[], outer)?;
    for (_, arm) in &q.set_ops {
        bind_core(db, arm, &[], outer)?;
    }
    if !q.order_by.is_empty() {
        // compound ORDER BY sees the output columns, not the arms' tables
        let out = [Binding { name: None, columns: output_columns(&q.body, &first)?, offset: 0 }];
        let scope = Scope { bindings: &out, row: &[], parent: outer };
        for k in &q.order_by {
            bind_expr(db, &k.expr, &scope)?;
        }
    }
    Ok(first)
}

fn bind_core(
    db: &Database,
    core: &SelectCore,
    order_by: &[OrderKey],
    outer: Option<&Scope<'_>>,
) -> ExecResult<Vec<Binding>> {
    let mut bindings = Vec::new();
    if let Some(from) = &core.from {
        for tref in from.tables() {
            bindings.push(match tref {
                TableRef::Named { name, alias } => Binding::of_table(db.table(name)?, name, alias),
                // a derived table sees the enclosing query's outer scope,
                // not its FROM siblings
                TableRef::Subquery { query, alias } => Binding {
                    name: alias.clone(),
                    columns: output_columns(&query.body, &bind_query(db, query, outer)?)?,
                    offset: 0,
                },
            });
        }
        // each ON sees the tables joined so far
        for (i, join) in from.joins.iter().enumerate() {
            if let Some(on) = &join.on {
                let joined = Scope { bindings: &bindings[..i + 2], row: &[], parent: outer };
                bind_expr(db, on, &joined)?;
            }
        }
    }
    let scope = Scope { bindings: &bindings, row: &[], parent: outer };
    for e in core.where_clause.iter().chain(&core.group_by).chain(&core.having) {
        bind_expr(db, e, &scope)?;
    }
    for item in &core.items {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::QualifiedWildcard(t) => drop(binding_named(&bindings, t)?),
            SelectItem::Expr { expr, .. } => bind_expr(db, expr, &scope)?,
        }
    }
    for k in order_by {
        if order_alias(core, &k.expr).is_none() {
            bind_expr(db, &k.expr, &scope)?;
        }
    }
    Ok(bindings)
}

/// Bind the names of one expression, left to right, entering subqueries
/// with `scope` as their outer scope.
fn bind_expr(db: &Database, e: &Expr, scope: &Scope<'_>) -> ExecResult<()> {
    let mut first = Ok(());
    e.walk(false, &mut |node| {
        if first.is_ok() {
            first = match node {
                Expr::Column { table, column } => scope
                    .lookup(table.as_deref(), column)
                    .map(drop)
                    .ok_or_else(|| unknown_column(table.as_deref(), column)),
                // the walk visits a node ahead of its operands: bind the
                // left-hand side here so it keeps its place before the subquery
                Expr::InSubquery { expr, query, .. } => bind_expr(db, expr, scope)
                    .and_then(|()| bind_query(db, query, Some(scope)).map(drop)),
                Expr::Exists { query, .. } | Expr::Subquery(query) => {
                    bind_query(db, query, Some(scope)).map(drop)
                }
                _ => Ok(()),
            };
        }
    });
    first
}

#[cfg(test)]
mod tests {
    use crate::database::{Database, TableBuilder};
    use crate::error::{ExecError, ExecResult};
    use crate::exec::{self, DEFAULT_WORK_BUDGET};
    use crate::plan::compile;
    use crate::result::ResultSet;
    use crate::value::Value as V;

    /// `t` (a = 1, 3, 2) and `u`, plus an empty `nobody`; `emptied` keeps
    /// the schema and drops every row.
    fn db(emptied: bool) -> Database {
        let rows = |r: Vec<Vec<V>>| if emptied { Vec::new() } else { r };
        let mut db = Database::new("bind");
        db.add_table(
            TableBuilder::new("t")
                .column_int("a")
                .column_text("name")
                .rows(rows(vec![
                    vec![V::Int(1), V::text("x")],
                    vec![V::Int(3), V::text("y")],
                    vec![V::Int(2), V::Null],
                ]))
                .build(),
        )
        .unwrap();
        db.add_table(
            TableBuilder::new("u")
                .column_int("k")
                .column_int("v")
                .rows(rows(vec![vec![V::Int(1), V::Int(10)], vec![V::Int(3), V::Null]]))
                .build(),
        )
        .unwrap();
        db.add_table(TableBuilder::new("nobody").column_int("x").build()).unwrap();
        db
    }

    fn col(name: &str) -> ExecError {
        ExecError::UnknownColumn(name.into())
    }

    fn table(name: &str) -> ExecError {
        ExecError::UnknownTable(name.into())
    }

    /// `sql` fails with `expect` on both executors and through `run_query`,
    /// on full and on emptied tables, at every budget from 1: a property of
    /// (schema, statement), raised before any unit is charged.
    fn assert_bind_error(sql: &str, expect: &ExecError) {
        let q = sqlkit::parse_query(sql).unwrap();
        for emptied in [false, true] {
            let db = db(emptied);
            let plan = compile(&db, &q).unwrap_or_else(|| panic!("`{sql}` must compile"));
            let want: ExecResult<ResultSet> = Err(expect.clone());
            assert_eq!(db.run_query(&q), want, "`{sql}` run_query, emptied={emptied}");
            for budget in (1..=8).chain([DEFAULT_WORK_BUDGET]) {
                assert_eq!(plan.execute_with_budget(&db, budget), want, "`{sql}` compiled at {budget}");
                assert_eq!(
                    exec::execute_with_budget(&db, &q, budget),
                    want,
                    "`{sql}` interpreted at {budget}"
                );
            }
        }
    }

    /// Every place laziness used to hide a wrong name: nothing evaluated
    /// the expression, or a budget trip came first.
    #[test]
    fn unknown_names_raise_whatever_the_tables_hold_and_at_every_budget() {
        for (sql, expect) in [
            // an empty scan never evaluated the projection
            ("SELECT nosuch FROM nobody", col("nosuch")),
            ("SELECT x FROM nobody WHERE nosuch > 1", col("nosuch")),
            // an earlier FALSE short-circuited past it
            ("SELECT a FROM t WHERE 1 = 0 AND nosuch = 1", col("nosuch")),
            ("SELECT a FROM t WHERE a > 0 OR nosuch = 1", col("nosuch")),
            ("SELECT CASE WHEN a > 0 THEN 1 ELSE nosuch END FROM t", col("nosuch")),
            ("SELECT COALESCE(a, nosuch) FROM t", col("nosuch")),
            // an IN list stops at the first match
            ("SELECT a FROM t WHERE a IN (1, 2, 3, nosuch)", col("nosuch")),
            // inside a correlated subquery, a derived table, the second arm
            ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.a AND u.nosuch = 1)", col("u.nosuch")),
            ("SELECT a FROM t WHERE a > 5 AND a IN (SELECT k FROM u WHERE v = t.nosuch)", col("t.nosuch")),
            ("SELECT s.b FROM (SELECT nosuch AS b FROM t) AS s", col("nosuch")),
            ("SELECT s.nosuch FROM (SELECT a AS b FROM t) AS s", col("s.nosuch")),
            ("SELECT a FROM t UNION SELECT nosuch FROM u", col("nosuch")),
            ("SELECT a FROM t UNION SELECT k FROM zz", table("zz")),
            // HAVING over no groups, compound ORDER BY over no rows
            ("SELECT a FROM t WHERE a > 9 GROUP BY a HAVING MAX(nosuch) > 1", col("nosuch")),
            ("SELECT a FROM t WHERE a > 9 UNION SELECT k FROM u WHERE k > 9 ORDER BY nosuch", col("nosuch")),
            // compound ORDER BY sees output columns, not the arms' tables
            ("SELECT a AS b FROM t UNION SELECT k FROM u ORDER BY a", col("a")),
            // `t.*` names this query's own FROM only
            ("SELECT zz.* FROM t", table("zz")),
            ("SELECT a FROM t WHERE EXISTS (SELECT t.* FROM u)", table("t")),
            // joins: ON sees the tables joined so far, no further
            ("SELECT t.a FROM t JOIN u ON t.a = w.k JOIN u AS w ON w.k = u.k", col("w.k")),
            ("SELECT t.a FROM nobody JOIN t ON nosuch = 1", col("nosuch")),
            ("SELECT a FROM t ORDER BY nosuch LIMIT 0", col("nosuch")),
        ] {
            assert_bind_error(sql, &expect);
        }
    }

    /// The first unresolved name in clause order, not in text order.
    #[test]
    fn the_first_unresolved_name_in_clause_order_wins() {
        for (sql, expect) in [
            ("SELECT s1 FROM t JOIN u ON t.a = u.on1 WHERE w1 = 1 GROUP BY g1 HAVING h1 > 0 ORDER BY o1", col("u.on1")),
            ("SELECT s1 FROM t JOIN u ON t.a = u.k WHERE w1 = 1 GROUP BY g1 HAVING h1 > 0 ORDER BY o1", col("w1")),
            ("SELECT s1 FROM t GROUP BY g1 HAVING h1 > 0 ORDER BY o1", col("g1")),
            ("SELECT s1 FROM t GROUP BY a HAVING h1 > 0 ORDER BY o1", col("h1")),
            ("SELECT s1, zz.* FROM t ORDER BY o1", col("s1")),
            ("SELECT zz.*, s1 FROM t ORDER BY o1", table("zz")),
            ("SELECT a FROM t ORDER BY o1, o2", col("o1")),
            // every FROM table before any ON
            ("SELECT 1 FROM t JOIN u ON t.a = u.on1 JOIN zz ON zz.k = u.k", table("zz")),
            // arms left to right, then the compound ORDER BY
            ("SELECT a FROM t UNION SELECT n2 FROM u UNION SELECT n3 FROM u ORDER BY o1", col("n2")),
            // a subquery where it stands: after the IN's left side, before
            // the next conjunct
            ("SELECT a FROM t WHERE l1 IN (SELECT q1 FROM u) AND w2 = 1", col("l1")),
            ("SELECT a FROM t WHERE a IN (SELECT q1 FROM u) AND w2 = 1", col("q1")),
            ("SELECT (SELECT q1 FROM u), s2 FROM t", col("q1")),
        ] {
            assert_bind_error(sql, &expect);
        }
    }

    /// Binding adds a check and weakens none: references that resolve —
    /// through the parent chain, two levels up, through a derived table —
    /// run as before, on whichever executor takes the shape.
    #[test]
    fn names_that_resolve_through_the_parent_chain_still_run() {
        let db = db(false);
        for sql in [
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.a)",
            "SELECT a FROM t WHERE a IN (SELECT k FROM u WHERE EXISTS (SELECT 1 FROM nobody WHERE x = t.a OR v > 0))",
            "SELECT name, (SELECT MAX(v) FROM u WHERE k = a) FROM t ORDER BY a",
            "SELECT s.b FROM (SELECT a AS b FROM t WHERE a > 1) AS s WHERE s.b IN (SELECT k FROM u)",
            "SELECT a FROM t WHERE EXISTS (SELECT s.b FROM (SELECT a AS b FROM t) AS s WHERE s.b = t.a)",
            "SELECT a AS b FROM t UNION SELECT k FROM u ORDER BY b DESC",
        ] {
            let q = sqlkit::parse_query(sql).unwrap();
            let reference = exec::execute(&db, &q).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            assert_eq!(db.run_query(&q), Ok(reference), "`{sql}`");
        }
    }

    /// A select alias is a whole ORDER BY key. Inside a key expression it
    /// is a name like any other — never, as the interpreter once had it, a
    /// silent sort by the alias itself (`ORDER BY -x` returned 1, 2, 3).
    #[test]
    fn an_order_by_expression_never_sorts_by_a_bare_alias() {
        let db = db(false);
        let ints = |sql: &str| -> Vec<i64> {
            let q = sqlkit::parse_query(sql).unwrap();
            let plan = compile(&db, &q).unwrap_or_else(|| panic!("`{sql}` must compile"));
            let rs = plan.execute(&db).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            assert_eq!(exec::execute(&db, &q), Ok(rs.clone()), "`{sql}`");
            rs.rows.iter().map(|r| if let V::Int(i) = r[0] { i } else { panic!("{r:?}") }).collect()
        };
        assert_eq!(ints("SELECT a AS x FROM t ORDER BY x"), [1, 2, 3]);
        assert_eq!(ints("SELECT a AS x FROM t ORDER BY -a"), [3, 2, 1]);
        // the alias wins over a column of the same name, as a whole key only
        assert_eq!(ints("SELECT -a AS a FROM t ORDER BY a"), [-3, -2, -1]);
        assert_eq!(ints("SELECT -a AS a FROM t ORDER BY a + 0"), [-1, -2, -3]);
        assert_bind_error("SELECT a AS x FROM t ORDER BY -x", &col("x"));
        assert_bind_error("SELECT a AS x FROM t ORDER BY x + 1, a", &col("x"));
    }

    /// The walk recurses per subquery level; the deepest chain the parser
    /// admits binds — its innermost name looked up through every enclosing
    /// scope — on a 2 MiB stack, what a spawned server thread gets.
    #[test]
    fn the_deepest_chain_the_parser_admits_binds_on_a_server_thread_stack() {
        let chain = |n: usize, leaf: &str| {
            format!("SELECT {}{leaf}{} FROM t WHERE a = 3", "(SELECT ".repeat(n), ")".repeat(n))
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (depth, bad) = (1..=sqlkit::MAX_NESTING)
                    .rev()
                    .find_map(|n| Some((n, sqlkit::parse_query(&chain(n, "nosuch")).ok()?)))
                    .expect("some depth parses");
                assert!(depth >= sqlkit::MAX_NESTING / 4, "chain depth {depth}");
                let db = db(false);
                let want: ExecResult<ResultSet> = Err(col("nosuch"));
                assert_eq!(db.run_query(&bad), want);
                assert_eq!(exec::execute_with_budget(&db, &bad, 1), want);
                // the same chain over a name the outermost query binds
                let good = sqlkit::parse_query(&chain(depth, "name")).unwrap();
                assert_eq!(db.run_query(&good).map(|rs| rs.rows), Ok(vec![vec![V::text("y")]]));
            })
            .expect("spawn")
            .join()
            .expect("binding the deepest chain fits a 2 MiB stack");
    }
}
