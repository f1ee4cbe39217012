//! StaticRepair post-processing: schema-aware identifier repair.
//!
//! A deterministic post-processor in the Figure-13 design space: run the
//! `sqlcheck` analyzer over the decoded query and, when it reports
//! Error-severity diagnostics, try to repair unresolvable table and column
//! identifiers by nearest-name matching against the database schema (the
//! classic "did you mean" repair real systems apply to model output before
//! execution). A column is a candidate only when `sqlcheck::scope`, the
//! lookup rule the analyzer binds names with, finds it nowhere in reach —
//! the query's own FROM, then each enclosing query's — and no binding with
//! unknown columns could carry it: a valid correlated reference is never
//! touched. The repair is kept only if it strictly reduces the number of
//! Error diagnostics, so it can never turn a clean query into a broken one
//! — and a clean query is never touched at all.

use sqlcheck::scope::{self, Binding, Resolution, Scope};
use sqlcheck::Catalog;
use sqlkit::ast::*;

/// Repair `query` in place against its database's schema catalog (a
/// [`DbProfile`]'s). Returns `true` when the query was changed (and the
/// change reduced Error diagnostics).
///
/// [`DbProfile`]: crate::DbProfile
pub fn static_repair(query: &mut Query, catalog: &Catalog) -> bool {
    let before = sqlcheck::errors(catalog, query).len();
    if before == 0 {
        return false;
    }
    let mut repaired = query.clone();
    let mut changed = false;
    repair_query(&mut repaired, catalog, None, &mut changed);
    if !changed {
        return false;
    }
    if sqlcheck::errors(catalog, &repaired).len() < before {
        *query = repaired;
        true
    } else {
        false
    }
}

/// Repair a query inside the scope `outer` of the queries enclosing it.
fn repair_query(
    query: &mut Query,
    catalog: &Catalog,
    outer: Option<&Scope<'_>>,
    changed: &mut bool,
) {
    let bindings = repair_core(&mut query.body, catalog, outer, changed);
    for (_, core) in &mut query.set_ops {
        repair_core(core, catalog, outer, changed);
    }
    let scope = Scope { bindings: &bindings, parent: outer };
    for k in &mut query.order_by {
        // select aliases are legal ORDER BY keys — never "repair" one into a
        // real column
        if minidb::exec::order_alias(&query.body, &k.expr).is_none() {
            repair_expr(&mut k.expr, &scope, catalog, changed);
        }
    }
}

/// Repair one core; returns its bindings (for the query's ORDER BY).
fn repair_core<'c>(
    core: &mut SelectCore,
    catalog: &'c Catalog,
    outer: Option<&Scope<'_>>,
    changed: &mut bool,
) -> Vec<Binding<'c>> {
    // tables first, so column repair sees the repaired FROM
    for t in core.from.iter_mut().flat_map(FromClause::tables_mut) {
        repair_table_ref(t, catalog, changed);
    }
    let bindings = scope::bindings(core.from.as_ref(), Some(catalog));
    let scope = Scope { bindings: &bindings, parent: outer };
    core.for_each_child_mut(|c| match c {
        // a FROM subquery sees the enclosing query's scope, not its siblings
        ChildMut::Query(q) => repair_query(q, catalog, outer, changed),
        ChildMut::Expr(e) => repair_expr(e, &scope, catalog, changed),
    });
    bindings
}

/// Rename an unknown base table to the closest catalog table name.
fn repair_table_ref(t: &mut TableRef, catalog: &Catalog, changed: &mut bool) {
    if let TableRef::Named { name, .. } = t {
        if catalog.table(name).is_none() {
            let candidates: Vec<&str> = catalog.tables().iter().map(|t| t.name.as_str()).collect();
            if let Some(fix) = closest(name, &candidates) {
                *name = fix.to_string();
                *changed = true;
            }
        }
    }
}

fn repair_expr(e: &mut Expr, scope: &Scope<'_>, catalog: &Catalog, changed: &mut bool) {
    if let Expr::Column { table, column } = e {
        repair_column(table, column, scope, changed);
    }
    e.for_each_child_mut(|c| match c {
        ChildMut::Query(q) => repair_query(q, catalog, Some(scope), changed),
        ChildMut::Expr(e) => repair_expr(e, scope, catalog, changed),
    });
}

/// Repair one column reference that resolves nowhere in `scope`: requalify
/// a qualified reference whose column lives in another binding of the same
/// FROM, or rename the column to the closest column name that FROM (the
/// qualified table, for a qualified reference) has.
fn repair_column(
    table: &mut Option<String>,
    column: &mut String,
    scope: &Scope<'_>,
    changed: &mut bool,
) {
    if scope.resolve(table.as_deref(), column) != Resolution::NotFound {
        return;
    }
    let from = Scope { bindings: scope.bindings, parent: None };
    let candidates: Vec<&str> = match table {
        Some(q) => {
            // a qualifier this FROM does not bind is left alone
            let Some(target) = from.binding(q) else { return };
            // the column exists under another binding → requalify
            if let Resolution::Found { key, .. } = from.resolve(None, column) {
                if let Some(other) = from.binding_at(key).and_then(|b| b.name.as_deref()) {
                    *q = other.to_lowercase();
                    *changed = true;
                    return;
                }
            }
            target.cols.iter().flat_map(|cs| cs.iter()).map(|(c, _)| c.as_str()).collect()
        }
        None => from
            .bindings
            .iter()
            .flat_map(|b| b.cols.iter().flat_map(|cs| cs.iter()))
            .map(|(c, _)| c.as_str())
            .collect(),
    };
    if let Some(fix) = closest(column, &candidates) {
        *column = fix.to_string();
        *changed = true;
    }
}

/// The candidate closest to `name` by edit distance, when close enough to
/// plausibly be the intended identifier (distance at most half the name's
/// length, and never more than 3).
fn closest<'a>(name: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = (name.len() / 2).clamp(1, 3);
    candidates
        .iter()
        .map(|c| (levenshtein(&name.to_lowercase(), &c.to_lowercase()), *c))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, c)| (d, c.len()))
        .map(|(_, c)| c)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind, GeneratedDb};

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5))
    }

    fn catalog(db: &GeneratedDb) -> Catalog {
        crate::DbProfile::new(db).catalog
    }

    #[test]
    fn clean_queries_are_left_alone() {
        let c = corpus();
        let s = &c.dev[0];
        let mut q = s.query.clone();
        assert!(!static_repair(&mut q, &catalog(c.db(s))));
        assert_eq!(sqlkit::to_sql(&q), s.sql);
    }

    #[test]
    fn typoed_identifiers_get_repaired_to_executable_sql() {
        let c = corpus();
        // find a sample reading from a plain named table
        let s = c
            .dev
            .iter()
            .find(|s| {
                matches!(
                    s.query.body.from.as_ref().map(|f| &f.base),
                    Some(TableRef::Named { .. })
                )
            })
            .expect("some sample reads a named table");
        let db = c.db(s);
        let mut q = s.query.clone();
        // typo the base table (drop its last character)
        if let Some(TableRef::Named { name, .. }) = q.body.from.as_mut().map(|f| &mut f.base) {
            name.pop();
        }
        assert!(db.database.run_query(&q).is_err(), "typo must break execution");
        assert!(static_repair(&mut q, &catalog(db)), "repair must engage");
        assert!(db.database.run_query(&q).is_ok(), "repaired query must run: {}", sqlkit::to_sql(&q));
    }

    #[test]
    fn unrepairable_garbage_is_not_made_worse() {
        let c = corpus();
        let s = &c.dev[0];
        let mut q = sqlkit::parse_query("SELECT zzz_nothing_close FROM qqq_unrelated").unwrap();
        let before = sqlkit::to_sql(&q);
        let cat = catalog(c.db(s));
        static_repair(&mut q, &cat);
        // either repaired to something better or left untouched — never
        // rewritten without reducing errors
        assert!(
            sqlkit::to_sql(&q) == before || sqlcheck::errors(&cat, &q).len() < 2,
            "{}",
            sqlkit::to_sql(&q)
        );
    }

    /// `t(id, code)` and `u(tid, node)`.
    fn two_tables() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table("t", vec![("id", sqlcheck::Ty::Num), ("code", sqlcheck::Ty::Text)]);
        cat.add_table("u", vec![("tid", sqlcheck::Ty::Num), ("node", sqlcheck::Ty::Text)]);
        cat
    }

    fn repaired(sql: &str) -> String {
        let mut q = sqlkit::parse_query(sql).unwrap();
        static_repair(&mut q, &two_tables());
        sqlkit::to_sql(&q)
    }

    fn printed(sql: &str) -> String {
        sqlkit::to_sql(&sqlkit::parse_query(sql).unwrap())
    }

    #[test]
    fn a_correlated_outer_column_is_left_alone() {
        // `code` is the outer `t.code`: only the typo `idd` is repaired
        assert_eq!(
            repaired(
                "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.tid = t.id \
                 AND node = code) AND idd = 1"
            ),
            printed(
                "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.tid = t.id \
                 AND node = code) AND id = 1"
            )
        );
    }

    #[test]
    fn a_from_subquery_does_not_see_its_siblings() {
        // `t.code` is a sibling, not in scope: `code` is repaired within `u`
        assert_eq!(
            repaired("SELECT * FROM t, (SELECT code FROM u) AS d"),
            printed("SELECT * FROM t, (SELECT node FROM u) AS d")
        );
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("singer", "singer"), 0);
        assert_eq!(levenshtein("singer", "singers"), 1);
        assert_eq!(levenshtein("abc", "xyz"), 3);
        assert_eq!(closest("singe", &["singer", "concert"]), Some("singer"));
        assert_eq!(closest("zzzzzz", &["singer", "concert"]), None);
    }
}
