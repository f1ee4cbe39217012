//! StaticRepair post-processing: schema-aware identifier repair.
//!
//! A deterministic post-processor in the Figure-13 design space: run the
//! `sqlcheck` analyzer over the decoded query and, when it reports
//! Error-severity diagnostics, try to repair unresolvable table and column
//! identifiers by nearest-name matching against the database schema (the
//! classic "did you mean" repair real systems apply to model output before
//! execution). The repair is kept only if it strictly reduces the number
//! of Error diagnostics, so it can never turn a clean query into a broken
//! one — and a clean query is never touched at all.

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
    repair_query(&mut repaired, catalog, &mut changed);
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

/// One visible table binding: (binding name lowercased, its columns).
struct Binding<'a> {
    name: String,
    cols: Option<&'a [(String, sqlcheck::Ty)]>,
}

fn repair_query(query: &mut Query, catalog: &Catalog, changed: &mut bool) {
    repair_core(&mut query.body, catalog, changed);
    let arm_bindings = bindings_of(&query.body, catalog);
    for (_, core) in &mut query.set_ops {
        repair_core(core, catalog, changed);
    }
    // select aliases are legal ORDER BY keys — never "repair" one into a
    // real column
    let aliases: Vec<String> = query
        .body
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Expr { alias: Some(a), .. } => Some(a.to_lowercase()),
            _ => None,
        })
        .collect();
    for k in &mut query.order_by {
        if let Expr::Column { table: None, column } = &k.expr {
            if aliases.contains(&column.to_lowercase()) {
                continue;
            }
        }
        repair_child(ChildMut::Expr(&mut k.expr), &arm_bindings, catalog, changed);
    }
}

fn repair_core(core: &mut SelectCore, catalog: &Catalog, changed: &mut bool) {
    // tables first, so column repair sees the repaired FROM; FROM
    // subqueries define their own scopes
    for t in core.from.iter_mut().flat_map(FromClause::tables_mut) {
        repair_table_ref(t, catalog, changed);
    }
    let bindings = bindings_of(core, catalog);
    core.for_each_child_mut(|c| repair_child(c, &bindings, catalog, changed));
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

fn bindings_of<'a>(core: &SelectCore, catalog: &'a Catalog) -> Vec<Binding<'a>> {
    let mut out = Vec::new();
    let Some(from) = &core.from else { return out };
    let mut add = |t: &TableRef| {
        let name = t.binding().unwrap_or("").to_lowercase();
        let cols = match t {
            TableRef::Named { name, .. } => catalog.table(name).map(|t| t.columns.as_slice()),
            TableRef::Subquery { .. } => None,
        };
        out.push(Binding { name, cols });
    };
    add(&from.base);
    for j in &from.joins {
        add(&j.table);
    }
    out
}

fn repair_child(
    child: ChildMut<'_>,
    bindings: &[Binding<'_>],
    catalog: &Catalog,
    changed: &mut bool,
) {
    match child {
        ChildMut::Query(q) => repair_query(q, catalog, changed),
        ChildMut::Expr(e) => {
            if let Expr::Column { table, column } = e {
                repair_column(table, column, bindings, changed);
            }
            e.for_each_child_mut(|c| repair_child(c, bindings, catalog, changed));
        }
    }
}

/// Repair one column reference against the visible bindings: requalify a
/// qualified reference whose column lives in a different visible table, or
/// rename the column to the closest visible column name.
fn repair_column(
    table: &mut Option<String>,
    column: &mut String,
    bindings: &[Binding<'_>],
    changed: &mut bool,
) {
    let has =
        |b: &Binding<'_>| b.cols.is_none_or(|cs| cs.iter().any(|(c, _)| c.eq_ignore_ascii_case(column)));
    match table {
        Some(q) => {
            let ql = q.to_lowercase();
            let Some(target) = bindings.iter().find(|b| b.name == ql) else { return };
            if has(target) {
                return;
            }
            // the column exists under another visible binding → requalify
            if let Some(other) = bindings.iter().find(|b| b.cols.is_some() && has(b)) {
                *q = other.name.clone();
                *changed = true;
                return;
            }
            // otherwise: closest column within the qualified table
            if let Some(cs) = target.cols {
                let names: Vec<&str> = cs.iter().map(|(c, _)| c.as_str()).collect();
                if let Some(fix) = closest(column, &names) {
                    *column = fix.to_string();
                    *changed = true;
                }
            }
        }
        None => {
            if bindings.iter().any(has) || bindings.is_empty() {
                return;
            }
            let names: Vec<&str> = bindings
                .iter()
                .filter_map(|b| b.cols)
                .flat_map(|cs| cs.iter().map(|(c, _)| c.as_str()))
                .collect();
            if let Some(fix) = closest(column, &names) {
                *column = fix.to_string();
                *changed = true;
            }
        }
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

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("singer", "singer"), 0);
        assert_eq!(levenshtein("singer", "singers"), 1);
        assert_eq!(levenshtein("abc", "xyz"), 3);
        assert_eq!(closest("singe", &["singer", "concert"]), Some("singer"));
        assert_eq!(closest("zzzzzz", &["singer", "concert"]), None);
    }
}
