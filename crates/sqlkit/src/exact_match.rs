//! Spider-style Exact Match (EM) comparison.
//!
//! The Spider evaluator's "exact set match" compares gold and predicted SQL
//! clause-by-clause on normalized structures, treating the SELECT list, the
//! top-level WHERE conjuncts, and GROUP BY keys as *sets* so that column
//! order does not matter, while ORDER BY remains a sequence. Literal values
//! may be compared or ignored ([`ValueMode`]); the headline Spider EM metric
//! ignores values ("exact set match without values").

use crate::ast::*;
use crate::normalize::normalize;
use crate::printer::to_sql;
use serde::{Deserialize, Serialize};

/// Whether literal values participate in the EM comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValueMode {
    /// Replace every literal with a placeholder before comparing — the
    /// Spider leaderboard's "exact set match without values".
    #[default]
    Ignore,
    /// Compare literals exactly.
    Compare,
}

/// Compare two queries for Spider-style exact match with default
/// ([`ValueMode::Ignore`]) semantics.
pub fn exact_match(gold: &Query, pred: &Query) -> bool {
    exact_match_with(gold, pred, ValueMode::Ignore)
}

/// Compare two queries for exact match under the given [`ValueMode`].
pub fn exact_match_with(gold: &Query, pred: &Query, mode: ValueMode) -> bool {
    let mut g = normalize(gold);
    let mut p = normalize(pred);
    if mode == ValueMode::Ignore {
        mask_query_values(&mut g);
        mask_query_values(&mut p);
    }
    queries_match(&g, &p)
}

fn queries_match(g: &Query, p: &Query) -> bool {
    if g.set_ops.len() != p.set_ops.len() {
        return false;
    }
    // A chain built from a single commutative set operator (UNION,
    // UNION ALL, INTERSECT) is order-insensitive: compare the cores as an
    // unordered collection, mirroring how WHERE conjuncts are compared.
    // EXCEPT and mixed-operator chains stay strictly positional.
    let commutative_chain = |q: &Query| {
        let first = q.set_ops.first().map(|(op, _)| *op)?;
        if !matches!(first, SetOp::Union | SetOp::UnionAll | SetOp::Intersect) {
            return None;
        }
        q.set_ops.iter().all(|(op, _)| *op == first).then_some(first)
    };
    match (commutative_chain(g), commutative_chain(p)) {
        (Some(go), Some(po)) => {
            if go != po {
                return false;
            }
            let g_cores: Vec<&SelectCore> = g.cores().collect();
            let mut p_cores: Vec<&SelectCore> = p.cores().collect();
            for gc in g_cores {
                match p_cores.iter().position(|pc| cores_match(gc, pc)) {
                    Some(i) => {
                        p_cores.swap_remove(i);
                    }
                    None => return false,
                }
            }
        }
        (None, None) => {
            if !cores_match(&g.body, &p.body) {
                return false;
            }
            for ((go, gc), (po, pc)) in g.set_ops.iter().zip(&p.set_ops) {
                if go != po || !cores_match(gc, pc) {
                    return false;
                }
            }
        }
        _ => return false,
    }
    // ORDER BY is a sequence; compare rendered keys in order.
    if g.order_by.len() != p.order_by.len() {
        return false;
    }
    for (gk, pk) in g.order_by.iter().zip(&p.order_by) {
        if gk.desc != pk.desc || expr_key(&gk.expr) != expr_key(&pk.expr) {
            return false;
        }
    }
    g.limit == p.limit
}

fn cores_match(g: &SelectCore, p: &SelectCore) -> bool {
    if g.distinct != p.distinct {
        return false;
    }
    // SELECT list as a multiset of rendered items (aliases ignored: Spider's
    // evaluator compares the underlying value units, not output names).
    if !multiset_eq(g.items.iter().map(item_key), p.items.iter().map(item_key)) {
        return false;
    }
    // FROM: table name multiset + join-kind multiset + ON conjunct multiset.
    match (&g.from, &p.from) {
        (None, None) => {}
        (Some(gf), Some(pf)) => {
            if !from_match(gf, pf) {
                return false;
            }
        }
        _ => return false,
    }
    // WHERE / HAVING: top-level conjuncts as multisets.
    if !opt_pred_match(&g.where_clause, &p.where_clause) {
        return false;
    }
    if !multiset_eq(g.group_by.iter().map(expr_key), p.group_by.iter().map(expr_key)) {
        return false;
    }
    opt_pred_match(&g.having, &p.having)
}

fn from_match(g: &FromClause, p: &FromClause) -> bool {
    let table_key = |t: &TableRef| match t {
        TableRef::Named { name, .. } => format!("T:{name}"),
        TableRef::Subquery { query, .. } => format!("Q:{}", to_sql(query)),
    };
    if !multiset_eq(g.tables().map(&table_key), p.tables().map(&table_key)) {
        return false;
    }
    let mut g_kinds: Vec<JoinKind> = g.joins.iter().map(|j| j.kind).collect();
    let mut p_kinds: Vec<JoinKind> = p.joins.iter().map(|j| j.kind).collect();
    g_kinds.sort_by_key(|k| format!("{k:?}"));
    p_kinds.sort_by_key(|k| format!("{k:?}"));
    if g_kinds != p_kinds {
        return false;
    }
    // ON conditions: every conjunct from all joins, as an unordered multiset,
    // with equality conjuncts canonicalized so a.x = b.y equals b.y = a.x.
    let collect_on = |f: &FromClause| {
        let mut keys = Vec::new();
        for j in &f.joins {
            if let Some(on) = &j.on {
                for c in conjuncts(on) {
                    keys.push(symmetric_eq_key(c));
                }
            }
        }
        keys
    };
    multiset_eq(collect_on(g).into_iter(), collect_on(p).into_iter())
}

fn opt_pred_match(g: &Option<Expr>, p: &Option<Expr>) -> bool {
    match (g, p) {
        (None, None) => true,
        (Some(ge), Some(pe)) => multiset_eq(
            // Same key as JOIN ... ON conjuncts: symmetric equality, so
            // `a.id = b.id` matches `b.id = a.id` in WHERE and HAVING too.
            conjuncts(ge).into_iter().map(symmetric_eq_key),
            conjuncts(pe).into_iter().map(symmetric_eq_key),
        ),
        _ => false,
    }
}

/// Split a predicate on top-level ANDs.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        _ => vec![e],
    }
}

/// Canonical text key for an expression (printer output on normalized AST).
fn expr_key(e: &Expr) -> String {
    let mut s = String::new();
    crate::printer::write_expr_for_key(&mut s, e);
    s
}

/// Like [`expr_key`] but canonicalizes symmetric equality so the two
/// operand orders compare equal (used for JOIN ... ON conditions).
fn symmetric_eq_key(e: &Expr) -> String {
    if let Expr::Binary { op: BinOp::Eq, left, right } = e {
        let l = expr_key(left);
        let r = expr_key(right);
        if l <= r {
            format!("{l} = {r}")
        } else {
            format!("{r} = {l}")
        }
    } else {
        expr_key(e)
    }
}

fn item_key(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::QualifiedWildcard(t) => format!("{t}.*"),
        SelectItem::Expr { expr, .. } => expr_key(expr),
    }
}

fn multiset_eq(a: impl Iterator<Item = String>, b: impl Iterator<Item = String>) -> bool {
    let mut av: Vec<String> = a.collect();
    let mut bv: Vec<String> = b.collect();
    av.sort();
    bv.sort();
    av == bv
}

/// Replace every literal in the query and its subqueries with a
/// placeholder, in place. LIMIT counts are values too under Ignore; Spider
/// keeps LIMIT presence but not the number.
fn mask_query_values(q: &mut Query) {
    q.for_each_child_mut(mask_values);
    if let Some(l) = &mut q.limit {
        l.count = 0;
        l.offset = 0;
    }
}

fn mask_values(child: ChildMut<'_>) {
    match child {
        ChildMut::Expr(Expr::Literal(lit)) => *lit = Literal::Str("value".into()),
        ChildMut::Expr(e) => e.for_each_child_mut(mask_values),
        ChildMut::Query(q) => mask_query_values(q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn em(gold: &str, pred: &str) -> bool {
        exact_match(&parse_query(gold).unwrap(), &parse_query(pred).unwrap())
    }

    fn em_values(gold: &str, pred: &str) -> bool {
        exact_match_with(
            &parse_query(gold).unwrap(),
            &parse_query(pred).unwrap(),
            ValueMode::Compare,
        )
    }

    #[test]
    fn identical_queries_match() {
        assert!(em("SELECT name FROM singer", "SELECT name FROM singer"));
    }

    #[test]
    fn case_and_alias_insensitive() {
        assert!(em(
            "SELECT T1.Name FROM Singer AS T1",
            "select singer.name from singer"
        ));
    }

    #[test]
    fn select_order_insensitive() {
        assert!(em("SELECT a, b FROM t", "SELECT b, a FROM t"));
    }

    #[test]
    fn where_conjunct_order_insensitive() {
        assert!(em(
            "SELECT 1 FROM t WHERE a = 1 AND b = 2",
            "SELECT 1 FROM t WHERE b = 2 AND a = 1"
        ));
    }

    #[test]
    fn or_structure_is_ordered_within_conjunct() {
        // OR operands are part of one conjunct; different OR operand order is
        // a different rendered key, hence no match (Spider behaves the same).
        assert!(!em(
            "SELECT 1 FROM t WHERE a = 1 OR b = 2",
            "SELECT 1 FROM t WHERE b = 2 OR a = 1"
        ));
    }

    #[test]
    fn values_ignored_by_default() {
        assert!(em(
            "SELECT name FROM t WHERE age > 20",
            "SELECT name FROM t WHERE age > 99"
        ));
        assert!(!em_values(
            "SELECT name FROM t WHERE age > 20",
            "SELECT name FROM t WHERE age > 99"
        ));
    }

    #[test]
    fn limit_presence_matters_but_count_does_not() {
        assert!(em("SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 5"));
        assert!(!em("SELECT a FROM t LIMIT 3", "SELECT a FROM t"));
        assert!(!em_values("SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 5"));
    }

    #[test]
    fn different_columns_do_not_match() {
        assert!(!em("SELECT name FROM t", "SELECT age FROM t"));
    }

    #[test]
    fn different_aggregates_do_not_match() {
        assert!(!em("SELECT MAX(a) FROM t", "SELECT MIN(a) FROM t"));
    }

    #[test]
    fn join_on_operand_order_insensitive() {
        assert!(em(
            "SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.id = T2.tid",
            "SELECT t.a FROM t JOIN u ON u.tid = t.id"
        ));
    }

    #[test]
    fn join_table_order_insensitive() {
        assert!(em(
            "SELECT a.x FROM a JOIN b ON a.id = b.aid",
            "SELECT a.x FROM b JOIN a ON a.id = b.aid"
        ));
    }

    #[test]
    fn order_by_is_ordered() {
        assert!(!em(
            "SELECT a FROM t ORDER BY a, b",
            "SELECT a FROM t ORDER BY b, a"
        ));
        assert!(!em("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"));
    }

    #[test]
    fn distinct_matters() {
        assert!(!em("SELECT DISTINCT a FROM t", "SELECT a FROM t"));
    }

    #[test]
    fn set_ops_compared() {
        assert!(em(
            "SELECT a FROM t UNION SELECT a FROM u",
            "SELECT a FROM t UNION SELECT a FROM u"
        ));
        assert!(!em(
            "SELECT a FROM t UNION SELECT a FROM u",
            "SELECT a FROM t EXCEPT SELECT a FROM u"
        ));
    }

    #[test]
    fn subqueries_compared_structurally() {
        assert!(em(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 5)",
            "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 7)"
        ));
        assert!(!em(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)",
            "SELECT a FROM t WHERE b IN (SELECT x FROM u)"
        ));
    }

    #[test]
    fn select_aliases_ignored() {
        assert!(em("SELECT a AS x FROM t", "SELECT a AS y FROM t"));
        assert!(em("SELECT a AS x FROM t", "SELECT a FROM t"));
    }

    #[test]
    fn where_equality_operand_order_insensitive() {
        // WHERE conjuncts use the same symmetric-equality key as ON.
        assert!(em(
            "SELECT t.a FROM t JOIN u ON t.id = u.tid WHERE t.b = u.c",
            "SELECT t.a FROM t JOIN u ON t.id = u.tid WHERE u.c = t.b"
        ));
        // Non-equality comparisons stay directional.
        assert!(!em(
            "SELECT a FROM t WHERE a > b",
            "SELECT a FROM t WHERE b > a"
        ));
    }

    #[test]
    fn having_conjuncts_are_a_set_with_symmetric_equality() {
        assert!(em(
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1 AND SUM(b) = MAX(c)",
            "SELECT a FROM t GROUP BY a HAVING MAX(c) = SUM(b) AND COUNT(*) > 1"
        ));
        assert!(!em(
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1",
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2 AND 1 = 1"
        ));
    }

    #[test]
    fn commutative_set_op_core_order_insensitive() {
        assert!(em(
            "SELECT a FROM t UNION SELECT b FROM u",
            "SELECT b FROM u UNION SELECT a FROM t"
        ));
        assert!(em(
            "SELECT a FROM t INTERSECT SELECT b FROM u",
            "SELECT b FROM u INTERSECT SELECT a FROM t"
        ));
        assert!(em(
            "SELECT a FROM t UNION ALL SELECT b FROM u",
            "SELECT b FROM u UNION ALL SELECT a FROM t"
        ));
    }

    #[test]
    fn except_core_order_is_positional() {
        assert!(!em(
            "SELECT a FROM t EXCEPT SELECT b FROM u",
            "SELECT b FROM u EXCEPT SELECT a FROM t"
        ));
        // UNION vs UNION ALL never match.
        assert!(!em(
            "SELECT a FROM t UNION SELECT b FROM u",
            "SELECT a FROM t UNION ALL SELECT b FROM u"
        ));
    }

    #[test]
    fn where_vs_having_not_interchangeable() {
        assert!(!em(
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1",
            "SELECT a FROM t WHERE COUNT(*) > 1 GROUP BY a"
        ));
    }
}
