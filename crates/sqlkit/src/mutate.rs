//! AST mutation library — the corruption engine's primitives.
//!
//! The simulated model zoo (see the `modelzoo` crate) produces *incorrect*
//! predictions by applying realistic, small AST-level edits to the gold SQL:
//! the error taxonomy mirrors what real NL2SQL systems get wrong (wrong
//! column, wrong comparison direction, missing predicate, wrong aggregate,
//! off-by-one values, flipped sort order, mangled subqueries, dropped
//! JOINs). Every mutation is deterministic given the RNG.

use crate::ast::*;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The kinds of corruption the engine can apply. Matches the common error
/// categories observed in NL2SQL error analyses (schema-linking errors,
/// operator errors, value errors, structural errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MutationKind {
    /// Replace a column reference with a different column (schema-linking
    /// error).
    SwapColumn,
    /// Replace a comparison operator (`>` → `>=`, `=` → `!=`, ...).
    SwapComparison,
    /// Perturb a literal value (off-by-one numbers, truncated strings).
    PerturbValue,
    /// Drop one top-level WHERE conjunct.
    DropCondition,
    /// Replace an aggregate function (`MAX` → `MIN`, `SUM` → `AVG`, ...).
    SwapAggregate,
    /// Flip an ORDER BY direction or drop the ORDER BY entirely.
    BreakOrderBy,
    /// Change the LIMIT count.
    PerturbLimit,
    /// Toggle DISTINCT on the outer select.
    ToggleDistinct,
    /// Remove the last JOIN (and with it any qualified references become
    /// dangling — the classic missing-JOIN error).
    DropJoin,
    /// Replace an IN/EXISTS subquery with a literal comparison (failure to
    /// reason through nesting).
    FlattenSubquery,
    /// Swap AND ↔ OR in a predicate.
    SwapConnector,
}

impl MutationKind {
    /// All mutation kinds, used to build weighted palettes.
    pub const ALL: [MutationKind; 11] = [
        MutationKind::SwapColumn,
        MutationKind::SwapComparison,
        MutationKind::PerturbValue,
        MutationKind::DropCondition,
        MutationKind::SwapAggregate,
        MutationKind::BreakOrderBy,
        MutationKind::PerturbLimit,
        MutationKind::ToggleDistinct,
        MutationKind::DropJoin,
        MutationKind::FlattenSubquery,
        MutationKind::SwapConnector,
    ];
}

/// Column vocabulary for schema-linking mutations. When empty, the mutator
/// falls back to columns mentioned in the query itself.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    /// Candidate column names (unqualified).
    pub columns: Vec<String>,
}

impl Vocab {
    /// Build a vocabulary from a list of column names.
    pub fn new(columns: impl IntoIterator<Item = String>) -> Self {
        Self { columns: columns.into_iter().collect() }
    }
}

/// Apply one mutation of the given kind to `query`. Returns `true` if the
/// mutation found an applicable site and changed the AST.
pub fn apply_mutation(
    query: &mut Query,
    kind: MutationKind,
    vocab: &Vocab,
    rng: &mut impl Rng,
) -> bool {
    match kind {
        MutationKind::SwapColumn => swap_column(query, vocab, rng),
        MutationKind::SwapComparison => swap_comparison(query, rng),
        MutationKind::PerturbValue => perturb_value(query, rng),
        MutationKind::DropCondition => drop_condition(query),
        MutationKind::SwapAggregate => swap_aggregate(query, rng),
        MutationKind::BreakOrderBy => break_order_by(query, rng),
        MutationKind::PerturbLimit => perturb_limit(query, rng),
        MutationKind::ToggleDistinct => {
            query.body.distinct = !query.body.distinct;
            true
        }
        MutationKind::DropJoin => drop_join(query),
        MutationKind::FlattenSubquery => flatten_subquery(query),
        MutationKind::SwapConnector => swap_connector(query),
    }
}

/// Corrupt a query by applying one randomly-chosen applicable mutation from
/// `palette` (weighted uniform). Tries kinds in random order until one
/// applies; returns the kind used, or `None` if nothing in the palette was
/// applicable (e.g. `SELECT 1`).
pub fn corrupt(
    query: &mut Query,
    palette: &[MutationKind],
    vocab: &Vocab,
    rng: &mut impl Rng,
) -> Option<MutationKind> {
    let mut order: Vec<MutationKind> = palette.to_vec();
    order.shuffle(rng);
    order.into_iter().find(|&kind| apply_mutation(query, kind, vocab, rng))
}

/// Collect all column names referenced in the query.
pub fn referenced_columns(query: &Query) -> Vec<String> {
    let mut cols = Vec::new();
    walk_query_exprs(query, &mut |e| {
        if let Expr::Column { column, .. } = e {
            if !cols.contains(column) {
                cols.push(column.clone());
            }
        }
    });
    cols
}

// ---- individual mutations ----

/// Visit every clause expression of every core, then ORDER BY, pre-order
/// and without entering subqueries: the sites a mutation picks among.
fn for_each_expr_mut(query: &mut Query, f: &mut impl FnMut(&mut Expr)) {
    query.for_each_child_mut(|c| {
        if let ChildMut::Expr(e) = c {
            e.walk_mut(f);
        }
    });
}

fn swap_column(query: &mut Query, vocab: &Vocab, rng: &mut impl Rng) -> bool {
    let candidates: Vec<String> = if vocab.columns.len() >= 2 {
        vocab.columns.clone()
    } else {
        referenced_columns(query)
    };
    if candidates.len() < 2 {
        return false;
    }
    // count column sites
    let mut sites = 0usize;
    for_each_expr_mut(query, &mut |e| {
        if matches!(e, Expr::Column { .. }) {
            sites += 1;
        }
    });
    if sites == 0 {
        return false;
    }
    let target = rng.gen_range(0..sites);
    let replacement_seed: u64 = rng.gen();
    let mut i = 0usize;
    let mut changed = false;
    for_each_expr_mut(query, &mut |e| {
        if let Expr::Column { column, .. } = e {
            if i == target {
                let others: Vec<&String> =
                    candidates.iter().filter(|c| !c.eq_ignore_ascii_case(column)).collect();
                if !others.is_empty() {
                    let pick = &others[(replacement_seed as usize) % others.len()];
                    *column = (*pick).clone();
                    changed = true;
                }
            }
            i += 1;
        }
    });
    changed
}

fn swap_comparison(query: &mut Query, rng: &mut impl Rng) -> bool {
    let mut sites = 0usize;
    for_each_expr_mut(query, &mut |e| {
        if let Expr::Binary { op, .. } = e {
            if op.is_comparison() {
                sites += 1;
            }
        }
    });
    if sites == 0 {
        return false;
    }
    let target = rng.gen_range(0..sites);
    let mut i = 0usize;
    let mut changed = false;
    for_each_expr_mut(query, &mut |e| {
        if let Expr::Binary { op, .. } = e {
            if op.is_comparison() {
                if i == target {
                    *op = match op {
                        BinOp::Eq => BinOp::NotEq,
                        BinOp::NotEq => BinOp::Eq,
                        BinOp::Lt => BinOp::LtEq,
                        BinOp::LtEq => BinOp::Gt,
                        BinOp::Gt => BinOp::GtEq,
                        BinOp::GtEq => BinOp::Lt,
                        _ => unreachable!(),
                    };
                    changed = true;
                }
                i += 1;
            }
        }
    });
    changed
}

fn perturb_value(query: &mut Query, rng: &mut impl Rng) -> bool {
    let mut sites = 0usize;
    for_each_expr_mut(query, &mut |e| {
        if matches!(e, Expr::Literal(Literal::Int(_) | Literal::Float(_) | Literal::Str(_))) {
            sites += 1;
        }
    });
    if sites == 0 {
        return false;
    }
    let target = rng.gen_range(0..sites);
    let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
    let mut i = 0usize;
    let mut changed = false;
    for_each_expr_mut(query, &mut |e| {
        if let Expr::Literal(lit) = e {
            if matches!(lit, Literal::Int(_) | Literal::Float(_) | Literal::Str(_)) {
                if i == target {
                    match lit {
                        Literal::Int(v) => *v += delta,
                        Literal::Float(v) => *v += delta as f64,
                        Literal::Str(s) => {
                            // mangle the value the way models mangle entities
                            if s.len() > 1 {
                                s.pop();
                            } else {
                                s.push('x');
                            }
                        }
                        _ => {}
                    }
                    changed = true;
                }
                i += 1;
            }
        }
    });
    changed
}

fn drop_condition(query: &mut Query) -> bool {
    let w = match &mut query.body.where_clause {
        Some(w) => w,
        None => return false,
    };
    match w {
        Expr::Binary { op: BinOp::And, left, .. } => {
            // drop the right conjunct, keep the left
            let kept = std::mem::replace(&mut **left, Expr::Literal(Literal::Null));
            *w = kept;
            true
        }
        _ => {
            query.body.where_clause = None;
            true
        }
    }
}

fn swap_aggregate(query: &mut Query, rng: &mut impl Rng) -> bool {
    let mut sites = 0usize;
    for_each_expr_mut(query, &mut |e| {
        if matches!(e, Expr::Agg { .. } | Expr::AggWildcard(_)) {
            sites += 1;
        }
    });
    if sites == 0 {
        return false;
    }
    let target = rng.gen_range(0..sites);
    let mut i = 0usize;
    let mut changed = false;
    let swap = |f: AggFunc| match f {
        AggFunc::Max => AggFunc::Min,
        AggFunc::Min => AggFunc::Max,
        AggFunc::Sum => AggFunc::Avg,
        AggFunc::Avg => AggFunc::Sum,
        AggFunc::Count => AggFunc::Sum,
    };
    for_each_expr_mut(query, &mut |e| match e {
        Expr::Agg { func, .. } => {
            if i == target {
                *func = swap(*func);
                changed = true;
            }
            i += 1;
        }
        Expr::AggWildcard(func) => {
            if i == target {
                // COUNT(*) has no natural swap; degrade to COUNT over the
                // first referenced column becoming MAX is too artificial, so
                // flip to a different wildcard-capable behaviour: keep COUNT
                // but this site is considered unswappable.
                let _ = func;
            }
            i += 1;
        }
        _ => {}
    });
    changed
}

fn break_order_by(query: &mut Query, rng: &mut impl Rng) -> bool {
    if query.order_by.is_empty() {
        return false;
    }
    if rng.gen_bool(0.5) {
        let idx = rng.gen_range(0..query.order_by.len());
        query.order_by[idx].desc = !query.order_by[idx].desc;
    } else {
        query.order_by.clear();
    }
    true
}

fn perturb_limit(query: &mut Query, rng: &mut impl Rng) -> bool {
    match &mut query.limit {
        Some(l) => {
            l.count = if l.count <= 1 { l.count + rng.gen_range(1..3) } else { l.count - 1 };
            true
        }
        None => false,
    }
}

fn drop_join(query: &mut Query) -> bool {
    if let Some(from) = &mut query.body.from {
        if from.joins.pop().is_some() {
            return true;
        }
    }
    false
}

fn flatten_subquery(query: &mut Query) -> bool {
    let mut changed = false;
    if let Some(w) = &mut query.body.where_clause {
        flatten_in_expr(w, &mut changed);
    }
    changed
}

fn flatten_in_expr(e: &mut Expr, changed: &mut bool) {
    if *changed {
        return;
    }
    match e {
        Expr::InSubquery { expr, negated, .. } => {
            let inner = std::mem::replace(&mut **expr, Expr::Literal(Literal::Null));
            let op = if *negated { BinOp::NotEq } else { BinOp::Eq };
            *e = Expr::binary(op, inner, Expr::Literal(Literal::Int(1)));
            *changed = true;
        }
        Expr::Exists { negated, .. } => {
            *e = Expr::Literal(Literal::Bool(!*negated));
            *changed = true;
        }
        Expr::Binary { left, right, .. } => {
            flatten_in_expr(left, changed);
            flatten_in_expr(right, changed);
        }
        Expr::Unary { expr, .. } => flatten_in_expr(expr, changed),
        _ => {}
    }
}

fn swap_connector(query: &mut Query) -> bool {
    let mut changed = false;
    if let Some(w) = &mut query.body.where_clause {
        swap_connector_expr(w, &mut changed);
    }
    changed
}

fn swap_connector_expr(e: &mut Expr, changed: &mut bool) {
    if *changed {
        return;
    }
    if let Expr::Binary { op, left, right } = e {
        if *op == BinOp::And {
            *op = BinOp::Or;
            *changed = true;
            return;
        }
        if *op == BinOp::Or {
            *op = BinOp::And;
            *changed = true;
            return;
        }
        swap_connector_expr(left, changed);
        swap_connector_expr(right, changed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::printer::to_sql;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn q(src: &str) -> Query {
        parse_query(src).unwrap()
    }

    #[test]
    fn swap_column_changes_a_reference() {
        let mut query = q("SELECT name FROM singer WHERE age > 20");
        let vocab = Vocab::new(["name".into(), "age".into(), "country".into()]);
        assert!(apply_mutation(&mut query, MutationKind::SwapColumn, &vocab, &mut rng()));
        let orig = q("SELECT name FROM singer WHERE age > 20");
        assert_ne!(query, orig);
    }

    #[test]
    fn swap_column_needs_candidates() {
        let mut query = q("SELECT 1");
        assert!(!apply_mutation(&mut query, MutationKind::SwapColumn, &Vocab::default(), &mut rng()));
    }

    #[test]
    fn swap_comparison() {
        let mut query = q("SELECT a FROM t WHERE a = 1");
        assert!(apply_mutation(&mut query, MutationKind::SwapComparison, &Vocab::default(), &mut rng()));
        assert!(to_sql(&query).contains("!="));
    }

    #[test]
    fn perturb_int_value() {
        let mut query = q("SELECT a FROM t WHERE a > 10");
        assert!(apply_mutation(&mut query, MutationKind::PerturbValue, &Vocab::default(), &mut rng()));
        let s = to_sql(&query);
        assert!(s.contains("> 9") || s.contains("> 11"), "{s}");
    }

    #[test]
    fn perturb_string_value() {
        let mut query = q("SELECT a FROM t WHERE name = 'Paris'");
        assert!(apply_mutation(&mut query, MutationKind::PerturbValue, &Vocab::default(), &mut rng()));
        assert!(to_sql(&query).contains("'Pari'"));
    }

    #[test]
    fn drop_condition_single() {
        let mut query = q("SELECT a FROM t WHERE a = 1");
        assert!(apply_mutation(&mut query, MutationKind::DropCondition, &Vocab::default(), &mut rng()));
        assert!(query.body.where_clause.is_none());
    }

    #[test]
    fn drop_condition_conjunct() {
        let mut query = q("SELECT a FROM t WHERE a = 1 AND b = 2");
        assert!(apply_mutation(&mut query, MutationKind::DropCondition, &Vocab::default(), &mut rng()));
        assert_eq!(to_sql(&query), "SELECT a FROM t WHERE a = 1");
    }

    #[test]
    fn swap_aggregate_max_min() {
        let mut query = q("SELECT MAX(a) FROM t");
        assert!(apply_mutation(&mut query, MutationKind::SwapAggregate, &Vocab::default(), &mut rng()));
        assert_eq!(to_sql(&query), "SELECT MIN(a)  FROM t".replace("  ", " "));
    }

    #[test]
    fn count_star_not_swappable() {
        let mut query = q("SELECT COUNT(*) FROM t");
        assert!(!apply_mutation(&mut query, MutationKind::SwapAggregate, &Vocab::default(), &mut rng()));
    }

    #[test]
    fn break_order_by_flips_or_drops() {
        let mut query = q("SELECT a FROM t ORDER BY a");
        assert!(apply_mutation(&mut query, MutationKind::BreakOrderBy, &Vocab::default(), &mut rng()));
        let s = to_sql(&query);
        assert!(s == "SELECT a FROM t" || s.contains("DESC"), "{s}");
    }

    #[test]
    fn perturb_limit() {
        let mut query = q("SELECT a FROM t LIMIT 5");
        assert!(apply_mutation(&mut query, MutationKind::PerturbLimit, &Vocab::default(), &mut rng()));
        assert_eq!(query.limit.unwrap().count, 4);
    }

    #[test]
    fn drop_join_removes_last() {
        let mut query = q("SELECT a.x FROM a JOIN b ON a.id = b.aid");
        assert!(apply_mutation(&mut query, MutationKind::DropJoin, &Vocab::default(), &mut rng()));
        assert_eq!(to_sql(&query), "SELECT a.x FROM a");
    }

    #[test]
    fn flatten_subquery_in() {
        let mut query = q("SELECT a FROM t WHERE b IN (SELECT c FROM u)");
        assert!(apply_mutation(&mut query, MutationKind::FlattenSubquery, &Vocab::default(), &mut rng()));
        assert_eq!(to_sql(&query), "SELECT a FROM t WHERE b = 1");
    }

    #[test]
    fn flatten_subquery_exists() {
        let mut query = q("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)");
        assert!(apply_mutation(&mut query, MutationKind::FlattenSubquery, &Vocab::default(), &mut rng()));
        assert_eq!(to_sql(&query), "SELECT a FROM t WHERE TRUE");
    }

    #[test]
    fn swap_connector_and_to_or() {
        let mut query = q("SELECT a FROM t WHERE a = 1 AND b = 2");
        assert!(apply_mutation(&mut query, MutationKind::SwapConnector, &Vocab::default(), &mut rng()));
        assert!(to_sql(&query).contains("OR"));
    }

    #[test]
    fn corrupt_always_finds_something_for_rich_queries() {
        let vocab = Vocab::new(["a".into(), "b".into(), "c".into()]);
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut query = q(
                "SELECT a, COUNT(*) FROM t JOIN u ON t.id = u.tid WHERE b > 3 AND c = 'x' \
                 GROUP BY a ORDER BY COUNT(*) DESC LIMIT 5",
            );
            let orig = query.clone();
            let kind = corrupt(&mut query, &MutationKind::ALL, &vocab, &mut rng);
            assert!(kind.is_some());
            assert_ne!(query, orig, "seed {seed} produced no change via {kind:?}");
        }
    }

    #[test]
    fn corrupt_none_for_bare_select() {
        let mut query = q("SELECT 1");
        // Only value perturbation applies to SELECT 1; exclude it.
        let palette = [
            MutationKind::SwapColumn,
            MutationKind::DropCondition,
            MutationKind::SwapAggregate,
            MutationKind::DropJoin,
        ];
        assert!(corrupt(&mut query, &palette, &Vocab::default(), &mut rng()).is_none());
    }

    #[test]
    fn mutated_queries_reparse() {
        let vocab = Vocab::new(["a".into(), "b".into(), "c".into()]);
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut query = q(
                "SELECT a FROM t JOIN u ON t.id = u.tid WHERE b IN (SELECT x FROM v) AND c > 2 \
                 ORDER BY a LIMIT 3",
            );
            corrupt(&mut query, &MutationKind::ALL, &vocab, &mut rng);
            let printed = to_sql(&query);
            parse_query(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: `{printed}` does not reparse: {e}"));
        }
    }

    #[test]
    fn referenced_columns_dedup() {
        let cols = referenced_columns(&q("SELECT a, b FROM t WHERE a > 1"));
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }
}
