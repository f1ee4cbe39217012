//! SQL feature extraction.
//!
//! NL2SQL360's *dataset filter* (paper §3, Scenario-2) slices benchmarks by
//! SQL characteristics: presence of subqueries, number of JOINs, number of
//! logical connectors (AND/OR), use of ORDER BY, aggregates, and so on.
//! [`SqlFeatures`] computes all of those in one pass over the AST.

use crate::ast::*;
use serde::{Deserialize, Serialize};

/// Structural features of a SQL query, as used by the paper's filters
/// (Exp-2.1 … Exp-2.4) and by the hardness classifier.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SqlFeatures {
    /// Number of nested subqueries anywhere (IN/EXISTS/scalar/FROM), plus
    /// set-operation arms — Spider counts those as nesting too.
    pub subquery_count: usize,
    /// Number of JOIN operations (tables joined minus one, summed over all
    /// cores; includes comma joins).
    pub join_count: usize,
    /// Number of logical connectors (AND/OR) in WHERE/HAVING/ON clauses.
    /// Connectors inside subqueries are counted as well.
    pub logical_connector_count: usize,
    /// Number of AND connectors only.
    pub and_count: usize,
    /// Number of OR connectors only.
    pub or_count: usize,
    /// Number of ORDER BY keys across the query and its subqueries.
    pub order_by_count: usize,
    /// Number of aggregate calls (COUNT/SUM/AVG/MIN/MAX) everywhere.
    pub agg_count: usize,
    /// Number of projection items in the outermost select.
    pub select_count: usize,
    /// Number of atomic conditions in the outermost WHERE.
    pub where_cond_count: usize,
    /// Number of GROUP BY expressions across all cores (incl. subqueries).
    pub group_by_count: usize,
    /// Whether a LIMIT clause appears anywhere.
    pub has_limit: bool,
    /// Number of set operations (UNION/INTERSECT/EXCEPT) anywhere.
    pub set_op_count: usize,
    /// Whether DISTINCT appears anywhere.
    pub has_distinct: bool,
    /// Number of LIKE predicates anywhere.
    pub like_count: usize,
    /// Maximum subquery nesting depth (a flat query has depth 0).
    pub nesting_depth: usize,
    /// Whether CASE or IIF appears anywhere (BIRD-style queries).
    pub has_case: bool,
}

impl SqlFeatures {
    /// Extract features from a parsed query.
    pub fn of(query: &Query) -> Self {
        let mut f = SqlFeatures {
            select_count: query.body.items.len(),
            where_cond_count: query.body.where_clause.as_ref().map_or(0, count_atomic_conditions),
            ..SqlFeatures::default()
        };
        collect(query, &mut f, 0);
        f.logical_connector_count = f.and_count + f.or_count;
        f
    }

    /// True if the query contains any subquery (the paper's "w/ Subquery"
    /// filter).
    pub fn has_subquery(&self) -> bool {
        self.subquery_count > 0
    }

    /// True if the query contains any JOIN (the paper's "w/ JOIN" filter).
    pub fn has_join(&self) -> bool {
        self.join_count > 0
    }

    /// True if the query uses ORDER BY (the paper's "w/ ORDER BY" filter).
    pub fn has_order_by(&self) -> bool {
        self.order_by_count > 0
    }

    /// True if the query uses AND/OR connectors (the paper's "w/ Logical
    /// Connector" filter).
    pub fn has_logical_connector(&self) -> bool {
        self.logical_connector_count > 0
    }
}

/// Count atomic (non-AND/OR) conditions within a predicate.
fn count_atomic_conditions(e: &Expr) -> usize {
    match e {
        Expr::Binary { op, left, right } if op.is_logical() => {
            count_atomic_conditions(left) + count_atomic_conditions(right)
        }
        Expr::Unary { op: UnOp::Not, expr } => count_atomic_conditions(expr),
        _ => 1,
    }
}

/// Walk `q` accumulating features; `depth` is the number of subqueries
/// enclosing it. ORDER BY keys are counted, their expressions not read.
fn collect(q: &Query, f: &mut SqlFeatures, depth: usize) {
    f.nesting_depth = f.nesting_depth.max(depth);
    f.set_op_count += q.set_ops.len();
    // set-operation arms beyond the first count as nested queries, as in
    // the Spider evaluator's get_nestedSQL
    f.subquery_count += q.set_ops.len();
    f.has_limit |= q.limit.is_some();
    f.order_by_count += q.order_by.len();
    for core in q.cores() {
        f.has_distinct |= core.distinct;
        f.group_by_count += core.group_by.len();
        f.join_count += core.from.as_ref().map_or(0, |from| from.joins.len());
        core.for_each_child(|c| collect_child(c, f, depth));
    }
}

fn collect_child(child: Child<'_>, f: &mut SqlFeatures, depth: usize) {
    let e = match child {
        Child::Expr(e) => e,
        Child::Query(q) => {
            f.subquery_count += 1;
            return collect(q, f, depth + 1);
        }
    };
    match e {
        Expr::Binary { op: BinOp::And, .. } => f.and_count += 1,
        Expr::Binary { op: BinOp::Or, .. } => f.or_count += 1,
        Expr::Agg { .. } | Expr::AggWildcard(_) => f.agg_count += 1,
        Expr::Like { .. } => f.like_count += 1,
        Expr::Case { .. } => f.has_case = true,
        Expr::Func { name, .. } if name == "IIF" => f.has_case = true,
        _ => {}
    }
    e.for_each_child(|c| collect_child(c, f, depth));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn feats(src: &str) -> SqlFeatures {
        SqlFeatures::of(&parse_query(src).unwrap())
    }

    #[test]
    fn flat_query_has_no_features() {
        let f = feats("SELECT name FROM singer");
        assert_eq!(f.subquery_count, 0);
        assert_eq!(f.join_count, 0);
        assert_eq!(f.logical_connector_count, 0);
        assert!(!f.has_order_by());
        assert_eq!(f.nesting_depth, 0);
    }

    #[test]
    fn join_counting() {
        assert_eq!(feats("SELECT * FROM a JOIN b ON a.x = b.y").join_count, 1);
        assert_eq!(
            feats("SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w").join_count,
            2
        );
        assert_eq!(feats("SELECT * FROM a, b, c").join_count, 2);
    }

    #[test]
    fn logical_connectors() {
        let f = feats("SELECT 1 FROM t WHERE a = 1 AND b = 2 OR c = 3");
        assert_eq!(f.logical_connector_count, 2);
        assert_eq!(f.and_count, 1);
        assert_eq!(f.or_count, 1);
    }

    #[test]
    fn connectors_in_on_and_having_count() {
        let f = feats(
            "SELECT a FROM t JOIN u ON t.x = u.y AND t.z = u.w GROUP BY a HAVING COUNT(*) > 1 AND SUM(b) < 5",
        );
        assert_eq!(f.logical_connector_count, 2);
    }

    #[test]
    fn subquery_counting() {
        assert_eq!(feats("SELECT 1 FROM t WHERE a IN (SELECT b FROM u)").subquery_count, 1);
        assert_eq!(
            feats("SELECT 1 FROM t WHERE a > (SELECT AVG(a) FROM u WHERE u.x IN (SELECT y FROM v))")
                .subquery_count,
            2
        );
        // set-op arms count as nested, as in Spider's evaluator
        assert_eq!(feats("SELECT a FROM t UNION SELECT a FROM u").subquery_count, 1);
        // FROM subqueries count too
        assert_eq!(feats("SELECT x FROM (SELECT a AS x FROM t) AS s").subquery_count, 1);
    }

    #[test]
    fn nesting_depth() {
        assert_eq!(feats("SELECT 1 FROM t").nesting_depth, 0);
        assert_eq!(feats("SELECT 1 FROM t WHERE a IN (SELECT b FROM u)").nesting_depth, 1);
        assert_eq!(
            feats("SELECT 1 FROM t WHERE a IN (SELECT b FROM u WHERE b IN (SELECT c FROM v))")
                .nesting_depth,
            2
        );
    }

    #[test]
    fn order_by_and_limit() {
        let f = feats("SELECT a FROM t ORDER BY a DESC, b LIMIT 3");
        assert_eq!(f.order_by_count, 2);
        assert!(f.has_limit);
        assert!(f.has_order_by());
    }

    #[test]
    fn aggregates_counted_everywhere() {
        let f = feats(
            "SELECT COUNT(*), MAX(a) FROM t WHERE b > (SELECT AVG(b) FROM t) GROUP BY c HAVING SUM(d) > 1",
        );
        assert_eq!(f.agg_count, 4);
    }

    #[test]
    fn where_cond_count_is_atomic() {
        let f = feats("SELECT 1 FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND d LIKE '%x%'");
        assert_eq!(f.where_cond_count, 4);
    }

    #[test]
    fn like_and_distinct_and_case() {
        let f = feats("SELECT DISTINCT a FROM t WHERE b LIKE '%x%'");
        assert!(f.has_distinct);
        assert_eq!(f.like_count, 1);
        assert!(feats("SELECT CASE WHEN a THEN 1 ELSE 0 END FROM t").has_case);
        assert!(feats("SELECT IIF(a > 1, 1, 0) FROM t").has_case);
    }

    #[test]
    fn select_count_outer_only() {
        let f = feats("SELECT a, b, c FROM t WHERE x IN (SELECT y FROM u)");
        assert_eq!(f.select_count, 3);
    }

    #[test]
    fn set_op_count() {
        let f = feats("SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v");
        assert_eq!(f.set_op_count, 2);
    }
}
