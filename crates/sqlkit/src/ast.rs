//! Typed AST for the Spider/BIRD SELECT dialect.
//!
//! A [`Query`] is one or more [`SelectCore`]s combined with set operators,
//! plus trailing ORDER BY / LIMIT. Expressions are a single [`Expr`] enum
//! covering literals, column references, operators, function calls, CASE,
//! and the three subquery forms (scalar, `IN`, `EXISTS`).
//!
//! This module is also the one place that knows an expression's children
//! and a query's clause order: [`Expr::for_each_child`],
//! [`SelectCore::for_each_child`] and [`Query::for_each_child`] (and their
//! `_mut` twins) visit them, and passes over the tree — the walks below,
//! feature extraction, value masking, mutation, renaming — recurse through
//! them, keeping only what they do per variant. Visit order is observable:
//! mutation picks its site by an RNG index over the walk.

use serde::{Deserialize, Serialize};

/// A full query: a select core, optional chained set operations, and
/// query-level ORDER BY / LIMIT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The first (leftmost) SELECT.
    pub body: SelectCore,
    /// Chained set operations, applied left to right.
    pub set_ops: Vec<(SetOp, SelectCore)>,
    /// ORDER BY keys applying to the whole compound query.
    pub order_by: Vec<OrderKey>,
    /// LIMIT clause.
    pub limit: Option<Limit>,
}

impl Query {
    /// Wrap a bare select core into a query with no set ops / order / limit.
    pub fn simple(body: SelectCore) -> Self {
        Self { body, set_ops: Vec::new(), order_by: Vec::new(), limit: None }
    }

    /// Iterate over every select core in the compound query (left to right).
    pub fn cores(&self) -> impl Iterator<Item = &SelectCore> {
        std::iter::once(&self.body).chain(self.set_ops.iter().map(|(_, c)| c))
    }

    /// Mutable variant of [`Query::cores`].
    pub fn cores_mut(&mut self) -> impl Iterator<Item = &mut SelectCore> {
        std::iter::once(&mut self.body).chain(self.set_ops.iter_mut().map(|(_, c)| c))
    }
}

/// Set operators combining select cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetOp {
    /// `UNION` (distinct).
    Union,
    /// `UNION ALL`.
    UnionAll,
    /// `INTERSECT`.
    Intersect,
    /// `EXCEPT`.
    Except,
}

/// One `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectCore {
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// The FROM clause; `None` for table-less selects like `SELECT 1`.
    pub from: Option<FromClause>,
    /// The WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

impl SelectCore {
    /// A `SELECT <items>` core with everything else empty.
    pub fn new(items: Vec<SelectItem>) -> Self {
        Self {
            distinct: false,
            items,
            from: None,
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One entry of a projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

impl SelectItem {
    /// Shorthand for an un-aliased expression item.
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }
}

/// A FROM clause: one base table reference plus zero or more joins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FromClause {
    /// The leftmost relation.
    pub base: TableRef,
    /// Joins applied in order.
    pub joins: Vec<Join>,
}

impl FromClause {
    /// A FROM clause over a single table.
    pub fn table(name: impl Into<String>) -> Self {
        Self { base: TableRef::named(name), joins: Vec::new() }
    }

    /// Iterate over every table reference (base first, then join targets).
    pub fn tables(&self) -> impl Iterator<Item = &TableRef> {
        std::iter::once(&self.base).chain(self.joins.iter().map(|j| &j.table))
    }

    /// Mutable variant of [`FromClause::tables`].
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut TableRef> {
        std::iter::once(&mut self.base).chain(self.joins.iter_mut().map(|j| &mut j.table))
    }
}

/// A relation in FROM: either a named table or a parenthesized subquery,
/// optionally aliased.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// `name [AS alias]`
    Named { name: String, alias: Option<String> },
    /// `(SELECT ...) [AS alias]`
    Subquery { query: Box<Query>, alias: Option<String> },
}

impl TableRef {
    /// An unaliased named table.
    pub fn named(name: impl Into<String>) -> Self {
        TableRef::Named { name: name.into(), alias: None }
    }

    /// The effective binding name: alias if present, else the table name
    /// (subqueries without aliases have no binding name).
    pub fn binding(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => alias.as_deref(),
        }
    }
}

/// Join operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinKind {
    /// `[INNER] JOIN` or a comma join.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `RIGHT [OUTER] JOIN`.
    Right,
    /// `CROSS JOIN`.
    Cross,
}

/// A join step: kind, target relation, optional ON condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Join {
    /// The join operator.
    pub kind: JoinKind,
    /// The joined relation.
    pub table: TableRef,
    /// The ON predicate (`None` for cross/comma joins).
    pub on: Option<Expr>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// `false` = ASC (default), `true` = DESC.
    pub desc: bool,
}

/// `LIMIT n [OFFSET m]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Limit {
    /// Row count cap.
    pub count: u64,
    /// Rows to skip before emitting.
    pub offset: u64,
}

/// Literal values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// `NULL`
    Null,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `TRUE` / `FALSE`
    Bool(bool),
}

/// Binary operators, in one enum so precedence lives in the parser only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Logical AND / OR — the paper's "logical connectors".
    And,
    /// Logical OR.
    Or,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||` string concatenation.
    Concat,
}

impl BinOp {
    /// Whether this is a comparison operator producing a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Whether this is AND/OR — a "logical connector" in the paper's sense.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions recognized by the hardness classifier and engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Canonical upper-case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// SQL expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Literal(Literal),
    /// A column reference, optionally qualified: `[table.]column`.
    Column { table: Option<String>, column: String },
    /// `COUNT(*)` — wildcard aggregate.
    AggWildcard(AggFunc),
    /// An aggregate call `agg([DISTINCT] expr)`.
    Agg { func: AggFunc, distinct: bool, arg: Box<Expr> },
    /// A scalar function call (`ABS`, `LENGTH`, `IIF`, ...).
    Func { name: String, args: Vec<Expr> },
    /// A binary operation.
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    /// A unary operation.
    Unary { op: UnOp, expr: Box<Expr> },
    /// `expr [NOT] BETWEEN low AND high`
    Between { expr: Box<Expr>, negated: bool, low: Box<Expr>, high: Box<Expr> },
    /// `expr [NOT] IN (list...)`
    InList { expr: Box<Expr>, negated: bool, list: Vec<Expr> },
    /// `expr [NOT] IN (SELECT ...)`
    InSubquery { expr: Box<Expr>, negated: bool, query: Box<Query> },
    /// `[NOT] EXISTS (SELECT ...)`
    Exists { negated: bool, query: Box<Query> },
    /// A scalar subquery `(SELECT ...)`.
    Subquery(Box<Query>),
    /// `expr [NOT] LIKE pattern`
    Like { expr: Box<Expr>, negated: bool, pattern: Box<Expr> },
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)` — type kept as the raw spelled name.
    Cast { expr: Box<Expr>, ty: String },
}

impl Expr {
    /// Convenience: an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column { table: None, column: name.into() }
    }

    /// Convenience: a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column { table: Some(table.into()), column: name.into() }
    }

    /// Convenience: an integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience: a string literal.
    pub fn str(v: impl Into<String>) -> Self {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Convenience: build `left op right`.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Self {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// True if the expression (not entering subqueries) contains an
    /// aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(false, &mut |e| {
            if matches!(e, Expr::Agg { .. } | Expr::AggWildcard(_)) {
                found = true;
            }
        });
        found
    }
}

/// A direct child of an expression, a select core or a query: a
/// sub-expression, or the query of a subquery (`IN`, `EXISTS`, scalar, or
/// a FROM relation).
#[derive(Debug)]
pub enum Child<'a> {
    /// A sub-expression.
    Expr(&'a Expr),
    /// A nested query.
    Query(&'a Query),
}

/// Mutable variant of [`Child`].
#[derive(Debug)]
pub enum ChildMut<'a> {
    /// A sub-expression.
    Expr(&'a mut Expr),
    /// A nested query.
    Query(&'a mut Query),
}

/// The child layout of every `Expr` variant, written once for both
/// mutabilities: `$e` is `&Expr` or `&mut Expr` and match ergonomics bind
/// every field as the same kind of reference. Order: operands left to
/// right, the `IN` operand before its subquery, CASE operand, each
/// WHEN/THEN pair, ELSE.
macro_rules! expr_children {
    ($e:expr, $f:ident, $Child:ident) => {
        match $e {
            Expr::Literal(_) | Expr::Column { .. } | Expr::AggWildcard(_) => {}
            Expr::Agg { arg: x, .. }
            | Expr::Unary { expr: x, .. }
            | Expr::IsNull { expr: x, .. }
            | Expr::Cast { expr: x, .. } => $f($Child::Expr(x)),
            Expr::Func { args, .. } => {
                for x in args {
                    $f($Child::Expr(x));
                }
            }
            Expr::Binary { left, right, .. } => {
                $f($Child::Expr(left));
                $f($Child::Expr(right));
            }
            Expr::Between { expr, low, high, .. } => {
                $f($Child::Expr(expr));
                $f($Child::Expr(low));
                $f($Child::Expr(high));
            }
            Expr::InList { expr, list, .. } => {
                $f($Child::Expr(expr));
                for x in list {
                    $f($Child::Expr(x));
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                $f($Child::Expr(expr));
                $f($Child::Query(query));
            }
            Expr::Exists { query, .. } | Expr::Subquery(query) => $f($Child::Query(query)),
            Expr::Like { expr, pattern, .. } => {
                $f($Child::Expr(expr));
                $f($Child::Expr(pattern));
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(x) = operand {
                    $f($Child::Expr(x));
                }
                for (w, t) in branches {
                    $f($Child::Expr(w));
                    $f($Child::Expr(t));
                }
                if let Some(x) = else_expr {
                    $f($Child::Expr(x));
                }
            }
        }
    };
}

/// A select core's clause order, written once for both mutabilities:
/// items, FROM subqueries (base, then each joined relation), ON
/// conditions, WHERE, GROUP BY, HAVING.
macro_rules! core_children {
    ($core:expr, $f:ident, $Child:ident, $iter:ident) => {{
        let SelectCore { items, from, where_clause, group_by, having, .. } = $core;
        for item in items {
            if let SelectItem::Expr { expr, .. } = item {
                $f($Child::Expr(expr));
            }
        }
        if let Some(FromClause { base, joins }) = from {
            if let TableRef::Subquery { query, .. } = base {
                $f($Child::Query(query));
            }
            for join in joins.$iter() {
                if let Join { table: TableRef::Subquery { query, .. }, .. } = join {
                    $f($Child::Query(query));
                }
            }
            for join in joins.$iter() {
                if let Join { on: Some(on), .. } = join {
                    $f($Child::Expr(on));
                }
            }
        }
        if let Some(e) = where_clause {
            $f($Child::Expr(e));
        }
        for e in group_by {
            $f($Child::Expr(e));
        }
        if let Some(e) = having {
            $f($Child::Expr(e));
        }
    }};
}

impl Expr {
    /// Call `f` on each direct child, in the order every walk visits them.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Child<'a>)) {
        expr_children!(self, f, Child)
    }

    /// Mutable variant of [`Expr::for_each_child`].
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(ChildMut<'_>)) {
        expr_children!(self, f, ChildMut)
    }

    /// Visit this expression and all sub-expressions (pre-order), including
    /// expressions nested inside subqueries when `enter_subqueries` is true.
    pub fn walk<'a>(&'a self, enter_subqueries: bool, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|c| match c {
            Child::Expr(e) => e.walk(enter_subqueries, f),
            Child::Query(q) if enter_subqueries => walk_query_exprs(q, f),
            Child::Query(_) => {}
        });
    }

    /// Mutable variant of `walk(false, f)`: a subquery is its own scope, so
    /// this never enters one. `f` sees a node before its children, so a node
    /// it replaces is walked in its new form.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        self.for_each_child_mut(|c| {
            if let ChildMut::Expr(e) = c {
                e.walk_mut(f);
            }
        });
    }
}

impl SelectCore {
    /// Call `f` on each clause expression and FROM subquery, in clause
    /// order (items, FROM subqueries, ON, WHERE, GROUP BY, HAVING).
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Child<'a>)) {
        core_children!(self, f, Child, iter)
    }

    /// Mutable variant of [`SelectCore::for_each_child`].
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(ChildMut<'_>)) {
        core_children!(self, f, ChildMut, iter_mut)
    }
}

impl Query {
    /// Call `f` on each core's children (the body, then each set-operation
    /// arm), then on each ORDER BY key.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Child<'a>)) {
        self.cores().for_each(|core| core.for_each_child(&mut f));
        self.order_by.iter().for_each(|k| f(Child::Expr(&k.expr)));
    }

    /// Mutable variant of [`Query::for_each_child`].
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(ChildMut<'_>)) {
        let Query { body, set_ops, order_by, .. } = self;
        body.for_each_child_mut(&mut f);
        set_ops.iter_mut().for_each(|(_, core)| core.for_each_child_mut(&mut f));
        order_by.iter_mut().for_each(|k| f(ChildMut::Expr(&mut k.expr)));
    }
}

/// Visit every expression appearing anywhere in `query` (pre-order),
/// entering nested subqueries.
pub fn walk_query_exprs<'a>(query: &'a Query, f: &mut impl FnMut(&'a Expr)) {
    query.for_each_child(|c| match c {
        Child::Expr(e) => e.walk(true, f),
        Child::Query(q) => walk_query_exprs(q, f),
    });
}

/// Visit every (sub)query contained in `query`, including `query` itself,
/// each before the subqueries it contains.
pub fn walk_subqueries<'a>(query: &'a Query, f: &mut impl FnMut(&'a Query)) {
    f(query);
    query.for_each_child(|c| child_subqueries(c, f));
}

fn child_subqueries<'a>(child: Child<'a>, f: &mut impl FnMut(&'a Query)) {
    match child {
        Child::Expr(e) => e.for_each_child(|c| child_subqueries(c, f)),
        Child::Query(q) => walk_subqueries(q, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        // SELECT name FROM t WHERE age > (SELECT AVG(age) FROM t)
        let sub = Query::simple(SelectCore {
            distinct: false,
            items: vec![SelectItem::expr(Expr::Agg {
                func: AggFunc::Avg,
                distinct: false,
                arg: Box::new(Expr::col("age")),
            })],
            from: Some(FromClause::table("t")),
            where_clause: None,
            group_by: vec![],
            having: None,
        });
        Query::simple(SelectCore {
            distinct: false,
            items: vec![SelectItem::expr(Expr::col("name"))],
            from: Some(FromClause::table("t")),
            where_clause: Some(Expr::binary(
                BinOp::Gt,
                Expr::col("age"),
                Expr::Subquery(Box::new(sub)),
            )),
            group_by: vec![],
            having: None,
        })
    }

    #[test]
    fn walk_counts_subqueries() {
        let q = sample_query();
        let mut n = 0;
        walk_subqueries(&q, &mut |_| n += 1);
        assert_eq!(n, 2, "outer + nested");
    }

    #[test]
    fn walk_exprs_enters_subqueries() {
        let q = sample_query();
        let mut aggs = 0;
        walk_query_exprs(&q, &mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                aggs += 1;
            }
        });
        assert_eq!(aggs, 1);
    }

    #[test]
    fn contains_aggregate_does_not_enter_subqueries() {
        let q = sample_query();
        let w = q.body.where_clause.as_ref().unwrap();
        assert!(!w.contains_aggregate(), "AVG is inside a subquery");
    }

    #[test]
    fn binding_prefers_alias() {
        let t = TableRef::Named { name: "singer".into(), alias: Some("T1".into()) };
        assert_eq!(t.binding(), Some("T1"));
        assert_eq!(TableRef::named("concert").binding(), Some("concert"));
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Eq.is_logical());
        assert!(BinOp::LtEq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn aggfunc_from_name_case_insensitive() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("Sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn clone_preserves_structure() {
        let q = sample_query();
        let q2 = q.clone();
        assert_eq!(q, q2);
    }
}
