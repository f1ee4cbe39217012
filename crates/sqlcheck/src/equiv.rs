//! Semantic SQL equivalence: canonical forms, named rewrite rules, and
//! counterexample search.
//!
//! The canonicalizer rewrites a `sqlkit` AST into a normal form that is
//! *observationally equivalent* to the original — same rows (sequence when
//! ordered, multiset otherwise), same errors, same `ordered` flag — under
//! the minidb execution semantics. Every rewrite is a named
//! [`RewriteRule`], individually testable and individually gated:
//!
//! - **Value-exact** rules (De Morgan, negation pushing, `BETWEEN` ↔ range,
//!   `IN` ↔ `OR`, constant folding) follow minidb's three-valued evaluator
//!   exactly, including short-circuit order, and fire unconditionally.
//!   Constant folding does not mirror it: the folded value *is* minidb's
//!   row-free evaluation of the node (`minidb::eval::eval_rowless`).
//! - **Reordering** rules (conjunct sorting, commutative operands,
//!   comparison orientation) may change *which* sub-expression is evaluated
//!   first, so they fire only when the affected expressions are *total*:
//!   provably deterministic and error-free. Totality needs a schema
//!   [`Catalog`] to prove columns resolve (minidb refuses the *first*
//!   unresolved name in clause order, so reordering two expressions of
//!   which one names a missing column could change the error reported).
//! - **Structural** rules (`DISTINCT`/`GROUP BY`/`ORDER BY` elimination,
//!   join commutation) preserve rows/errors/ordered but not the work
//!   counter or emission order, so they are in [`RuleSet::full`] but not
//!   [`RuleSet::cache_safe`]. The cache-safe subset additionally preserves
//!   result column names (see [`cache_key_canonical_sql`]), which is what
//!   lets the serve execution cache key on canonical text and return a
//!   byte-identical outcome for every colliding query.
//!
//! Verdicts form a lattice: [`Equivalence::Equivalent`] (syntactic after
//! `normalize`, or normalized under the rule catalog),
//! [`Equivalence::Distinct`] — *only* ever reported with an executable
//! [`Witness`] database on which the two queries' results diverge — and
//! [`Equivalence::Unknown`] when the bounded counterexample search finds
//! nothing. A failed search never produces a false `Distinct`.

use std::collections::BTreeSet;

use sqlkit::ast::{
    BinOp, Expr, Literal, OrderKey, Query, SelectCore, SelectItem, TableRef, UnOp,
};
use sqlkit::normalize::normalize;
use sqlkit::printer::expr_to_sql;
use sqlkit::to_sql;

use minidb::eval::{check_function_arity, eval_rowless, known_function};
use minidb::Value;

use crate::catalog::Catalog;
use crate::scope::{self, Binding, Resolution, Scope};

/// The named rewrite rules of the canonicalizer, in catalog order. Ids are
/// stable public surface (CLI tables, per-rule EM-upgrade counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RewriteRule {
    /// Fold literal-only operators mirroring minidb semantics exactly
    /// (`1 + 2` → `3`, `NOT 0` → `1`, `'a' IS NULL` → `0`, AND/OR
    /// short-circuit on a literal left operand).
    ConstFold,
    /// Orient comparisons: a lone literal moves to the right (`5 < x` →
    /// `x > 5`); literal-free total comparisons normalize `>`/`>=` to
    /// `<`/`<=` by swapping.
    OrientComparison,
    /// `NOT NOT p` → `p` in truth context (WHERE/HAVING/ON, AND/OR/NOT
    /// operands), where only `truth()` of the value is observable.
    DoubleNegation,
    /// `NOT (a AND b)` → `NOT a OR NOT b` and dually. Value- and
    /// error-exact, including short-circuits.
    DeMorgan,
    /// Push `NOT` through comparisons (`NOT (x < y)` → `x >= y`) and into
    /// the `negated` flag of BETWEEN / IN / LIKE / IS NULL / EXISTS.
    PushNegation,
    /// Sort the two operands of symmetric operators (`=`, `!=`, `+`, `*`)
    /// by canonical text when swapping is provably unobservable.
    CommutativeOperands,
    /// Flatten AND/OR chains, then sort and deduplicate the leaves when
    /// all of them are total.
    SortConjuncts,
    /// `x BETWEEN lo AND hi` → `x >= lo AND x <= hi` when all three are
    /// total (the range form short-circuits past `hi`; BETWEEN does not).
    BetweenToRange,
    /// `x IN (a, b)` → `x = a OR x = b` when `x` is total (`x` is
    /// re-evaluated per disjunct). Single-element lists become `x = a`.
    InListToDisjuncts,
    /// Qualify a bare column that exactly one binding of the scope level
    /// it resolves at carries (`a` → `t.a`), mirroring minidb first-match
    /// resolution.
    QualifyColumns,
    /// Drop `DISTINCT` where provably a no-op: a single-row aggregate
    /// core, or a grouped core whose projection contains every group key.
    DistinctNoop,
    /// `SELECT a, b ... GROUP BY a, b` (no HAVING, no aggregates) →
    /// `SELECT DISTINCT a, b ...` — first-seen group order equals
    /// first-occurrence DISTINCT order.
    GroupByToDistinct,
    /// Drop ORDER BY keys that are duplicates of earlier keys or literal
    /// constants, and whole ORDER BY clauses in contexts where row order
    /// is unobservable (IN/EXISTS subqueries without LIMIT).
    OrderByNoop,
    /// Canonically order the two relations of a single inner/cross join
    /// when emission order, column layout, and name resolution are all
    /// provably unaffected.
    JoinCommute,
}

impl RewriteRule {
    /// Every rule, in catalog order.
    pub const ALL: [RewriteRule; 14] = [
        RewriteRule::ConstFold,
        RewriteRule::OrientComparison,
        RewriteRule::DoubleNegation,
        RewriteRule::DeMorgan,
        RewriteRule::PushNegation,
        RewriteRule::CommutativeOperands,
        RewriteRule::SortConjuncts,
        RewriteRule::BetweenToRange,
        RewriteRule::InListToDisjuncts,
        RewriteRule::QualifyColumns,
        RewriteRule::DistinctNoop,
        RewriteRule::GroupByToDistinct,
        RewriteRule::OrderByNoop,
        RewriteRule::JoinCommute,
    ];

    /// Stable kebab-case id.
    pub fn id(self) -> &'static str {
        match self {
            RewriteRule::ConstFold => "const-fold",
            RewriteRule::OrientComparison => "orient-comparison",
            RewriteRule::DoubleNegation => "double-negation",
            RewriteRule::DeMorgan => "de-morgan",
            RewriteRule::PushNegation => "push-negation",
            RewriteRule::CommutativeOperands => "commutative-operands",
            RewriteRule::SortConjuncts => "sort-conjuncts",
            RewriteRule::BetweenToRange => "between-to-range",
            RewriteRule::InListToDisjuncts => "in-list-to-disjuncts",
            RewriteRule::QualifyColumns => "qualify-columns",
            RewriteRule::DistinctNoop => "distinct-noop",
            RewriteRule::GroupByToDistinct => "group-by-to-distinct",
            RewriteRule::OrderByNoop => "order-by-noop",
            RewriteRule::JoinCommute => "join-commute",
        }
    }

    /// The rule with a given id.
    pub fn from_id(id: &str) -> Option<RewriteRule> {
        RewriteRule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// A set of enabled rewrite rules (bitset over [`RewriteRule::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet(u16);

impl RuleSet {
    /// No rules.
    pub fn none() -> Self {
        RuleSet(0)
    }

    /// Every rule — the set used for equivalence verdicts.
    pub fn full() -> Self {
        RuleSet::only(&RewriteRule::ALL)
    }

    /// The expression-level subset safe for execution-cache keys: rows,
    /// errors, `ordered`, work counters, emission order, *and result
    /// column names* are all preserved (the rewriter additionally skips
    /// unaliased non-column projection items; see
    /// [`cache_key_canonical_sql`]).
    pub fn cache_safe() -> Self {
        RuleSet::only(&[
            RewriteRule::ConstFold,
            RewriteRule::OrientComparison,
            RewriteRule::DoubleNegation,
            RewriteRule::DeMorgan,
            RewriteRule::PushNegation,
            RewriteRule::CommutativeOperands,
            RewriteRule::SortConjuncts,
            RewriteRule::BetweenToRange,
            RewriteRule::InListToDisjuncts,
            RewriteRule::QualifyColumns,
        ])
    }

    /// Exactly the given rules.
    pub fn only(rules: &[RewriteRule]) -> Self {
        let mut s = RuleSet(0);
        for r in rules {
            s.0 |= 1 << (*r as u16);
        }
        s
    }

    /// This set plus one rule.
    pub fn with(self, rule: RewriteRule) -> Self {
        RuleSet(self.0 | (1 << (rule as u16)))
    }

    /// Membership test.
    pub fn contains(self, rule: RewriteRule) -> bool {
        self.0 & (1 << (rule as u16)) != 0
    }

    /// Enabled rules in catalog order.
    pub fn rules(self) -> Vec<RewriteRule> {
        RewriteRule::ALL.iter().copied().filter(|r| self.contains(*r)).collect()
    }
}

/// Result of canonicalization: the rewritten query and which rules fired.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical query.
    pub query: Query,
    /// Every rule that changed the query at least once.
    pub fired: BTreeSet<RewriteRule>,
}

/// How an `Equivalent` verdict was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match {
    /// Equal after `sqlkit::normalize` alone (case/alias differences).
    Syntactic,
    /// Equal after canonicalization; `rules` is the union of rules fired
    /// on either side.
    Normalized {
        /// Rules that fired on either query.
        rules: BTreeSet<RewriteRule>,
    },
}

/// An executable counterexample: a generator seed on which the two
/// queries' results diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Seed passed to the database factory.
    pub seed: u64,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// The verdict lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The queries are semantically equivalent.
    Equivalent(Match),
    /// The queries provably differ: `Witness` names an executed database
    /// on which their results diverged.
    Distinct(Witness),
    /// Neither proved equivalent nor refuted within budget.
    Unknown,
}

impl Equivalence {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Equivalence::Equivalent(Match::Syntactic) => "equivalent(syntactic)",
            Equivalence::Equivalent(Match::Normalized { .. }) => "equivalent(normalized)",
            Equivalence::Distinct(_) => "distinct",
            Equivalence::Unknown => "unknown",
        }
    }
}

/// Budget for the counterexample search.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// How many witness databases to synthesize and execute.
    pub seeds: u64,
    /// First seed handed to the factory; subsequent seeds increment.
    pub base_seed: u64,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { seeds: 8, base_seed: 0xE907 }
    }
}

/// Canonicalize under the given rules. `catalog` enables the
/// totality-gated rules (reordering, structural); without it only the
/// value-exact rules fire on column-free expressions.
pub fn canonicalize(query: &Query, rules: RuleSet, catalog: Option<&Catalog>) -> Canonical {
    canonicalize_inner(query, rules, catalog, false)
}

/// Canonical SQL text under the full rule set.
pub fn canonical_sql(query: &Query, catalog: Option<&Catalog>) -> String {
    to_sql(&canonicalize(query, RuleSet::full(), catalog).query)
}

/// Do two queries share a canonical form under the full rule set?
pub fn canonically_equal(a: &Query, b: &Query, catalog: Option<&Catalog>) -> bool {
    canonical_sql(a, catalog) == canonical_sql(b, catalog)
}

/// Canonical text for execution-cache keys: the [`RuleSet::cache_safe`]
/// rules with result-column-name preservation (unaliased projection items
/// that are not bare columns are left untouched, since their rendered
/// text is the result column name).
pub fn cache_key_canonical_sql(query: &Query, catalog: Option<&Catalog>) -> String {
    to_sql(&canonicalize_inner(query, RuleSet::cache_safe(), catalog, true).query)
}

fn canonicalize_inner(
    query: &Query,
    rules: RuleSet,
    catalog: Option<&Catalog>,
    preserve_names: bool,
) -> Canonical {
    const MAX_PASSES: usize = 16;
    let mut q = normalize(query);
    let mut rw = Rewriter { rules, catalog, preserve_names, fired: BTreeSet::new() };
    let mut prev = to_sql(&q);
    for _ in 0..MAX_PASSES {
        rw.pass_query(&mut q, None, QueryCtx { top: true, order_unobservable: false });
        let cur = to_sql(&q);
        if cur == prev {
            break;
        }
        prev = cur;
    }
    Canonical { query: q, fired: rw.fired }
}

/// Full equivalence check: syntactic, then canonical, then bounded
/// counterexample search over databases produced by `make_db` (seed →
/// populated database; `None` skips that seed). `Distinct` is returned
/// only when a synthesized database was actually executed and diverged.
pub fn equivalence(
    gold: &Query,
    pred: &Query,
    catalog: Option<&Catalog>,
    budget: &SearchBudget,
    make_db: &dyn Fn(u64) -> Option<minidb::Database>,
) -> Equivalence {
    if to_sql(&normalize(gold)) == to_sql(&normalize(pred)) {
        return Equivalence::Equivalent(Match::Syntactic);
    }
    let gc = canonicalize(gold, RuleSet::full(), catalog);
    let pc = canonicalize(pred, RuleSet::full(), catalog);
    if to_sql(&gc.query) == to_sql(&pc.query) {
        let mut rules = gc.fired;
        rules.extend(pc.fired);
        return Equivalence::Equivalent(Match::Normalized { rules });
    }
    for i in 0..budget.seeds {
        let seed = budget.base_seed.wrapping_add(i);
        let Some(db) = make_db(seed) else { continue };
        match (db.run_query(gold), db.run_query(pred)) {
            (Ok(g), Ok(p)) => {
                if !minidb::results_equivalent(&g, &p) {
                    return Equivalence::Distinct(Witness {
                        seed,
                        detail: format!(
                            "results diverge on witness seed {seed}: gold {} row(s), pred {} row(s)",
                            g.rows.len(),
                            p.rows.len()
                        ),
                    });
                }
            }
            (Ok(_), Err(e)) => {
                return Equivalence::Distinct(Witness {
                    seed,
                    detail: format!("pred fails where gold succeeds on seed {seed}: {e}"),
                });
            }
            (Err(e), Ok(_)) => {
                return Equivalence::Distinct(Witness {
                    seed,
                    detail: format!("gold fails where pred succeeds on seed {seed}: {e}"),
                });
            }
            // both failing is not a divergence we can ground in results
            (Err(_), Err(_)) => {}
        }
    }
    Equivalence::Unknown
}

// ---------------------------------------------------------------------------
// totality
// ---------------------------------------------------------------------------

/// Does a column resolve through the scope with nothing unknown passed on
/// the way? An unqualified one must also resolve in a single binding of
/// its level unless `allow_ambiguous`: a rewrite that needs first-match and
/// any-match to agree asks for that.
fn resolves(scope: &Scope<'_>, table: Option<&str>, column: &str, allow_ambiguous: bool) -> bool {
    matches!(
        scope.resolve(table, column),
        Resolution::Found { dups, unknown_first: false, .. }
            if allow_ambiguous || table.is_some() || dups == 1
    )
}

/// Is `e` *total*: deterministic and incapable of raising an execution
/// error? Subqueries and aggregates are never total (they execute plans
/// and charge work); functions must be known with valid arity; columns
/// must resolve through the scope against the catalog.
fn total_expr(e: &Expr, scope: &Scope<'_>, allow_ambiguous: bool) -> bool {
    let mut ok = true;
    e.walk(false, &mut |node| match node {
        Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => ok = false,
        Expr::Agg { .. } | Expr::AggWildcard(_) => ok = false,
        Expr::Func { name, args } => {
            let n = name.to_ascii_uppercase();
            if !known_function(&n) || check_function_arity(&n, args.len()).is_err() {
                ok = false;
            }
        }
        Expr::Column { table, column } => {
            ok &= resolves(scope, table.as_deref(), column, allow_ambiguous);
        }
        _ => {}
    });
    ok
}

// ---------------------------------------------------------------------------
// constant folding
// ---------------------------------------------------------------------------

/// Try to fold one node to a literal; `None` when not foldable. What folds
/// is an operator over literal operands — binary, unary, `IS [NOT] NULL` —
/// plus `AND` / `OR` on a literal left operand that decides the result
/// alone; the value is minidb's own row-free evaluation of the node
/// ([`eval_rowless`]), so there are no semantics here to drift.
fn try_const_fold(e: &Expr) -> Option<Expr> {
    match e {
        // Bool literals fold to their Int evaluation so downstream key
        // comparisons see one spelling.
        Expr::Literal(Literal::Bool(_)) => {}
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right }
            if is_literal(left) && !is_literal(right) =>
        {
            // minidb short-circuits past the right operand of FALSE AND _
            // and TRUE OR _ without evaluating it
            let decides = *op == BinOp::Or;
            return (eval_rowless(left)?.truth() == Some(decides))
                .then(|| Expr::Literal(Literal::Int(i64::from(decides))));
        }
        Expr::Binary { left, right, .. } if is_literal(left) && is_literal(right) => {}
        // i64::MIN negation would overflow; leave it alone
        Expr::Unary { op: UnOp::Neg, expr }
            if matches!(**expr, Expr::Literal(Literal::Int(i64::MIN))) =>
        {
            return None
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } if is_literal(expr) => {}
        _ => return None,
    }
    Some(Expr::Literal(match eval_rowless(e)? {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Real(r) => Literal::Float(r),
        Value::Text(s) => Literal::Str(s),
    }))
}

// ---------------------------------------------------------------------------
// the rewriter
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct QueryCtx {
    /// Is this the outermost query of the canonicalization?
    top: bool,
    /// True when the enclosing position ignores row order entirely
    /// (IN/EXISTS subqueries): whole ORDER BY clauses may be dropped.
    order_unobservable: bool,
}

struct Rewriter<'a> {
    rules: RuleSet,
    catalog: Option<&'a Catalog>,
    /// Preserve result column names: skip rewriting unaliased projection
    /// items whose rendered text is the column name.
    preserve_names: bool,
    fired: BTreeSet<RewriteRule>,
}

fn take_expr(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::Literal(Literal::Null))
}

fn expr_key(e: &Expr) -> String {
    expr_to_sql(e)
}

fn mirror_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::NotEq,
        BinOp::NotEq => BinOp::Eq,
        BinOp::Lt => BinOp::GtEq,
        BinOp::LtEq => BinOp::Gt,
        BinOp::Gt => BinOp::LtEq,
        BinOp::GtEq => BinOp::Lt,
        other => other,
    }
}

fn is_literal(e: &Expr) -> bool {
    matches!(e, Expr::Literal(_))
}

impl<'a> Rewriter<'a> {
    fn fire(&mut self, rule: RewriteRule) {
        self.fired.insert(rule);
    }

    fn on(&self, rule: RewriteRule) -> bool {
        self.rules.contains(rule)
    }

    fn pass_query(&mut self, q: &mut Query, outer: Option<&Scope<'_>>, ctx: QueryCtx) {
        let only_core = q.set_ops.is_empty();
        let order_has_agg = q.order_by.iter().any(|k| k.expr.contains_aggregate());
        let bindings = self.pass_core(&mut q.body, outer, only_core, order_has_agg);
        for (_, core) in &mut q.set_ops {
            self.pass_core(core, outer, false, false);
        }

        // ORDER BY expressions resolve against the (single) core's scope.
        let scope = Scope { bindings: &bindings, parent: outer };
        if only_core {
            for key in &mut q.order_by {
                // A bare column key may resolve to a projected alias first
                // (minidb's order_keys); leave those leaves untouched.
                if matches!(key.expr, Expr::Column { table: None, .. }) {
                    continue;
                }
                self.rw_expr(&mut key.expr, &scope, false);
            }
        }

        if self.on(RewriteRule::OrderByNoop) && !q.order_by.is_empty() {
            self.order_by_noop(q, &scope, ctx, only_core, order_has_agg);
        }
        if self.on(RewriteRule::JoinCommute) && ctx.top {
            self.join_commute(q, &scope);
        }
    }

    fn order_by_noop(
        &mut self,
        q: &mut Query,
        scope: &Scope<'_>,
        ctx: QueryCtx,
        only_core: bool,
        order_has_agg: bool,
    ) {
        // Whole-clause drop: row order is unobservable (IN/EXISTS
        // position), no LIMIT depends on it, the keys cannot error, and
        // dropping them cannot flip the core in/out of aggregate mode.
        if ctx.order_unobservable && q.limit.is_none() && !order_has_agg && only_core {
            let all_total = q.order_by.iter().all(|k| total_expr(&k.expr, scope, true));
            if all_total {
                q.order_by.clear();
                self.fire(RewriteRule::OrderByNoop);
                return;
            }
        }
        // Key-level cleanup: duplicate keys never break ties (the sort is
        // stable and an equal earlier key implies equal values); literal
        // keys compare every row equal. Keep at least one key so the
        // result's `ordered` flag is unchanged.
        let before: Vec<(String, bool)> =
            q.order_by.iter().map(|k| (expr_key(&k.expr), k.desc)).collect();
        let mut seen: Vec<String> = Vec::new();
        let mut kept: Vec<OrderKey> = Vec::new();
        for key in q.order_by.drain(..) {
            let k = expr_key(&key.expr);
            if seen.contains(&k) || is_literal(&key.expr) {
                continue;
            }
            seen.push(k);
            kept.push(key);
        }
        if kept.is_empty() {
            // All keys were constants: the sort is a stable no-op, but the
            // ordered flag must survive — keep a single canonical key.
            kept.push(OrderKey { expr: Expr::Literal(Literal::Int(1)), desc: false });
        }
        let after: Vec<(String, bool)> =
            kept.iter().map(|k| (expr_key(&k.expr), k.desc)).collect();
        if after != before {
            self.fire(RewriteRule::OrderByNoop);
        }
        q.order_by = kept;
    }

    /// `scope` is the body's.
    fn join_commute(&mut self, q: &mut Query, scope: &Scope<'_>) {
        use sqlkit::ast::JoinKind;
        if !q.set_ops.is_empty() || !q.order_by.is_empty() || q.limit.is_some() {
            return;
        }
        // no subqueries anywhere: emission-order effects stay local
        let mut subqueries = 0usize;
        sqlkit::ast::walk_subqueries(q, &mut |_| subqueries += 1);
        if subqueries != 1 {
            return;
        }
        let core = &q.body;
        let Some(from) = &core.from else { return };
        if from.joins.len() != 1 {
            return;
        }
        let join = &from.joins[0];
        if !matches!(join.kind, JoinKind::Inner | JoinKind::Cross) {
            return;
        }
        let (TableRef::Named { .. }, TableRef::Named { .. }) = (&from.base, &join.table) else {
            return;
        };
        let (Some(base_b), Some(join_b)) = (from.base.binding(), join.table.binding()) else {
            return;
        };
        let (base_b, join_b) = (base_b.to_ascii_lowercase(), join_b.to_ascii_lowercase());
        if base_b == join_b || base_b <= join_b {
            return;
        }
        // bare `*` expands columns in scope order; swapping would reorder it
        if core.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
            return;
        }
        // every expression must be total with unambiguous resolution:
        // first-match lookup must not change targets after the swap
        let mut exprs: Vec<&Expr> = Vec::new();
        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                exprs.push(expr);
            }
        }
        exprs.extend(core.where_clause.iter());
        exprs.extend(core.group_by.iter());
        exprs.extend(core.having.iter());
        exprs.extend(from.joins[0].on.iter());
        if !exprs.iter().all(|e| total_expr(e, scope, false)) {
            return;
        }
        let from = q.body.from.as_mut().expect("from checked above");
        let old_base = std::mem::replace(
            &mut from.base,
            TableRef::Named { name: String::new(), alias: None },
        );
        let join = &mut from.joins[0];
        from.base = std::mem::replace(&mut join.table, old_base);
        self.fire(RewriteRule::JoinCommute);
    }

    /// Rewrite one core; returns its bindings for the query's ORDER BY.
    fn pass_core(
        &mut self,
        core: &mut SelectCore,
        outer: Option<&Scope<'_>>,
        only_core: bool,
        order_has_agg: bool,
    ) -> Vec<Binding<'a>> {
        let bindings = scope::bindings(core.from.as_ref(), self.catalog);
        // Derived tables see the parent scope, not this core's own bindings
        // or siblings (mirrors the analyzer's scope model); an ON sees the
        // bindings joined so far.
        if let Some(from) = &mut core.from {
            self.pass_derived(&mut from.base, outer);
            for (i, join) in from.joins.iter_mut().enumerate() {
                self.pass_derived(&mut join.table, outer);
                if let Some(on) = &mut join.on {
                    self.rw_expr(on, &Scope { bindings: &bindings[..i + 2], parent: outer }, true);
                }
            }
        }

        let scope = Scope { bindings: &bindings, parent: outer };
        if let Some(w) = &mut core.where_clause {
            self.rw_expr(w, &scope, true);
        }
        for item in &mut core.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    // An unaliased non-column item's rendered text IS its
                    // result column name; in name-preserving mode leave it
                    // untouched. Bare columns are safe: their name is the
                    // column field, which no rule rewrites.
                    if self.preserve_names
                        && alias.is_none()
                        && !matches!(expr, Expr::Column { .. })
                    {
                        continue;
                    }
                    self.rw_expr(expr, &scope, false);
                }
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {}
            }
        }
        for g in &mut core.group_by {
            self.rw_expr(g, &scope, false);
        }
        if let Some(h) = &mut core.having {
            self.rw_expr(h, &scope, true);
        }

        if self.on(RewriteRule::DistinctNoop) && core.distinct && only_core {
            self.distinct_noop(core, order_has_agg);
        }
        if self.on(RewriteRule::GroupByToDistinct) && only_core {
            self.group_by_to_distinct(core, &scope, order_has_agg);
        }
        bindings
    }

    fn pass_derived(&mut self, t: &mut TableRef, outer: Option<&Scope<'_>>) {
        if let TableRef::Subquery { query, .. } = t {
            self.pass_query(query, outer, QueryCtx { top: false, order_unobservable: false });
        }
    }

    fn distinct_noop(&mut self, core: &mut SelectCore, order_has_agg: bool) {
        let items_have_agg = core.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
        // (a) aggregate core with no GROUP BY: a single output row.
        if core.group_by.is_empty()
            && (items_have_agg || core.having.is_some() || order_has_agg)
        {
            core.distinct = false;
            self.fire(RewriteRule::DistinctNoop);
            return;
        }
        // (b) grouped core whose projection contains every group key: one
        // row per group, rows already distinct on the key sub-tuple.
        if !core.group_by.is_empty() {
            let item_keys: Option<Vec<String>> = core
                .items
                .iter()
                .map(|i| match i {
                    SelectItem::Expr { expr, .. } => Some(expr_key(expr)),
                    _ => None,
                })
                .collect();
            let Some(item_keys) = item_keys else { return };
            let covered = core
                .group_by
                .iter()
                .all(|g| item_keys.iter().any(|k| *k == expr_key(g)));
            if covered {
                core.distinct = false;
                self.fire(RewriteRule::DistinctNoop);
            }
        }
    }

    fn group_by_to_distinct(
        &mut self,
        core: &mut SelectCore,
        scope: &Scope<'_>,
        order_has_agg: bool,
    ) {
        if core.group_by.is_empty()
            || core.having.is_some()
            || core.distinct
            || order_has_agg
        {
            return;
        }
        let item_exprs: Option<Vec<&Expr>> = core
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .collect();
        let Some(item_exprs) = item_exprs else { return };
        if item_exprs.iter().any(|e| e.contains_aggregate())
            || core.group_by.iter().any(|g| g.contains_aggregate())
        {
            return;
        }
        let item_keys: Vec<String> = item_exprs.iter().map(|e| expr_key(e)).collect();
        let group_keys: Vec<String> = core.group_by.iter().map(expr_key).collect();
        // Same sequence → per-row evaluation order (hence error identity)
        // is unchanged. Otherwise require set equality plus totality so no
        // evaluation can error at all.
        let same_seq = item_keys == group_keys;
        let set_equal = item_keys.iter().all(|k| group_keys.contains(k))
            && group_keys.iter().all(|k| item_keys.contains(k));
        if !set_equal {
            return;
        }
        if !same_seq {
            let all_total = item_exprs.iter().all(|e| total_expr(e, scope, true));
            if !all_total {
                return;
            }
        }
        core.group_by.clear();
        core.distinct = true;
        self.fire(RewriteRule::GroupByToDistinct);
    }

    fn rw_expr(&mut self, e: &mut Expr, scope: &Scope<'_>, truth: bool) {
        // recurse first (bottom-up); truth context propagates to positions
        // where only Value::truth() of the child is observable
        match e {
            Expr::Binary { op, left, right } => {
                let child_truth = op.is_logical();
                self.rw_expr(left, scope, child_truth);
                self.rw_expr(right, scope, child_truth);
            }
            Expr::Unary { op, expr } => {
                self.rw_expr(expr, scope, *op == UnOp::Not);
            }
            Expr::Between { expr, low, high, .. } => {
                self.rw_expr(expr, scope, false);
                self.rw_expr(low, scope, false);
                self.rw_expr(high, scope, false);
            }
            Expr::InList { expr, list, .. } => {
                self.rw_expr(expr, scope, false);
                for item in list {
                    self.rw_expr(item, scope, false);
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                self.rw_expr(expr, scope, false);
                let ctx = QueryCtx { top: false, order_unobservable: true };
                self.pass_query(query, Some(scope), ctx);
            }
            Expr::Exists { query, .. } => {
                let ctx = QueryCtx { top: false, order_unobservable: true };
                self.pass_query(query, Some(scope), ctx);
            }
            Expr::Subquery(query) => {
                // scalar subqueries take the FIRST row: order observable
                let ctx = QueryCtx { top: false, order_unobservable: false };
                self.pass_query(query, Some(scope), ctx);
            }
            Expr::Like { expr, pattern, .. } => {
                self.rw_expr(expr, scope, false);
                self.rw_expr(pattern, scope, false);
            }
            Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.rw_expr(expr, scope, false);
            }
            Expr::Agg { arg, .. } => self.rw_expr(arg, scope, false),
            Expr::Func { args, .. } => {
                for a in args {
                    self.rw_expr(a, scope, false);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                let operandless = operand.is_none();
                if let Some(op) = operand {
                    self.rw_expr(op, scope, false);
                }
                for (w, t) in branches {
                    self.rw_expr(w, scope, operandless);
                    self.rw_expr(t, scope, false);
                }
                if let Some(el) = else_expr {
                    self.rw_expr(el, scope, false);
                }
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::AggWildcard(_) => {}
        }
        self.apply_node_rules(e, scope, truth);
    }

    fn apply_node_rules(&mut self, e: &mut Expr, scope: &Scope<'_>, truth: bool) {
        if self.on(RewriteRule::ConstFold) {
            if let Some(folded) = try_const_fold(e) {
                if *e != folded {
                    *e = folded;
                    self.fire(RewriteRule::ConstFold);
                }
            }
        }

        if self.on(RewriteRule::DoubleNegation) && truth {
            if let Expr::Unary { op: UnOp::Not, expr: outer } = e {
                if let Expr::Unary { op: UnOp::Not, expr: inner } = outer.as_mut() {
                    // truth(NOT NOT p) == truth(p); only valid where the
                    // value representation is unobservable
                    let p = take_expr(inner);
                    *e = p;
                    self.fire(RewriteRule::DoubleNegation);
                }
            }
        }

        if self.on(RewriteRule::DeMorgan) {
            if let Expr::Unary { op: UnOp::Not, expr: inner } = e {
                if let Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } =
                    inner.as_mut()
                {
                    let dual = if *op == BinOp::And { BinOp::Or } else { BinOp::And };
                    let l = take_expr(left);
                    let r = take_expr(right);
                    *e = Expr::binary(
                        dual,
                        Expr::Unary { op: UnOp::Not, expr: Box::new(l) },
                        Expr::Unary { op: UnOp::Not, expr: Box::new(r) },
                    );
                    self.fire(RewriteRule::DeMorgan);
                    // give the freshly created NOT leaves their node rules
                    // now rather than waiting for the next pass
                    if let Expr::Binary { left, right, .. } = e {
                        self.apply_node_rules(left, scope, true);
                        self.apply_node_rules(right, scope, true);
                    }
                }
            }
        }

        if self.on(RewriteRule::PushNegation) {
            if let Expr::Unary { op: UnOp::Not, expr: inner } = e {
                let pushed = match inner.as_mut() {
                    Expr::Binary { op, left, right } if op.is_comparison() => {
                        let l = take_expr(left);
                        let r = take_expr(right);
                        Some(Expr::binary(negate_cmp(*op), l, r))
                    }
                    Expr::Between { expr, negated, low, high } => Some(Expr::Between {
                        expr: Box::new(take_expr(expr)),
                        negated: !*negated,
                        low: Box::new(take_expr(low)),
                        high: Box::new(take_expr(high)),
                    }),
                    Expr::InList { expr, negated, list } => Some(Expr::InList {
                        expr: Box::new(take_expr(expr)),
                        negated: !*negated,
                        list: std::mem::take(list),
                    }),
                    Expr::InSubquery { expr, negated, query } => Some(Expr::InSubquery {
                        expr: Box::new(take_expr(expr)),
                        negated: !*negated,
                        query: std::mem::replace(query, Box::new(empty_query())),
                    }),
                    Expr::Exists { negated, query } => Some(Expr::Exists {
                        negated: !*negated,
                        query: std::mem::replace(query, Box::new(empty_query())),
                    }),
                    Expr::Like { expr, negated, pattern } => Some(Expr::Like {
                        expr: Box::new(take_expr(expr)),
                        negated: !*negated,
                        pattern: Box::new(take_expr(pattern)),
                    }),
                    Expr::IsNull { expr, negated } => Some(Expr::IsNull {
                        expr: Box::new(take_expr(expr)),
                        negated: !*negated,
                    }),
                    _ => None,
                };
                if let Some(p) = pushed {
                    *e = p;
                    self.fire(RewriteRule::PushNegation);
                }
            }
        }

        if self.on(RewriteRule::OrientComparison) {
            if let Expr::Binary { op, left, right } = e {
                if op.is_comparison() {
                    if is_literal(left) && !is_literal(right) {
                        // a literal cannot error, so swapping evaluation
                        // order is unobservable
                        let l = take_expr(left);
                        let r = take_expr(right);
                        *e = Expr::binary(mirror_cmp(*op), r, l);
                        self.fire(RewriteRule::OrientComparison);
                    } else if !is_literal(left)
                        && !is_literal(right)
                        && matches!(op, BinOp::Gt | BinOp::GtEq)
                        && total_expr(left, scope, true)
                        && total_expr(right, scope, true)
                    {
                        let l = take_expr(left);
                        let r = take_expr(right);
                        *e = Expr::binary(mirror_cmp(*op), r, l);
                        self.fire(RewriteRule::OrientComparison);
                    }
                }
            }
        }

        if self.on(RewriteRule::CommutativeOperands) {
            if let Expr::Binary { op, left, right } = e {
                let symmetric = matches!(op, BinOp::Eq | BinOp::NotEq | BinOp::Add | BinOp::Mul);
                // Eq/NotEq with exactly one literal belong to
                // OrientComparison (literal stays right).
                let orient_domain = matches!(op, BinOp::Eq | BinOp::NotEq)
                    && (is_literal(left) != is_literal(right));
                if symmetric && !orient_domain {
                    let swappable = (is_literal(left) || is_literal(right))
                        || (total_expr(left, scope, true)
                            && total_expr(right, scope, true));
                    if swappable && expr_key(left) > expr_key(right) {
                        let l = take_expr(left);
                        let r = take_expr(right);
                        *e = Expr::binary(*op, r, l);
                        self.fire(RewriteRule::CommutativeOperands);
                    }
                }
            }
        }

        if self.on(RewriteRule::BetweenToRange) {
            if let Expr::Between { expr, negated, low, high } = e {
                let all_total = total_expr(expr, scope, true)
                    && total_expr(low, scope, true)
                    && total_expr(high, scope, true);
                if all_total {
                    let x = take_expr(expr);
                    let lo = take_expr(low);
                    let hi = take_expr(high);
                    let range = Expr::binary(
                        BinOp::And,
                        Expr::binary(BinOp::GtEq, x.clone(), lo),
                        Expr::binary(BinOp::LtEq, x, hi),
                    );
                    *e = if *negated {
                        Expr::Unary { op: UnOp::Not, expr: Box::new(range) }
                    } else {
                        range
                    };
                    self.fire(RewriteRule::BetweenToRange);
                }
            }
        }

        if self.on(RewriteRule::InListToDisjuncts) {
            if let Expr::InList { expr, negated, list } = e {
                // x is re-evaluated per disjunct; items keep their original
                // order and short-circuit, so only x needs to be total
                if !list.is_empty() && total_expr(expr, scope, true) {
                    let x = take_expr(expr);
                    let items = std::mem::take(list);
                    let neg = *negated;
                    let mut chain: Option<Expr> = None;
                    for item in items {
                        let eq = Expr::binary(BinOp::Eq, x.clone(), item);
                        chain = Some(match chain {
                            None => eq,
                            Some(c) => Expr::binary(BinOp::Or, c, eq),
                        });
                    }
                    let chain = chain.unwrap_or(Expr::Literal(Literal::Int(0)));
                    *e = if neg {
                        Expr::Unary { op: UnOp::Not, expr: Box::new(chain) }
                    } else {
                        chain
                    };
                    self.fire(RewriteRule::InListToDisjuncts);
                }
            }
        }

        if self.on(RewriteRule::SortConjuncts) {
            if let Expr::Binary { op: op @ (BinOp::And | BinOp::Or), .. } = e {
                let op = *op;
                let mut leaves = Vec::new();
                flatten_chain(op, take_expr(e), &mut leaves);
                let all_total =
                    leaves.iter().all(|l| total_expr(l, scope, true));
                if all_total {
                    let before: Vec<String> = leaves.iter().map(expr_key).collect();
                    leaves.sort_by_key(expr_key);
                    leaves.dedup_by_key(|l| expr_key(l));
                    if leaves.len() == 1 && !truth {
                        // the single-leaf collapse only preserves truth();
                        // in value context keep a two-leaf chain (the AND
                        // value is bool3-typed either way)
                        let l = leaves[0].clone();
                        leaves.push(l);
                    }
                    let after: Vec<String> = leaves.iter().map(expr_key).collect();
                    if before != after {
                        self.fire(RewriteRule::SortConjuncts);
                    }
                }
                *e = rebuild_chain(op, leaves);
            }
        }

        if self.on(RewriteRule::QualifyColumns) {
            if let Expr::Column { table: table @ None, column } = e {
                let unique = match scope.resolve(None, column) {
                    Resolution::Found { key, dups: 1, unknown_first: false, .. } => {
                        scope.binding_at(key).and_then(|b| b.name.as_deref())
                    }
                    _ => None,
                };
                // the canonical text spells the binding lowercased
                if let Some(binding) = unique {
                    *table = Some(binding.to_ascii_lowercase());
                    self.fire(RewriteRule::QualifyColumns);
                }
            }
        }
    }
}

fn empty_query() -> Query {
    Query::simple(SelectCore::new(vec![SelectItem::expr(Expr::Literal(Literal::Int(1)))]))
}

fn flatten_chain(op: BinOp, e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: o, left, right } if o == op => {
            flatten_chain(op, *left, out);
            flatten_chain(op, *right, out);
        }
        other => out.push(other),
    }
}

fn rebuild_chain(op: BinOp, mut leaves: Vec<Expr>) -> Expr {
    if leaves.is_empty() {
        return Expr::Literal(Literal::Int(1));
    }
    let mut it = leaves.drain(..);
    let mut acc = match it.next() {
        Some(first) => first,
        None => return Expr::Literal(Literal::Int(1)),
    };
    for next in it {
        acc = Expr::binary(op, acc, next);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Ty;
    use sqlkit::parse_query;

    fn parse(sql: &str) -> Query {
        parse_query(sql).unwrap()
    }

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("t", [("id", Ty::Num), ("a", Ty::Num), ("b", Ty::Num), ("name", Ty::Text)]);
        c.add_table("u", [("id", Ty::Num), ("a", Ty::Num), ("score", Ty::Num)]);
        c
    }

    fn canon(sql: &str) -> String {
        canonical_sql(&parse(sql), Some(&cat()))
    }

    fn assert_equal_canon(a: &str, b: &str) {
        assert_eq!(canon(a), canon(b), "expected same canonical form:\n  {a}\n  {b}");
    }

    fn fired(sql: &str) -> BTreeSet<RewriteRule> {
        let c = cat();
        canonicalize(&parse(sql), RuleSet::full(), Some(&c)).fired
    }

    #[test]
    fn rule_ids_unique_and_stable() {
        let mut ids: Vec<&str> = RewriteRule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RewriteRule::ALL.len());
        for r in RewriteRule::ALL {
            assert_eq!(RewriteRule::from_id(r.id()), Some(r));
        }
    }

    #[test]
    fn rule_set_membership() {
        let full = RuleSet::full();
        for r in RewriteRule::ALL {
            assert!(full.contains(r));
        }
        let cache = RuleSet::cache_safe();
        assert!(cache.contains(RewriteRule::ConstFold));
        assert!(!cache.contains(RewriteRule::JoinCommute));
        assert!(!cache.contains(RewriteRule::DistinctNoop));
        assert_eq!(RuleSet::none().rules().len(), 0);
        assert_eq!(RuleSet::none().with(RewriteRule::DeMorgan).rules(), vec![RewriteRule::DeMorgan]);
    }

    #[test]
    fn const_fold_mirrors_minidb() {
        assert_equal_canon("SELECT a FROM t WHERE a > 1 + 2", "SELECT a FROM t WHERE a > 3");
        // division by zero folds to NULL, not an error
        assert_equal_canon("SELECT a FROM t WHERE a > 1 / 0", "SELECT a FROM t WHERE a > NULL");
        assert!(fired("SELECT a FROM t WHERE a > 1 + 2").contains(&RewriteRule::ConstFold));
        // NOT 0 -> 1, 'x' IS NULL -> 0
        assert_equal_canon("SELECT a FROM t WHERE NOT 0", "SELECT a FROM t WHERE 1");
        assert_equal_canon("SELECT a FROM t WHERE 'x' IS NULL", "SELECT a FROM t WHERE 0");
    }

    #[test]
    fn orient_comparison_moves_literal_right() {
        assert_equal_canon("SELECT a FROM t WHERE 5 < a", "SELECT a FROM t WHERE a > 5");
        assert_equal_canon("SELECT a FROM t WHERE 5 = a", "SELECT a FROM t WHERE a = 5");
        assert!(fired("SELECT a FROM t WHERE 5 < a").contains(&RewriteRule::OrientComparison));
    }

    #[test]
    fn orient_comparison_normalizes_column_pairs() {
        assert_equal_canon("SELECT a FROM t WHERE a > b", "SELECT a FROM t WHERE b < a");
    }

    #[test]
    fn de_morgan_and_push_negation() {
        assert_equal_canon(
            "SELECT a FROM t WHERE NOT (a = 1 AND b = 2)",
            "SELECT a FROM t WHERE a != 1 OR b != 2",
        );
        assert_equal_canon("SELECT a FROM t WHERE NOT (a < 5)", "SELECT a FROM t WHERE a >= 5");
        assert_equal_canon(
            "SELECT a FROM t WHERE NOT (a IN (1, 2))",
            "SELECT a FROM t WHERE a NOT IN (1, 2)",
        );
        assert_equal_canon(
            "SELECT a FROM t WHERE NOT (a IS NULL)",
            "SELECT a FROM t WHERE a IS NOT NULL",
        );
        let f = fired("SELECT a FROM t WHERE NOT (a = 1 AND b = 2)");
        assert!(f.contains(&RewriteRule::DeMorgan));
        assert!(f.contains(&RewriteRule::PushNegation));
    }

    #[test]
    fn double_negation_in_truth_context_only() {
        assert_equal_canon("SELECT a FROM t WHERE NOT NOT name LIKE 'x%'", "SELECT a FROM t WHERE name LIKE 'x%'");
        // in value context (projection), NOT NOT must stay
        let c = cat();
        let q = canonicalize(&parse("SELECT NOT NOT a AS v FROM t"), RuleSet::full(), Some(&c));
        assert!(to_sql(&q.query).contains("NOT"), "value-context NOT NOT kept: {}", to_sql(&q.query));
    }

    #[test]
    fn commutative_operands_sorted() {
        assert_equal_canon("SELECT a FROM t WHERE a = b", "SELECT a FROM t WHERE b = a");
        assert_equal_canon("SELECT a FROM t WHERE a + b > 3", "SELECT a FROM t WHERE b + a > 3");
    }

    #[test]
    fn sort_conjuncts_sets() {
        assert_equal_canon(
            "SELECT a FROM t WHERE a = 1 AND b = 2",
            "SELECT a FROM t WHERE b = 2 AND a = 1",
        );
        assert_equal_canon(
            "SELECT a FROM t WHERE a = 1 OR b = 2 OR a = 1",
            "SELECT a FROM t WHERE b = 2 OR a = 1",
        );
    }

    #[test]
    fn conjuncts_not_reordered_without_catalog() {
        // without a catalog columns cannot be proven total: an unknown
        // column can hide behind a short-circuit, so order must hold
        let a = parse("SELECT a FROM t WHERE a = 1 AND b = 2");
        let b = parse("SELECT a FROM t WHERE b = 2 AND a = 1");
        assert_ne!(canonical_sql(&a, None), canonical_sql(&b, None));
    }

    #[test]
    fn between_and_in_normalize() {
        assert_equal_canon(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 5",
            "SELECT a FROM t WHERE a >= 1 AND a <= 5",
        );
        assert_equal_canon(
            "SELECT a FROM t WHERE a IN (2, 1)",
            "SELECT a FROM t WHERE a = 1 OR a = 2",
        );
        assert_equal_canon("SELECT a FROM t WHERE a IN (7)", "SELECT a FROM t WHERE a = 7");
    }

    #[test]
    fn qualify_columns_unique_resolution() {
        assert_equal_canon("SELECT name FROM t WHERE name = 'x'", "SELECT t.name FROM t WHERE t.name = 'x'");
        // `a` is ambiguous between t and u: must not qualify
        let f = fired("SELECT t.a FROM t JOIN u ON t.id = u.id WHERE a = 1");
        assert!(!f.contains(&RewriteRule::QualifyColumns) || {
            let c = cat();
            let q = canonicalize(
                &parse("SELECT t.a FROM t JOIN u ON t.id = u.id WHERE a = 1"),
                RuleSet::full(),
                Some(&c),
            );
            to_sql(&q.query).contains("WHERE a = 1") || to_sql(&q.query).contains("WHERE a =")
        });
    }

    #[test]
    fn distinct_noop_on_aggregate_core() {
        assert_equal_canon("SELECT DISTINCT COUNT(a) FROM t", "SELECT COUNT(a) FROM t");
        assert_equal_canon(
            "SELECT DISTINCT a FROM t GROUP BY a",
            "SELECT a FROM t GROUP BY a",
        );
        assert!(fired("SELECT DISTINCT COUNT(a) FROM t").contains(&RewriteRule::DistinctNoop));
    }

    #[test]
    fn group_by_to_distinct() {
        assert_equal_canon("SELECT a FROM t GROUP BY a", "SELECT DISTINCT a FROM t");
        assert_equal_canon("SELECT a, b FROM t GROUP BY b, a", "SELECT DISTINCT a, b FROM t");
        // aggregates keep their GROUP BY
        let f = fired("SELECT a, COUNT(b) FROM t GROUP BY a");
        assert!(!f.contains(&RewriteRule::GroupByToDistinct));
    }

    #[test]
    fn order_by_noop_rules() {
        // duplicate keys dropped
        assert_equal_canon("SELECT a FROM t ORDER BY a, a DESC", "SELECT a FROM t ORDER BY a");
        // all-literal ORDER BY keeps the ordered flag via a canonical key
        assert_equal_canon("SELECT a FROM t ORDER BY 5", "SELECT a FROM t ORDER BY 1");
        // ORDER BY inside IN-subqueries is unobservable
        assert_equal_canon(
            "SELECT a FROM t WHERE a IN (SELECT a FROM u ORDER BY score)",
            "SELECT a FROM t WHERE a IN (SELECT a FROM u)",
        );
        // ... but not when the subquery has a LIMIT
        let with_limit = "SELECT a FROM t WHERE a IN (SELECT a FROM u ORDER BY score LIMIT 1)";
        assert!(canon(with_limit).contains("ORDER BY"));
        // top-level ORDER BY never dropped
        assert!(canon("SELECT a FROM t ORDER BY a").contains("ORDER BY"));
    }

    #[test]
    fn join_commute_canonical_order() {
        assert_equal_canon(
            "SELECT u.score FROM u JOIN t ON t.id = u.id",
            "SELECT u.score FROM t JOIN u ON t.id = u.id",
        );
        // bare * blocks the swap (column layout would change)
        let a = canon("SELECT * FROM u JOIN t ON t.id = u.id");
        let b = canon("SELECT * FROM t JOIN u ON t.id = u.id");
        assert_ne!(a, b);
        // LEFT JOIN is not commutative
        let a = canon("SELECT u.score FROM u LEFT JOIN t ON t.id = u.id");
        assert!(a.contains("FROM u LEFT JOIN t"), "{a}");
    }

    #[test]
    fn cache_key_preserves_projection_names() {
        // unaliased computed items render into the result column name:
        // the cache-safe canonicalizer must leave them untouched
        let q = parse("SELECT a + 0 FROM t WHERE 2 > a");
        let key = cache_key_canonical_sql(&q, Some(&cat()));
        assert!(key.contains("SELECT a + 0"), "projection rewritten: {key}");
        assert!(key.contains("a < 2"), "predicate not canonicalized: {key}");
        // aliased items may be rewritten freely
        let q = parse("SELECT 1 + 2 AS v FROM t");
        let key = cache_key_canonical_sql(&q, Some(&cat()));
        assert!(key.contains("3 AS v"), "{key}");
    }

    #[test]
    fn canonicalize_is_idempotent() {
        for sql in [
            "SELECT a FROM t WHERE NOT (a BETWEEN 1 AND 5 OR b IN (3, 2, 1))",
            "SELECT DISTINCT a, b FROM t GROUP BY b, a ORDER BY a, a",
            "SELECT u.score FROM u JOIN t ON t.id = u.id WHERE 5 < u.a AND NOT NOT t.b = 1",
        ] {
            let c = cat();
            let once = canonicalize(&parse(sql), RuleSet::full(), Some(&c));
            let twice = canonicalize(&once.query, RuleSet::full(), Some(&c));
            assert_eq!(to_sql(&once.query), to_sql(&twice.query), "not idempotent: {sql}");
        }
    }

    fn witness_db(seed: u64) -> Option<minidb::Database> {
        let mut db = minidb::Database::new("w");
        let base = seed as i64 % 7;
        db.add_table(
            minidb::TableBuilder::new("t")
                .column_int("id")
                .column_int("a")
                .column_int("b")
                .column_text("name")
                .rows((0..6).map(|i| {
                    vec![
                        minidb::Value::Int(i),
                        minidb::Value::Int(base + i * 3 - 4),
                        if i % 3 == 0 { minidb::Value::Null } else { minidb::Value::Int(i % 3) },
                        minidb::Value::Text(format!("n{i}")),
                    ]
                }))
                .build(),
        )
        .ok()?;
        Some(db)
    }

    #[test]
    fn equivalence_lattice_verdicts() {
        let c = cat();
        let budget = SearchBudget::default();
        // syntactic
        let v = equivalence(
            &parse("SELECT a FROM t"),
            &parse("select A from T"),
            Some(&c),
            &budget,
            &witness_db,
        );
        assert_eq!(v, Equivalence::Equivalent(Match::Syntactic));
        // normalized
        let v = equivalence(
            &parse("SELECT a FROM t WHERE 5 < a AND b = 2"),
            &parse("SELECT a FROM t WHERE b = 2 AND a > 5"),
            Some(&c),
            &budget,
            &witness_db,
        );
        match v {
            Equivalence::Equivalent(Match::Normalized { rules }) => {
                assert!(rules.contains(&RewriteRule::OrientComparison), "{rules:?}");
            }
            other => panic!("expected normalized equivalence, got {other:?}"),
        }
        // distinct with executable witness
        let v = equivalence(
            &parse("SELECT a FROM t"),
            &parse("SELECT a FROM t WHERE a > 0"),
            Some(&c),
            &budget,
            &witness_db,
        );
        match v {
            Equivalence::Distinct(w) => assert!(!w.detail.is_empty()),
            other => panic!("expected distinct, got {other:?}"),
        }
        // gold errors, pred succeeds -> divergence
        let v = equivalence(
            &parse("SELECT missing FROM t"),
            &parse("SELECT a FROM t"),
            Some(&c),
            &budget,
            &witness_db,
        );
        assert!(matches!(v, Equivalence::Distinct(_)), "{v:?}");
    }

    #[test]
    fn no_false_distinct_without_witness() {
        let c = cat();
        let budget = SearchBudget { seeds: 4, base_seed: 0 };
        // factory that never produces a database: search must stay Unknown
        let v = equivalence(
            &parse("SELECT a FROM t"),
            &parse("SELECT b FROM t"),
            Some(&c),
            &budget,
            &|_| None,
        );
        assert_eq!(v, Equivalence::Unknown);
        // both sides erroring is not a witness either
        let v = equivalence(
            &parse("SELECT nope1 FROM t"),
            &parse("SELECT nope2 FROM t"),
            Some(&c),
            &budget,
            &witness_db,
        );
        assert_eq!(v, Equivalence::Unknown);
    }

    #[test]
    fn canonical_form_execution_equivalent_spot_checks() {
        // every pair above that claims equivalence must agree under
        // execution on the witness databases
        let pairs = [
            ("SELECT a FROM t WHERE 5 < a", "SELECT a FROM t WHERE a > 5"),
            ("SELECT a FROM t WHERE a BETWEEN 1 AND 5", "SELECT a FROM t WHERE a <= 5 AND a >= 1"),
            ("SELECT a FROM t WHERE a IN (2, 1)", "SELECT a FROM t WHERE a = 2 OR a = 1"),
            ("SELECT a FROM t WHERE NOT (a = 1 AND b = 2)", "SELECT a FROM t WHERE a != 1 OR b != 2"),
            ("SELECT DISTINCT a FROM t GROUP BY a", "SELECT DISTINCT a FROM t"),
            ("SELECT a FROM t WHERE b IS NOT NULL AND a > 0", "SELECT a FROM t WHERE a > 0 AND b IS NOT NULL"),
        ];
        let c = cat();
        for (x, y) in pairs {
            assert!(canonically_equal(&parse(x), &parse(y), Some(&c)), "not canonically equal:\n  {x}\n  {y}");
            for seed in 0..4 {
                let db = witness_db(seed).unwrap();
                let rx = db.run_query(&parse(x)).unwrap();
                let ry = db.run_query(&parse(y)).unwrap();
                assert!(minidb::results_equivalent(&rx, &ry), "execution diverges on seed {seed}:\n  {x}\n  {y}");
            }
        }
    }

    #[test]
    fn canonical_matches_original_by_execution() {
        // soundness spot check: canonicalized query == original under
        // execution (rows, ordered flag) on every witness database
        let sqls = [
            "SELECT a FROM t WHERE NOT (a BETWEEN 1 AND 3) ORDER BY a, a",
            "SELECT DISTINCT a, b FROM t GROUP BY b, a",
            "SELECT name FROM t WHERE a IN (1, 2, 3) OR NOT (b = 1)",
            "SELECT COUNT(a) FROM t WHERE 2 > a",
        ];
        let c = cat();
        for sql in sqls {
            let q = parse(sql);
            let canon = canonicalize(&q, RuleSet::full(), Some(&c));
            assert!(!canon.fired.is_empty(), "expected rewrites to fire for {sql}");
            for seed in 0..4 {
                let db = witness_db(seed).unwrap();
                let orig = db.run_query(&q).unwrap();
                let rewr = db.run_query(&canon.query).unwrap();
                assert!(minidb::results_equivalent(&orig, &rewr), "diverges: {sql} vs {}", to_sql(&canon.query));
                assert_eq!(orig.ordered, rewr.ordered, "ordered flag changed: {sql}");
            }
        }
    }
}
