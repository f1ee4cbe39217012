//! The analysis pass: binder → type checker → rule visitors.
//!
//! The binder follows minidb's bind step (`minidb/src/bind.rs`): JOIN ON
//! expressions see only the bindings joined so far, FROM subqueries see the
//! enclosing query's outer scope (not their FROM siblings), and a bare
//! ORDER BY key naming a select-list alias is that projected column. Names
//! resolve through [`crate::scope`], the lookup rule the canonicalizer and
//! StaticRepair share. The analyzer reports every diagnostic of a statement
//! rather than minidb's first error, so a table it cannot bind stays in
//! scope with unknown columns, and a lookup that only such a binding could
//! answer reports nothing more; `dups` drives the ambiguity warning and the
//! resolved column's type the type rules. The function table and arity
//! rules are minidb's own. Any statement where the analyzer reports a name
//! Error and minidb does not refuse that name — or the reverse — is a
//! parity bug; `tests/differential.rs` pins both directions.

use crate::catalog::{Catalog, Ty};
use crate::scope::{Binding, ColKey, Resolution, Scope};
use crate::{Diagnostic, Rule, Span};
use minidb::eval::{check_function_arity, known_function};
use sqlkit::ast::*;
use std::borrow::Cow;
use std::collections::HashMap;

/// Analyze a parsed query against a catalog. Diagnostics carry no spans
/// (the AST has no source locations); use [`analyze_sql`] to get spans.
pub fn analyze(catalog: &Catalog, query: &Query) -> Vec<Diagnostic> {
    let mut a = Analyzer { catalog, diags: Vec::new() };
    a.check_query(query, None);
    a.diags
}

/// Parse and analyze SQL text; diagnostics that name an identifier get a
/// byte span pointing at its first occurrence in the text.
pub fn analyze_sql(catalog: &Catalog, sql: &str) -> Result<Vec<Diagnostic>, sqlkit::Error> {
    let query = sqlkit::parse_query(sql)?;
    let mut diags = analyze(catalog, &query);
    for d in &mut diags {
        if let Some(ident) = &d.ident {
            d.span = find_ident(sql, ident);
        }
    }
    Ok(diags)
}

/// Locate `ident` (possibly dotted, e.g. `t.col`) in the SQL text with
/// identifier boundaries on both sides, case-insensitively.
fn find_ident(sql: &str, ident: &str) -> Option<Span> {
    if ident.is_empty() {
        return None;
    }
    let hay = sql.to_ascii_lowercase().into_bytes();
    let needle = ident.to_ascii_lowercase().into_bytes();
    let is_word = |i: usize| hay.get(i).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    (0..hay.len())
        .find(|&i| {
            hay[i..].starts_with(&needle)
                && (i == 0 || !is_word(i - 1))
                && !is_word(i + needle.len())
        })
        .map(|start| Span { start, end: start + needle.len() })
}

/// Group keys of the enclosing SELECT core, for the ungrouped-column rule.
struct Grouped {
    /// Resolved column group keys.
    keys: Vec<ColKey>,
    /// Rendered group expressions, lowercased, for structural matching of
    /// non-column keys (`GROUP BY a + b`).
    renders: Vec<String>,
}

/// Per-expression checking environment.
#[derive(Clone, Copy, Default)]
struct Env<'e> {
    /// `Some(context)` where aggregates raise at runtime (WHERE, JOIN ON,
    /// GROUP BY keys, compound ORDER BY).
    no_agg: Option<&'static str>,
    /// `Some(outer fn)` while inside an aggregate argument (nested
    /// aggregates raise at runtime).
    in_agg: Option<&'static str>,
    /// Group keys, when the ungrouped-column rule applies here.
    grouped: Option<&'e Grouped>,
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    diags: Vec<Diagnostic>,
}

impl<'a> Analyzer<'a> {
    fn diag(&mut self, rule: Rule, ident: Option<String>, message: String) {
        self.diags.push(Diagnostic::new(rule, ident, message));
    }

    /// Check a (possibly compound) query; returns its output columns, or
    /// `None` when an earlier error makes the width unknowable.
    fn check_query(
        &mut self,
        q: &Query,
        outer: Option<&Scope<'_>>,
    ) -> Option<Vec<(String, Ty)>> {
        let order_by =
            if q.set_ops.is_empty() { Some(q.order_by.as_slice()) } else { None };
        let first = self.check_core(&q.body, outer, order_by);
        for (_, core) in &q.set_ops {
            let arm = self.check_core(core, outer, None);
            if let (Some(a), Some(b)) = (&first, &arm) {
                if a.len() != b.len() {
                    self.diag(
                        Rule::SetOpArity,
                        None,
                        format!(
                            "set operation arms have {} vs {} columns",
                            a.len(),
                            b.len()
                        ),
                    );
                }
            }
        }
        if !q.set_ops.is_empty() && !q.order_by.is_empty() {
            // Compound ORDER BY resolves only against the first arm's
            // output columns (no aliases), and aggregates error at runtime.
            let bindings = [Binding { name: None, cols: first.as_deref().map(Cow::Borrowed) }];
            let scope = Scope { bindings: &bindings, parent: outer };
            let env = Env { no_agg: Some("compound ORDER BY"), ..Env::default() };
            for k in &q.order_by {
                self.check_expr(&k.expr, &scope, env);
            }
        }
        first
    }

    fn binding_for<'q>(&mut self, tref: &'q TableRef, outer: Option<&Scope<'_>>) -> Binding<'q>
    where
        'a: 'q,
    {
        match tref {
            TableRef::Named { name, alias } => {
                let binding =
                    Binding::table(alias.as_deref().unwrap_or(name), name, Some(self.catalog));
                if binding.cols.is_none() {
                    self.diag(
                        Rule::UnknownTable,
                        Some(name.clone()),
                        format!("unknown table `{name}`"),
                    );
                }
                binding
            }
            // A FROM subquery sees the *enclosing* query's outer scope, not
            // its FROM siblings (mirrors minidb's table_source).
            TableRef::Subquery { query, alias } => Binding {
                name: alias.as_deref().map(Cow::Borrowed),
                cols: self.check_query(query, outer).map(Cow::Owned),
            },
        }
    }

    fn check_core(
        &mut self,
        core: &SelectCore,
        outer: Option<&Scope<'_>>,
        order_by: Option<&[OrderKey]>,
    ) -> Option<Vec<(String, Ty)>> {
        // FROM: bindings accumulate left to right; each JOIN ON sees only
        // the bindings materialized so far (mirrors the join loop).
        let mut bindings: Vec<Binding> = Vec::new();
        let mut on_exprs: Vec<(&Expr, usize)> = Vec::new();
        if let Some(from) = &core.from {
            bindings.push(self.binding_for(&from.base, outer));
            for join in &from.joins {
                bindings.push(self.binding_for(&join.table, outer));
                if let Some(on) = &join.on {
                    on_exprs.push((on, bindings.len()));
                }
            }
        }
        for (on, visible) in on_exprs {
            let scope = Scope { bindings: &bindings[..visible], parent: outer };
            self.check_expr(on, &scope, Env { no_agg: Some("JOIN ON"), ..Env::default() });
            self.check_predicate(on, &scope);
        }
        let scope = Scope { bindings: &bindings, parent: outer };

        if let Some(w) = &core.where_clause {
            self.check_expr(w, &scope, Env { no_agg: Some("WHERE"), ..Env::default() });
            self.check_predicate(w, &scope);
        }

        for g in &core.group_by {
            // Group keys are evaluated per input row: aggregates error.
            self.check_expr(g, &scope, Env { no_agg: Some("GROUP BY"), ..Env::default() });
        }
        let grouped = (!core.group_by.is_empty()).then(|| Grouped {
            keys: core
                .group_by
                .iter()
                .filter_map(|g| match g {
                    Expr::Column { table, column } => {
                        match scope.resolve(table.as_deref(), column) {
                            Resolution::Found { key, .. } => Some(key),
                            _ => None,
                        }
                    }
                    _ => None,
                })
                .collect(),
            renders: core.group_by.iter().map(|g| render_expr(g).to_ascii_lowercase()).collect(),
        });

        if let Some(h) = &core.having {
            let env = Env { grouped: grouped.as_ref(), ..Env::default() };
            self.check_expr(h, &scope, env);
            self.check_predicate(h, &scope);
        }

        // SELECT items → output columns (mirrors exec::output_columns).
        let mut out: Vec<(String, Ty)> = Vec::new();
        let mut width_known = true;
        for item in &core.items {
            match item {
                SelectItem::Wildcard => {
                    if core.from.is_none() {
                        self.diag(
                            Rule::StarWithoutFrom,
                            None,
                            "SELECT * without FROM".to_string(),
                        );
                        width_known = false;
                    } else if bindings.iter().any(|b| b.cols.is_none()) {
                        width_known = false;
                    } else {
                        for cols in bindings.iter().flat_map(|b| &b.cols) {
                            out.extend(cols.iter().cloned());
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    match scope.binding(t).map(|b| &b.cols) {
                        Some(Some(cols)) => out.extend(cols.iter().cloned()),
                        Some(None) => width_known = false,
                        None => {
                            self.diag(
                                Rule::UnknownTable,
                                Some(t.clone()),
                                format!("unknown table `{t}` in qualified wildcard"),
                            );
                            width_known = false;
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let env = Env { grouped: grouped.as_ref(), ..Env::default() };
                    let ty = self.check_expr(expr, &scope, env);
                    let name = match alias {
                        Some(a) => a.clone(),
                        None => match expr {
                            Expr::Column { column, .. } => column.clone(),
                            other => render_expr(other),
                        },
                    };
                    out.push((name, ty));
                }
            }
        }

        // ORDER BY of a simple query: a bare key naming a select alias is
        // the projected column (minidb's own rule); inside a key expression
        // an alias is just a name, resolved through the scope.
        if let Some(order) = order_by {
            let env = Env { grouped: grouped.as_ref(), ..Env::default() };
            for k in order {
                if minidb::exec::order_alias(core, &k.expr).is_none() {
                    self.check_expr(&k.expr, &scope, env);
                }
            }
        }

        width_known.then_some(out)
    }

    fn check_expr(&mut self, e: &Expr, scope: &Scope<'_>, env: Env<'_>) -> Ty {
        // An expression that *is* a group key is fine as a whole: don't
        // descend with the ungrouped-column rule armed.
        let env = match env.grouped {
            Some(g)
                if !matches!(e, Expr::Column { .. } | Expr::Literal(_))
                    && g.renders.contains(&render_expr(e).to_ascii_lowercase()) =>
            {
                Env { grouped: None, ..env }
            }
            _ => env,
        };
        match e {
            Expr::Literal(l) => literal_ty(l),
            Expr::Column { table, column } => {
                match scope.resolve(table.as_deref(), column) {
                    Resolution::Found { ty, key, dups, .. } => {
                        if table.is_none() && dups > 1 {
                            self.diag(
                                Rule::AmbiguousColumn,
                                Some(column.clone()),
                                format!(
                                    "unqualified column `{column}` matches {dups} tables in scope"
                                ),
                            );
                        }
                        if let Some(g) = env.grouped {
                            if env.in_agg.is_none()
                                && key.level == 0
                                && !g.keys.contains(&key)
                            {
                                let ident = render_col(table.as_deref(), column);
                                self.diag(
                                    Rule::UngroupedColumn,
                                    Some(ident.clone()),
                                    format!(
                                        "column `{ident}` is neither grouped nor aggregated"
                                    ),
                                );
                            }
                        }
                        ty
                    }
                    // a binding with unknown columns could have supplied it:
                    // its own error was reported where it was bound
                    Resolution::Unknown => Ty::Unknown,
                    Resolution::NotFound => {
                        let ident = render_col(table.as_deref(), column);
                        self.diag(
                            Rule::UnknownColumn,
                            Some(ident.clone()),
                            format!("unknown column `{ident}`"),
                        );
                        Ty::Unknown
                    }
                }
            }
            Expr::AggWildcard(func) => {
                self.check_agg_position(*func, env);
                Ty::Num
            }
            Expr::Agg { func, distinct: _, arg } => {
                self.check_agg_position(*func, env);
                // Inside the argument: nested aggregates error at runtime;
                // grouping rules don't apply (args evaluate per group row).
                let inner = Env { in_agg: Some(func.as_str()), no_agg: None, grouped: None };
                let aty = self.check_expr(arg, scope, inner);
                match func {
                    AggFunc::Count => Ty::Num,
                    AggFunc::Sum | AggFunc::Avg => {
                        if aty == Ty::Text && !is_numeric_text_literal(arg) {
                            self.diag(
                                Rule::TypeMismatch,
                                None,
                                format!("{} over a text expression", func.as_str()),
                            );
                        }
                        Ty::Num
                    }
                    AggFunc::Min | AggFunc::Max => aty,
                }
            }
            Expr::Func { name, args } => {
                // minidb's own function surface (names are uppercase
                // post-parse; programmatically built lowercase names are
                // unknown at runtime too) and arity rules
                if !known_function(name) {
                    self.diag(
                        Rule::UnknownFunction,
                        Some(name.clone()),
                        format!("unknown function {name}"),
                    );
                } else if let Err(minidb::ExecError::Arity(msg)) =
                    check_function_arity(name, args.len())
                {
                    self.diag(Rule::FunctionArity, Some(name.clone()), msg);
                }
                let mut tys = Vec::with_capacity(args.len());
                for a in args {
                    tys.push(self.check_expr(a, scope, env));
                }
                if matches!(name.as_str(), "ABS" | "ROUND") {
                    if let (Some(t0), Some(a0)) = (tys.first(), args.first()) {
                        if *t0 == Ty::Text && !is_numeric_text_literal(a0) {
                            self.diag(
                                Rule::TypeMismatch,
                                None,
                                format!("{name} expects a numeric argument"),
                            );
                        }
                    }
                }
                function_ty(name, &tys)
            }
            Expr::Binary { op, left, right } => {
                let lt = self.check_expr(left, scope, env);
                let rt = self.check_expr(right, scope, env);
                match *op {
                    BinOp::And | BinOp::Or => Ty::Num,
                    BinOp::Concat => Ty::Text,
                    op if op.is_comparison() => {
                        self.check_comparable(left, lt, right, rt, "comparison");
                        Ty::Num
                    }
                    _ => {
                        // arithmetic: text coerces to 0.0 at runtime
                        for (e2, t) in [(left, lt), (right, rt)] {
                            if t == Ty::Text && !is_numeric_text_literal(e2) {
                                self.diag(
                                    Rule::TypeMismatch,
                                    None,
                                    "arithmetic over a text operand".to_string(),
                                );
                            }
                        }
                        Ty::Num
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let t = self.check_expr(expr, scope, env);
                if *op == UnOp::Neg && t == Ty::Text && !is_numeric_text_literal(expr) {
                    self.diag(
                        Rule::TypeMismatch,
                        None,
                        "negation of a text operand".to_string(),
                    );
                }
                Ty::Num
            }
            Expr::Between { expr, negated: _, low, high } => {
                let t = self.check_expr(expr, scope, env);
                let lo = self.check_expr(low, scope, env);
                let hi = self.check_expr(high, scope, env);
                self.check_comparable(expr, t, low, lo, "BETWEEN");
                self.check_comparable(expr, t, high, hi, "BETWEEN");
                Ty::Num
            }
            Expr::InList { expr, negated: _, list } => {
                let t = self.check_expr(expr, scope, env);
                for item in list {
                    let it = self.check_expr(item, scope, env);
                    self.check_comparable(expr, t, item, it, "IN list");
                }
                Ty::Num
            }
            Expr::InSubquery { expr, negated: _, query } => {
                self.check_expr(expr, scope, env);
                if let Some(cols) = self.check_query(query, Some(scope)) {
                    if cols.len() != 1 {
                        self.diag(
                            Rule::SubqueryArity,
                            None,
                            format!("IN subquery returns {} columns", cols.len()),
                        );
                    }
                }
                Ty::Num
            }
            Expr::Exists { negated: _, query } => {
                self.check_query(query, Some(scope));
                Ty::Num
            }
            Expr::Subquery(query) => match self.check_query(query, Some(scope)) {
                Some(cols) => {
                    if cols.len() != 1 {
                        self.diag(
                            Rule::SubqueryArity,
                            None,
                            format!("scalar subquery returns {} columns", cols.len()),
                        );
                        Ty::Unknown
                    } else {
                        cols[0].1
                    }
                }
                None => Ty::Unknown,
            },
            Expr::Like { expr, negated: _, pattern } => {
                self.check_expr(expr, scope, env);
                self.check_expr(pattern, scope, env);
                Ty::Num
            }
            Expr::IsNull { expr, negated: _ } => {
                self.check_expr(expr, scope, env);
                Ty::Num
            }
            Expr::Case { operand, branches, else_expr } => {
                let op_ty =
                    operand.as_ref().map(|o| (o.as_ref(), self.check_expr(o, scope, env)));
                let mut ty = Ty::Null;
                for (when, then) in branches {
                    let wt = self.check_expr(when, scope, env);
                    if let Some((oe, ot)) = &op_ty {
                        self.check_comparable(oe, *ot, when, wt, "CASE comparison");
                    }
                    ty = ty.unify(self.check_expr(then, scope, env));
                }
                if let Some(e2) = else_expr {
                    ty = ty.unify(self.check_expr(e2, scope, env));
                }
                ty
            }
            Expr::Cast { expr, ty } => {
                let inner = self.check_expr(expr, scope, env);
                match ty.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" | "BIGINT" | "REAL" | "FLOAT" | "DOUBLE"
                    | "NUMERIC" | "DECIMAL" => Ty::Num,
                    "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Ty::Text,
                    // unknown cast targets pass the value through unchanged
                    _ => inner,
                }
            }
        }
    }

    fn check_agg_position(&mut self, func: AggFunc, env: Env<'_>) {
        if let Some(outer) = env.in_agg {
            self.diag(
                Rule::AggregateMisuse,
                Some(func.as_str().to_string()),
                format!("nested aggregate {} inside {outer}", func.as_str()),
            );
        } else if let Some(ctx) = env.no_agg {
            self.diag(
                Rule::AggregateMisuse,
                Some(func.as_str().to_string()),
                format!("aggregate {} in {ctx}", func.as_str()),
            );
        }
    }

    fn check_comparable(&mut self, le: &Expr, lt: Ty, re: &Expr, rt: Ty, what: &str) {
        // A text literal that parses as a number coerces cleanly against a
        // numeric side (`age = '42'`); only flag genuine class mixes.
        let mismatch = match (lt, rt) {
            (Ty::Num, Ty::Text) => !is_numeric_text_literal(re),
            (Ty::Text, Ty::Num) => !is_numeric_text_literal(le),
            _ => false,
        };
        if mismatch {
            self.diag(
                Rule::TypeMismatch,
                None,
                format!("{what} between numeric and text operands"),
            );
        }
    }

    /// Tautology/unsatisfiability analysis over the AND-conjuncts of a
    /// predicate (WHERE / HAVING / JOIN ON). OR branches are not entered.
    fn check_predicate(&mut self, pred: &Expr, scope: &Scope<'_>) {
        let mut conjuncts = Vec::new();
        collect_conjuncts(pred, &mut conjuncts);
        let mut eq_seen: HashMap<ColKey, &Literal> = HashMap::new();
        for c in &conjuncts {
            match c {
                Expr::Binary { op, left, right } if op.is_comparison() => {
                    match (left.as_ref(), right.as_ref()) {
                        (Expr::Literal(l), Expr::Literal(r)) => {
                            match fold_comparison(*op, l, r) {
                                Some(true) => self.diag(
                                    Rule::TautologicalPredicate,
                                    None,
                                    format!("predicate `{}` is always true", render_expr(c)),
                                ),
                                Some(false) => self.diag(
                                    Rule::UnsatisfiablePredicate,
                                    None,
                                    format!("predicate `{}` is always false", render_expr(c)),
                                ),
                                None => {
                                    if matches!(l, Literal::Null)
                                        || matches!(r, Literal::Null)
                                    {
                                        self.diag(
                                            Rule::UnsatisfiablePredicate,
                                            None,
                                            format!(
                                                "predicate `{}` compares with NULL and is never true",
                                                render_expr(c)
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                        (Expr::Column { .. }, Expr::Literal(Literal::Null))
                        | (Expr::Literal(Literal::Null), Expr::Column { .. }) => {
                            self.diag(
                                Rule::UnsatisfiablePredicate,
                                None,
                                format!(
                                    "predicate `{}` compares with NULL and is never true (use IS NULL)",
                                    render_expr(c)
                                ),
                            );
                        }
                        (Expr::Column { table, column }, Expr::Literal(lit))
                        | (Expr::Literal(lit), Expr::Column { table, column })
                            if *op == BinOp::Eq =>
                        {
                            if let Resolution::Found { key, .. } =
                                scope.resolve(table.as_deref(), column)
                            {
                                let ident = render_col(table.as_deref(), column);
                                match eq_seen.get(&key) {
                                    Some(prev) if literals_conflict(prev, lit) => {
                                        self.diag(
                                            Rule::UnsatisfiablePredicate,
                                            Some(ident.clone()),
                                            format!(
                                                "conflicting equality constraints on `{ident}`"
                                            ),
                                        );
                                    }
                                    Some(_) => {}
                                    None => {
                                        eq_seen.insert(key, lit);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                Expr::Between { expr: _, negated: false, low, high } => {
                    if let (Expr::Literal(l), Expr::Literal(h)) =
                        (low.as_ref(), high.as_ref())
                    {
                        if let (Some(a), Some(b)) = (lit_num(l), lit_num(h)) {
                            if a > b {
                                self.diag(
                                    Rule::UnsatisfiablePredicate,
                                    None,
                                    "BETWEEN range is empty (low above high)".to_string(),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn collect_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { op: BinOp::And, left, right } = e {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

fn literal_ty(l: &Literal) -> Ty {
    match l {
        Literal::Null => Ty::Null,
        Literal::Int(_) | Literal::Float(_) | Literal::Bool(_) => Ty::Num,
        Literal::Str(_) => Ty::Text,
    }
}

/// A text literal whose content parses as a number compares/coerces like a
/// number at runtime; treat it as numeric for the advisory type rules.
fn is_numeric_text_literal(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Literal::Str(s)) if s.trim().parse::<f64>().is_ok())
}

/// Fold a comparison of two literals; `None` when the outcome is not
/// statically certain (NULL, or mixed numeric/text classes).
fn fold_comparison(op: BinOp, l: &Literal, r: &Literal) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = match (lit_num(l), lit_num(r)) {
        (Some(a), Some(b)) => a.partial_cmp(&b)?,
        _ => match (l, r) {
            (Literal::Str(a), Literal::Str(b)) => a.cmp(b),
            _ => return None,
        },
    };
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => return None,
    })
}

/// Two literals that *definitely* denote different values (same class,
/// unequal). Mixed classes are left alone — runtime coercion could go
/// either way.
fn literals_conflict(a: &Literal, b: &Literal) -> bool {
    match (lit_num(a), lit_num(b)) {
        (Some(x), Some(y)) => x != y,
        _ => match (a, b) {
            (Literal::Str(x), Literal::Str(y)) => x != y,
            _ => false,
        },
    }
}

fn lit_num(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(i) => Some(*i as f64),
        Literal::Float(f) => Some(*f),
        Literal::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn render_col(table: Option<&str>, column: &str) -> String {
    match table {
        Some(t) => format!("{t}.{column}"),
        None => column.to_string(),
    }
}

/// Render an expression through the printer (same throwaway-query trick the
/// executor uses for output column names, so names line up exactly).
fn render_expr(e: &Expr) -> String {
    let sql = sqlkit::to_sql(&Query::simple(SelectCore::new(vec![SelectItem::expr(
        e.clone(),
    )])));
    sql.trim_start_matches("SELECT ").to_string()
}

fn function_ty(name: &str, tys: &[Ty]) -> Ty {
    match name {
        "ABS" | "ROUND" | "LENGTH" | "INSTR" => Ty::Num,
        "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" => Ty::Text,
        "IIF" if tys.len() == 3 => tys[1].unify(tys[2]),
        "COALESCE" => tys.iter().copied().fold(Ty::Null, Ty::unify),
        "NULLIF" => tys.first().copied().unwrap_or(Ty::Unknown),
        _ => Ty::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_clean;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "singer",
            vec![
                ("id", Ty::Num),
                ("name", Ty::Text),
                ("country", Ty::Text),
                ("age", Ty::Num),
            ],
        );
        c.add_table(
            "concert",
            vec![
                ("cid", Ty::Num),
                ("singer_id", Ty::Num),
                ("year", Ty::Num),
                ("venue", Ty::Text),
            ],
        );
        c
    }

    fn check(sql: &str) -> Vec<Diagnostic> {
        analyze_sql(&cat(), sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"))
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let d = check(
            "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN concert AS T2 \
             ON T1.id = T2.singer_id WHERE T2.year = 2014 GROUP BY T1.name",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn spans_point_at_the_identifier() {
        let sql = "SELECT bogus FROM singer";
        let d = check(sql);
        assert_eq!(d.len(), 1);
        let span = d[0].span.expect("span synthesized");
        assert_eq!(&sql[span.start..span.end], "bogus");
    }

    #[test]
    fn alias_scoping_and_correlated_subqueries_resolve() {
        let d = check(
            "SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM concert \
             WHERE concert.singer_id = singer.id)",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn from_subquery_does_not_see_siblings() {
        // the FROM subquery must not resolve T1's columns
        let d = check(
            "SELECT sub.c FROM singer AS T1 JOIN (SELECT T1.name AS c FROM concert) AS sub \
             ON T1.name = sub.c",
        );
        assert!(
            d.iter().any(|x| x.rule == Rule::UnknownColumn),
            "sibling leak: {d:?}"
        );
    }

    #[test]
    fn order_by_alias_fallback_is_clean() {
        let d = check("SELECT age * 2 AS doubled FROM singer ORDER BY doubled");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn poisoned_table_does_not_cascade() {
        let d = check("SELECT T1.x, T1.y FROM nope AS T1 WHERE T1.z = 1");
        assert_eq!(d.len(), 1, "only the unknown table: {d:?}");
        assert_eq!(d[0].rule, Rule::UnknownTable);
        assert!(!is_clean(&d));
    }
}
