//! Expression evaluation with scopes, three-valued logic, and aggregates.

use crate::database::Database;
use crate::error::{ExecError, ExecResult};
use crate::exec::resolve_in;
use crate::value::Value;
use sqlkit::ast::*;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Logical operator class a work charge is attributed to. The tags feed
/// per-operator observability counters; the *total* work (what VES sees)
/// is the plain sum over all tags, so attribution never changes scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkOp {
    Scan,
    Filter,
    Join,
    Group,
    Sort,
    Project,
    SetOp,
}

/// (tag, obs counter name) for every operator class, in flush order.
pub(crate) const WORK_OPS: [(WorkOp, &str); 7] = [
    (WorkOp::Scan, "minidb.work.scan"),
    (WorkOp::Filter, "minidb.work.filter"),
    (WorkOp::Join, "minidb.work.join"),
    (WorkOp::Group, "minidb.work.group"),
    (WorkOp::Sort, "minidb.work.sort"),
    (WorkOp::Project, "minidb.work.project"),
    (WorkOp::SetOp, "minidb.work.set_op"),
];

/// Work units per operator class, indexed like [`WORK_OPS`].
pub(crate) type OpCharges = [u64; WORK_OPS.len()];

/// Shared execution counters: deterministic work units plus a budget guard
/// against runaway cross joins in corrupted predictions. Work is tagged by
/// operator class ([`WorkOp`]) for latency/work attribution; the total is
/// unchanged by tagging.
#[derive(Debug)]
pub(crate) struct Counters {
    work: Cell<u64>,
    budget: u64,
    ops: [Cell<u64>; WORK_OPS.len()],
}

impl Counters {
    pub(crate) fn new(budget: u64) -> Self {
        Self { work: Cell::new(0), budget, ops: Default::default() }
    }

    /// Charge `n` work units against operator class `op`; errors when the
    /// budget is exhausted.
    pub(crate) fn charge(&self, op: WorkOp, n: u64) -> ExecResult<()> {
        let cell = &self.ops[op as usize];
        cell.set(cell.get().saturating_add(n));
        let w = self.work.get().saturating_add(n);
        self.work.set(w);
        if w > self.budget {
            Err(ExecError::ResourceExhausted(format!("work budget {} exceeded", self.budget)))
        } else {
            Ok(())
        }
    }

    pub(crate) fn work(&self) -> u64 {
        self.work.get()
    }

    /// Work charged against one operator class so far.
    pub(crate) fn op_work(&self, op: WorkOp) -> u64 {
        self.ops[op as usize].get()
    }

    /// Per-operator totals so far, indexed like [`WORK_OPS`].
    pub(crate) fn op_totals(&self) -> OpCharges {
        std::array::from_fn(|i| self.ops[i].get())
    }

    /// Charge a recorded per-operator delta again (see
    /// [`crate::plan`]'s sub-plan slots): same totals per [`WorkOp`] and the
    /// same budget trip as making the original charges one by one.
    pub(crate) fn replay(&self, charges: &OpCharges) -> ExecResult<()> {
        for ((op, _), &n) in WORK_OPS.iter().zip(charges) {
            if n > 0 {
                self.charge(*op, n)?;
            }
        }
        Ok(())
    }

    /// Publish per-operator work to the global obs recorder. Free (one
    /// relaxed load) when the recorder is disabled; called once per query
    /// at the execution flush points, never per row.
    pub(crate) fn flush_obs(&self) {
        if !obs::enabled() {
            return;
        }
        for (op, name) in WORK_OPS {
            obs::count(name, self.op_work(op));
        }
        obs::count("minidb.work.total", self.work());
    }
}

/// One FROM binding: an optional binding name (table name or alias) and the
/// column names it contributes, at `offset` within the concatenated row.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub(crate) name: Option<String>,
    pub(crate) columns: Vec<String>,
    pub(crate) offset: usize,
}

impl Binding {
    /// The binding a named FROM table contributes, at offset 0.
    pub(crate) fn of_table(t: &crate::database::Table, name: &str, alias: &Option<String>) -> Self {
        Binding {
            name: Some(alias.as_deref().unwrap_or(name).to_string()),
            columns: t.schema.column_names(),
            offset: 0,
        }
    }

    /// Does the qualifier `t` name this binding?
    pub(crate) fn is_named(&self, t: &str) -> bool {
        self.name.as_deref().is_some_and(|n| n.eq_ignore_ascii_case(t))
    }
}

/// A name-resolution scope: bindings + the current concatenated row, chained
/// to an optional outer scope for correlated subqueries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scope<'a> {
    pub(crate) bindings: &'a [Binding],
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// The scope level that binds a (possibly qualified) column — this one,
    /// else the nearest enclosing one — and the column's offset in that
    /// level's row ([`resolve_in`] at each level).
    pub(crate) fn lookup(&self, table: Option<&str>, column: &str) -> Option<(&Scope<'a>, usize)> {
        match resolve_in(self.bindings, table, column) {
            Some(i) => Some((self, i)),
            None => self.parent.and_then(|p| p.lookup(table, column)),
        }
    }
}

/// Evaluation context: database (for subqueries), scope, optional group rows
/// (aggregate mode), and the shared counters.
#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) scope: &'a Scope<'a>,
    /// In aggregate mode, the full rows of the current group.
    pub(crate) group: Option<&'a [Vec<Value>]>,
    pub(crate) counters: &'a Counters,
}

impl<'a> EvalCtx<'a> {
    fn with_row<'b>(&'b self, scope: &'b Scope<'b>) -> EvalCtx<'b> {
        EvalCtx { db: self.db, scope, group: None, counters: self.counters }
    }
}

/// Evaluate an expression to a value.
pub(crate) fn eval(ctx: &EvalCtx<'_>, expr: &Expr) -> ExecResult<Value> {
    match expr {
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Column { table, column } => match ctx.scope.lookup(table.as_deref(), column) {
            Some((level, i)) => Ok(level.row[i].clone()),
            None => Err(unknown_column(table.as_deref(), column)),
        },
        Expr::AggWildcard(func) => eval_aggregate(ctx, *func, None, false),
        Expr::Agg { func, distinct, arg } => eval_aggregate(ctx, *func, Some(arg), *distinct),
        Expr::Func { name, args } => eval_function(ctx, name, args),
        Expr::Binary { op, left, right } => eval_binary(ctx, *op, left, right),
        Expr::Unary { op, expr } => {
            let v = eval(ctx, expr)?;
            Ok(apply_unary(*op, v))
        }
        Expr::Between { expr, negated, low, high } => {
            let v = eval(ctx, expr)?;
            let lo = eval(ctx, low)?;
            let hi = eval(ctx, high)?;
            let ge = v.sql_ord(&lo).map(|o| o != Ordering::Less);
            let le = v.sql_ord(&hi).map(|o| o != Ordering::Greater);
            Ok(bool3_to_value(and3(ge, le).map(|b| b ^ negated)))
        }
        Expr::InList { expr, negated, list } => {
            let v = eval(ctx, expr)?;
            let mut saw_null = v.is_null();
            let mut found = false;
            for item in list {
                let iv = eval(ctx, item)?;
                match v.sql_eq(&iv) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let r = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(bool3_to_value(r.map(|b| b ^ negated)))
        }
        Expr::InSubquery { expr, negated, query } => {
            let v = eval(ctx, expr)?;
            let rs = crate::exec::execute_query(ctx.db, query, Some(ctx.scope), ctx.counters)?;
            if rs.columns.len() != 1 {
                return Err(ExecError::CardinalityViolation(format!(
                    "IN subquery returns {} columns",
                    rs.columns.len()
                )));
            }
            let mut saw_null = v.is_null();
            let mut found = false;
            for row in &rs.rows {
                match v.sql_eq(&row[0]) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let r = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(bool3_to_value(r.map(|b| b ^ negated)))
        }
        Expr::Exists { negated, query } => {
            let rs = crate::exec::execute_query(ctx.db, query, Some(ctx.scope), ctx.counters)?;
            Ok(Value::Int(i64::from(!rs.rows.is_empty() ^ negated)))
        }
        Expr::Subquery(query) => {
            let rs = crate::exec::execute_query(ctx.db, query, Some(ctx.scope), ctx.counters)?;
            if rs.columns.len() != 1 {
                return Err(ExecError::CardinalityViolation(format!(
                    "scalar subquery returns {} columns",
                    rs.columns.len()
                )));
            }
            // SQLite takes the first row and yields NULL on empty results.
            Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
        }
        Expr::Like { expr, negated, pattern } => {
            let v = eval(ctx, expr)?;
            let p = eval(ctx, pattern)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(&p.render(), &v.render());
            Ok(Value::Int(i64::from(matched ^ negated)))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, expr)?;
            Ok(Value::Int(i64::from(v.is_null() ^ negated)))
        }
        Expr::Case { operand, branches, else_expr } => {
            for (when, then) in branches {
                let hit = match operand {
                    Some(op) => {
                        let ov = eval(ctx, op)?;
                        let wv = eval(ctx, when)?;
                        ov.sql_eq(&wv) == Some(true)
                    }
                    None => eval(ctx, when)?.truth() == Some(true),
                };
                if hit {
                    return eval(ctx, then);
                }
            }
            match else_expr {
                Some(e) => eval(ctx, e),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval(ctx, expr)?;
            Ok(cast_value(v, ty))
        }
    }
}

/// The error a column that binds nowhere raises, naming it as written.
pub(crate) fn unknown_column(table: Option<&str>, column: &str) -> ExecError {
    ExecError::UnknownColumn(match table {
        Some(t) => format!("{t}.{column}"),
        None => column.to_string(),
    })
}

/// Evaluate an expression that reads no row — literals under operators and
/// scalar functions — exactly as [`eval`] would, short-circuits included.
/// `None` when evaluating it reads a column, an aggregate or a subquery, or
/// raises. This is what `sqlcheck`'s constant folding calls instead of
/// mirroring the arithmetic, comparison and three-valued rules.
pub fn eval_rowless(e: &Expr) -> Option<Value> {
    let db = Database::new("");
    let scope = Scope { bindings: &[], row: &[], parent: None };
    // a zero budget refuses the first unit any subquery would charge
    let counters = Counters::new(0);
    eval(&EvalCtx { db: &db, scope: &scope, group: None, counters: &counters }, e).ok()
}

/// Apply a unary operator to an evaluated operand.
pub(crate) fn apply_unary(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Not => match v.truth() {
            None => Value::Null,
            Some(b) => Value::Int(i64::from(!b)),
        },
        UnOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Real(r) => Value::Real(-r),
            Value::Text(s) => {
                s.trim().parse::<f64>().map(|f| Value::Real(-f)).unwrap_or(Value::Int(0))
            }
        },
    }
}

pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Real(*v),
        Literal::Str(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Int(i64::from(*b)),
    }
}

pub(crate) fn bool3_to_value(b: Option<bool>) -> Value {
    match b {
        None => Value::Null,
        Some(b) => Value::Int(i64::from(b)),
    }
}

/// Three-valued AND.
pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued OR.
pub(crate) fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn eval_binary(ctx: &EvalCtx<'_>, op: BinOp, left: &Expr, right: &Expr) -> ExecResult<Value> {
    match op {
        BinOp::And => {
            // short-circuit to avoid needless correlated-subquery execution
            let l = eval(ctx, left)?.truth();
            if l == Some(false) {
                return Ok(Value::Int(0));
            }
            let r = eval(ctx, right)?.truth();
            Ok(bool3_to_value(and3(l, r)))
        }
        BinOp::Or => {
            let l = eval(ctx, left)?.truth();
            if l == Some(true) {
                return Ok(Value::Int(1));
            }
            let r = eval(ctx, right)?.truth();
            Ok(bool3_to_value(or3(l, r)))
        }
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let l = eval(ctx, left)?;
            let r = eval(ctx, right)?;
            let ord = l.sql_ord(&r);
            let b = ord.map(|o| match op {
                BinOp::Eq => o == Ordering::Equal,
                BinOp::NotEq => o != Ordering::Equal,
                BinOp::Lt => o == Ordering::Less,
                BinOp::LtEq => o != Ordering::Greater,
                BinOp::Gt => o == Ordering::Greater,
                BinOp::GtEq => o != Ordering::Less,
                _ => unreachable!(),
            });
            Ok(bool3_to_value(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let l = eval(ctx, left)?;
            let r = eval(ctx, right)?;
            eval_arith(op, l, r)
        }
        BinOp::Concat => {
            let l = eval(ctx, left)?;
            let r = eval(ctx, right)?;
            if l.is_null() || r.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!("{}{}", l.render(), r.render())))
            }
        }
    }
}

pub(crate) fn eval_arith(op: BinOp, l: Value, r: Value) -> ExecResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // SQLite: integer op integer stays integer (with / as int division);
    // anything else is float. Non-numeric text coerces to 0.
    let both_int = matches!((&l, &r), (Value::Int(_), Value::Int(_)));
    if both_int {
        let (a, b) = match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            _ => unreachable!(),
        };
        let v = match op {
            BinOp::Add => a.checked_add(b).map(Value::Int),
            BinOp::Sub => a.checked_sub(b).map(Value::Int),
            BinOp::Mul => a.checked_mul(b).map(Value::Int),
            BinOp::Div => {
                if b == 0 {
                    return Ok(Value::Null);
                }
                a.checked_div(b).map(Value::Int)
            }
            BinOp::Mod => {
                if b == 0 {
                    return Ok(Value::Null);
                }
                a.checked_rem(b).map(Value::Int)
            }
            _ => unreachable!(),
        };
        // overflow degrades to float, as SQLite does (`i64::MIN / -1` is the
        // one quotient that overflows)
        return Ok(v.unwrap_or_else(|| {
            let (af, bf) = (a as f64, b as f64);
            Value::Real(match op {
                BinOp::Add => af + bf,
                BinOp::Sub => af - bf,
                BinOp::Mul => af * bf,
                BinOp::Div => af / bf,
                BinOp::Mod => af % bf,
                _ => unreachable!(),
            })
        }));
    }
    let a = l.as_f64().unwrap_or(0.0);
    let b = r.as_f64().unwrap_or(0.0);
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Real(v))
}

pub(crate) fn cast_value(v: Value, ty: &str) -> Value {
    match ty.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(i),
            Value::Real(r) => Value::Int(r as i64),
            Value::Text(s) => Value::Int(parse_prefix_f64(&s) as i64),
        },
        "REAL" | "FLOAT" | "DOUBLE" | "NUMERIC" | "DECIMAL" => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Real(i as f64),
            Value::Real(r) => Value::Real(r),
            Value::Text(s) => Value::Real(parse_prefix_f64(&s)),
        },
        "TEXT" | "VARCHAR" | "CHAR" | "STRING" => match v {
            Value::Null => Value::Null,
            other => Value::Text(other.render()),
        },
        _ => v,
    }
}

/// Parse the longest numeric prefix, as SQLite CAST does ("12abc" -> 12).
fn parse_prefix_f64(s: &str) -> f64 {
    let t = s.trim_start();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    for (i, c) in t.char_indices() {
        match c {
            '+' | '-' if i == 0 => end = i + 1,
            '0'..='9' => {
                seen_digit = true;
                end = i + 1;
            }
            '.' if !seen_dot => {
                seen_dot = true;
                end = i + 1;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse().unwrap_or(0.0)
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive (SQLite default).
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            b'%' => {
                // try consuming 0..=len chars
                for skip in 0..=t.len() {
                    if inner(&p[1..], &t[skip..]) {
                        return true;
                    }
                }
                false
            }
            b'_' => !t.is_empty() && inner(&p[1..], &t[1..]),
            c => {
                !t.is_empty()
                    && t[0].eq_ignore_ascii_case(&c)
                    && inner(&p[1..], &t[1..])
            }
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

fn eval_function(ctx: &EvalCtx<'_>, name: &str, args: &[Expr]) -> ExecResult<Value> {
    // arity errors fire before any argument is evaluated
    check_function_arity(name, args.len())?;
    // IIF and COALESCE stay lazy: skipping an argument also skips any work
    // its aggregates would charge, which is observable through the
    // deterministic work counter.
    match name {
        "IIF" => {
            return if eval(ctx, &args[0])?.truth() == Some(true) {
                eval(ctx, &args[1])
            } else {
                eval(ctx, &args[2])
            };
        }
        "COALESCE" => {
            for a in args {
                let v = eval(ctx, a)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Value::Null);
        }
        _ => {}
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(ctx, a)?);
    }
    apply_scalar_function(name, vals)
}

/// Validate a scalar function's argument count before evaluating any
/// argument, so arity errors fire ahead of argument-evaluation errors in
/// both the interpreter and the compiled-plan executor.
pub fn check_function_arity(name: &str, n: usize) -> ExecResult<()> {
    match name {
        "ABS" | "LENGTH" | "UPPER" | "LOWER" if n != 1 => {
            Err(ExecError::Arity(format!("{name} expects 1 args, got {n}")))
        }
        "ROUND" if n == 0 || n > 2 => Err(ExecError::Arity("ROUND expects 1 or 2 args".into())),
        "SUBSTR" | "SUBSTRING" if n != 2 && n != 3 => {
            Err(ExecError::Arity("SUBSTR expects 2 or 3 args".into()))
        }
        "IIF" if n != 3 => Err(ExecError::Arity(format!("IIF expects 3 args, got {n}"))),
        "NULLIF" | "INSTR" if n != 2 => {
            Err(ExecError::Arity(format!("{name} expects 2 args, got {n}")))
        }
        _ => Ok(()),
    }
}

/// Is this a scalar function the evaluator implements? (Used by the plan
/// compiler to decide up front whether an expression can be lowered, and by
/// `sqlcheck` as the function surface it lints against.)
pub fn known_function(name: &str) -> bool {
    matches!(
        name,
        "ABS"
            | "ROUND"
            | "LENGTH"
            | "UPPER"
            | "LOWER"
            | "SUBSTR"
            | "SUBSTRING"
            | "IIF"
            | "COALESCE"
            | "NULLIF"
            | "INSTR"
    )
}

/// Apply a strict (non-lazy) scalar function to already-evaluated arguments.
/// IIF and COALESCE are handled lazily by the callers and never reach here.
pub(crate) fn apply_scalar_function(name: &str, vals: Vec<Value>) -> ExecResult<Value> {
    let args = &vals;
    let arity = |n: usize| -> ExecResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(ExecError::Arity(format!("{name} expects {n} args, got {}", args.len())))
        }
    };
    match name {
        "ABS" => {
            arity(1)?;
            match args[0].clone() {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Real(r) => Ok(Value::Real(r.abs())),
                Value::Text(s) => {
                    Ok(Value::Real(s.trim().parse::<f64>().map(f64::abs).unwrap_or(0.0)))
                }
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(ExecError::Arity("ROUND expects 1 or 2 args".into()));
            }
            let digits =
                if args.len() == 2 { args[1].as_f64().unwrap_or(0.0) as i32 } else { 0 };
            match args[0].as_f64() {
                None => Ok(Value::Null),
                Some(f) => {
                    let m = 10f64.powi(digits);
                    Ok(Value::Real((f * m).round() / m))
                }
            }
        }
        "LENGTH" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                other => Ok(Value::Int(other.render().chars().count() as i64)),
            }
        }
        "UPPER" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                other => Ok(Value::Text(other.render().to_uppercase())),
            }
        }
        "LOWER" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                other => Ok(Value::Text(other.render().to_lowercase())),
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(ExecError::Arity("SUBSTR expects 2 or 3 args".into()));
            }
            let s = match &args[0] {
                Value::Null => return Ok(Value::Null),
                other => other.render(),
            };
            let chars: Vec<char> = s.chars().collect();
            let start = args[1].as_f64().unwrap_or(1.0) as i64;
            let len = if args.len() == 3 {
                args[2].as_f64().unwrap_or(0.0) as i64
            } else {
                chars.len() as i64
            };
            // SQLite: 1-based; negative start counts from the end
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                chars.len().saturating_sub((-start) as usize)
            } else {
                0
            };
            let take = len.max(0) as usize;
            Ok(Value::Text(chars.iter().skip(begin).take(take).collect()))
        }
        "NULLIF" => {
            arity(2)?;
            if args[0].sql_eq(&args[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "INSTR" => {
            arity(2)?;
            let (hay, needle) = (&args[0], &args[1]);
            if hay.is_null() || needle.is_null() {
                return Ok(Value::Null);
            }
            let h = hay.render();
            let n = needle.render();
            Ok(Value::Int(h.find(&n).map(|i| i as i64 + 1).unwrap_or(0)))
        }
        other => Err(ExecError::Unsupported(format!("function {other}"))),
    }
}

fn eval_aggregate(
    ctx: &EvalCtx<'_>,
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
) -> ExecResult<Value> {
    let group = ctx.group.ok_or_else(|| {
        ExecError::Unsupported(format!("aggregate {} outside GROUP context", func.as_str()))
    })?;

    // COUNT(*) is just the group size.
    if arg.is_none() {
        return Ok(Value::Int(group.len() as i64));
    }
    let arg = arg.expect("checked above");

    // Evaluate the argument per group row.
    let mut values = Vec::with_capacity(group.len());
    for row in group {
        ctx.counters.charge(WorkOp::Group, 1)?;
        let scope = Scope { bindings: ctx.scope.bindings, row, parent: ctx.scope.parent };
        let sub = ctx.with_row(&scope);
        let v = eval(&sub, arg)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    Ok(fold_aggregate(func, values, distinct))
}

/// Fold the non-NULL argument values of an aggregate into its result.
/// Shared between the AST interpreter and the compiled-plan executor so the
/// two paths cannot drift.
pub(crate) fn fold_aggregate(func: AggFunc, mut values: Vec<Value>, distinct: bool) -> Value {
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(v.key_part()));
    }
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum => {
            if values.is_empty() {
                return Value::Null;
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int {
                let mut acc: i64 = 0;
                let mut overflow = false;
                for v in &values {
                    if let Value::Int(i) = v {
                        match acc.checked_add(*i) {
                            Some(s) => acc = s,
                            None => {
                                overflow = true;
                                break;
                            }
                        }
                    }
                }
                if !overflow {
                    return Value::Int(acc);
                }
            }
            let sum: f64 = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum();
            Value::Real(sum)
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Value::Null;
            }
            let sum: f64 = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum();
            Value::Real(sum / values.len() as f64)
        }
        AggFunc::Min => {
            values.into_iter().min_by(|a, b| a.sql_cmp(b)).unwrap_or(Value::Null)
        }
        AggFunc::Max => {
            values.into_iter().max_by(|a, b| a.sql_cmp(b)).unwrap_or(Value::Null)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("%ab%", "xxabyy"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("ABC", "abc"), "ASCII case-insensitive");
        assert!(!like_match("a%z", "abc"));
        assert!(like_match("%end", "the end"));
        assert!(like_match("start%", "starting"));
    }

    #[test]
    fn three_valued_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(or3(None, None), None);
    }

    #[test]
    fn prefix_parse() {
        assert_eq!(parse_prefix_f64("12abc"), 12.0);
        assert_eq!(parse_prefix_f64("-3.5x"), -3.5);
        assert_eq!(parse_prefix_f64("abc"), 0.0);
        assert_eq!(parse_prefix_f64("  7"), 7.0);
    }

    #[test]
    fn rowless_evaluation_is_eval_without_a_row() {
        let value = |expr: &str| {
            let q = sqlkit::parse_query(&format!("SELECT {expr}")).unwrap();
            let SelectItem::Expr { expr, .. } = &q.body.items[0] else { panic!("{q:?}") };
            eval_rowless(expr)
        };
        assert_eq!(value("1 + 2 * 3"), Some(Value::Int(7)));
        assert_eq!(value("'a' || 1.0"), Some(Value::text("a1.0")));
        assert_eq!(value("NULL = 1"), Some(Value::Null));
        // short-circuits are eval's: the right operand is never reached
        assert_eq!(value("0 AND nosuch"), Some(Value::Int(0)));
        assert_eq!(value("1 OR (SELECT 1)"), Some(Value::Int(1)));
        // anything that reads a column, an aggregate or a subquery is None
        assert_eq!(value("1 AND nosuch"), None);
        assert_eq!(value("(SELECT 1)"), None);
        assert_eq!(value("1 IN (SELECT 1)"), None);
        assert_eq!(value("COUNT(*)"), None);
        // the one quotient that overflows degrades to float, not a panic
        assert_eq!(value("(-9223372036854775807 - 1) / -1"), Some(Value::Real(9_223_372_036_854_775_808.0)));
        assert_eq!(value("(-9223372036854775807 - 1) % -1"), Some(Value::Real(-0.0)));
    }

    #[test]
    fn counters_budget() {
        let c = Counters::new(10);
        assert!(c.charge(WorkOp::Scan, 5).is_ok());
        assert!(c.charge(WorkOp::Scan, 5).is_ok());
        assert!(c.charge(WorkOp::Scan, 1).is_err());
        assert_eq!(c.work(), 11);
    }
}
