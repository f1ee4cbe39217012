//! Query execution: FROM materialization, joins, filtering, grouping,
//! projection, set operations, ordering, and limits.
//!
//! The executor is a direct interpreter over the `sqlkit` AST — no separate
//! plan stage. Benchmark databases are small (hundreds of rows per table),
//! so nested-loop joins with a work budget are both sufficient and fully
//! deterministic, which matters for the Valid Efficiency Score.
//!
//! It is the oracle the compiled plans in [`crate::plan`] are pinned
//! against, and what [`Database::run_query`] runs for the shapes `compile`
//! declines — none that any corpus emits (DESIGN §8). Like a compiled plan
//! it sits behind [`crate::bind`]: [`execute_with_budget`] binds the whole
//! statement before it reads a row or charges a unit, so an unknown table
//! or column is the same error here and there, whatever the tables hold.

use crate::database::Database;
use crate::error::{ExecError, ExecResult};
use crate::eval::{eval, Binding, Counters, EvalCtx, Scope, WorkOp};
use crate::result::ResultSet;
use crate::value::{row_key_parts, KeyPart, Value};
use sqlkit::ast::*;
use std::collections::{HashMap, HashSet};

/// Default work budget: generous for benchmark-sized data, small enough to
/// stop runaway cross joins from corrupted predictions.
pub const DEFAULT_WORK_BUDGET: u64 = 20_000_000;

/// Execute a query against a database with the default work budget.
pub fn execute(db: &Database, query: &Query) -> ExecResult<ResultSet> {
    execute_with_budget(db, query, DEFAULT_WORK_BUDGET)
}

/// Execute with an explicit work budget (rows touched).
pub fn execute_with_budget(db: &Database, query: &Query, budget: u64) -> ExecResult<ResultSet> {
    let _span = obs::span("minidb.exec.interpret");
    crate::bind::bind(db, query)?;
    let counters = Counters::new(budget);
    let result = execute_query(db, query, None, &counters);
    counters.flush_obs();
    let mut rs = result?;
    rs.work = counters.work();
    Ok(rs)
}

/// Execute a (possibly compound) query in an optional outer scope.
pub(crate) fn execute_query(
    db: &Database,
    query: &Query,
    outer: Option<&Scope<'_>>,
    counters: &Counters,
) -> ExecResult<ResultSet> {
    if query.set_ops.is_empty() {
        return exec_core(db, &query.body, &query.order_by, query.limit, outer, counters);
    }

    // Compound query: evaluate each arm without ordering, combine, then sort
    // by output-column references.
    let mut acc = exec_core(db, &query.body, &[], None, outer, counters)?;
    for (op, core) in &query.set_ops {
        let rhs = exec_core(db, core, &[], None, outer, counters)?;
        if rhs.columns.len() != acc.columns.len() {
            return Err(ExecError::Arity(format!(
                "set operation arms have {} vs {} columns",
                acc.columns.len(),
                rhs.columns.len()
            )));
        }
        counters.charge(WorkOp::SetOp, (acc.rows.len() + rhs.rows.len()) as u64)?;
        acc.rows = combine_set_op(*op, std::mem::take(&mut acc.rows), rhs.rows);
    }

    // ORDER BY against the output columns.
    if !query.order_by.is_empty() {
        let bindings = vec![Binding { name: None, columns: acc.columns.clone(), offset: 0 }];
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(acc.rows.len());
        for row in acc.rows {
            counters.charge(WorkOp::Sort, 1)?;
            let scope = Scope { bindings: &bindings, row: &row, parent: outer };
            let ctx = EvalCtx { db, scope: &scope, group: None, counters };
            let mut keys = Vec::with_capacity(query.order_by.len());
            for k in &query.order_by {
                keys.push(eval(&ctx, &k.expr)?);
            }
            keyed.push((keys, row));
        }
        let desc: Vec<bool> = query.order_by.iter().map(|k| k.desc).collect();
        sort_keyed(&mut keyed, &desc);
        acc.rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    if let Some(limit) = query.limit {
        acc.rows = apply_limit(acc.rows, limit);
    }
    acc.ordered = !query.order_by.is_empty();
    Ok(acc)
}

/// Row-key set over the engine's trusted-key hasher: callers preserve
/// first-encounter order and never iterate, so the hasher is unobservable.
type KeySet = HashSet<RowKey, crate::value::KeyHashBuilder>;

/// Dedup key for one result row. Single-column rows (the common
/// `SELECT col UNION ...`) key by the bare [`KeyPart`], skipping a per-row
/// `Vec` allocation; set-op arms always agree on arity (checked upstream),
/// so the two variants never meet inside one set.
#[derive(PartialEq, Eq, Hash)]
enum RowKey {
    One(KeyPart),
    Many(Vec<KeyPart>),
}

fn row_key(row: &[Value]) -> RowKey {
    match row {
        [v] => RowKey::One(v.key_part()),
        _ => RowKey::Many(row_key_parts(row)),
    }
}

pub(crate) fn combine_set_op(
    op: SetOp,
    left: Vec<Vec<Value>>,
    right: Vec<Vec<Value>>,
) -> Vec<Vec<Value>> {
    // structured row keys: a value containing a separator byte can never
    // collide two distinct rows (the old "\u{1}"-joined string keys could)
    match op {
        SetOp::UnionAll => {
            let mut out = left;
            out.extend(right);
            out
        }
        SetOp::Union => {
            let mut seen: KeySet = KeySet::default();
            let mut out = Vec::new();
            for row in left.into_iter().chain(right) {
                if seen.insert(row_key(&row)) {
                    out.push(row);
                }
            }
            out
        }
        SetOp::Intersect => {
            let rhs: KeySet = right.iter().map(|r| row_key(r)).collect();
            let mut seen: KeySet = KeySet::default();
            left.into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    rhs.contains(&k) && seen.insert(k)
                })
                .collect()
        }
        SetOp::Except => {
            let rhs: KeySet = right.iter().map(|r| row_key(r)).collect();
            let mut seen: KeySet = KeySet::default();
            left.into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    !rhs.contains(&k) && seen.insert(k)
                })
                .collect()
        }
    }
}

/// A materialized relation: bindings describing the concatenated row layout
/// plus the rows themselves.
struct Relation {
    bindings: Vec<Binding>,
    rows: Vec<Vec<Value>>,
    width: usize,
}

fn table_source(
    db: &Database,
    tref: &TableRef,
    outer: Option<&Scope<'_>>,
    counters: &Counters,
) -> ExecResult<Relation> {
    match tref {
        TableRef::Named { name, alias } => {
            let t = db.table(name)?;
            counters.charge(WorkOp::Scan, t.n_rows() as u64)?;
            Ok(Relation {
                width: t.schema.columns.len(),
                bindings: vec![Binding::of_table(t, name, alias)],
                rows: t.to_rows(),
            })
        }
        TableRef::Subquery { query, alias } => {
            let rs = execute_query(db, query, outer, counters)?;
            let binding =
                Binding { name: alias.clone(), columns: rs.columns.clone(), offset: 0 };
            Ok(Relation { width: rs.columns.len(), bindings: vec![binding], rows: rs.rows })
        }
    }
}

/// The lookup rule, in its one place: resolve a (possibly qualified) column
/// to its flat row offset within one binding set — ASCII case-insensitive,
/// a qualifier must name the binding, the first binding carrying the column
/// wins — or `None` if it does not resolve there. [`Scope::lookup`] chains
/// it through the enclosing queries; the interpreter, the plan compiler and
/// [`crate::bind`] all resolve through it.
#[inline]
pub(crate) fn resolve_in(
    bindings: &[Binding],
    table: Option<&str>,
    column: &str,
) -> Option<usize> {
    for b in bindings {
        if table.is_some_and(|t| !b.is_named(t)) {
            continue;
        }
        if let Some(ci) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(column)) {
            return Some(b.offset + ci);
        }
    }
    None
}

/// The binding a `t.*` item names: this query's own FROM only, no parents.
pub(crate) fn binding_named<'a>(bindings: &'a [Binding], t: &str) -> ExecResult<&'a Binding> {
    bindings.iter().find(|b| b.is_named(t)).ok_or_else(|| ExecError::UnknownTable(t.to_string()))
}

/// The select item an ORDER BY key stands for when it is a bare select
/// alias: the key is then that projected column, ahead of any scope lookup
/// (SQLite resolution order; the last item carrying the alias wins). An
/// alias is a whole-key reference — inside a key *expression* names resolve
/// through the scope like anywhere else. (Public for `sqlcheck`, whose
/// binder asks the same question.)
pub fn order_alias(core: &SelectCore, key: &Expr) -> Option<usize> {
    let Expr::Column { table: None, column } = key else { return None };
    let name = column.to_lowercase();
    core.items.iter().rposition(
        |i| matches!(i, SelectItem::Expr { alias: Some(a), .. } if a.to_lowercase() == name),
    )
}

/// Detect `left_col = right_col` equi-join conditions and return the flat
/// column indices (left-relative, right-relative). Right-side bindings are
/// probed with their *unshifted* offsets.
pub(crate) fn equi_join_columns(
    on: &Expr,
    left: &[Binding],
    right: &[Binding],
) -> Option<(usize, usize)> {
    let Expr::Binary { op: BinOp::Eq, left: a, right: b } = on else {
        return None;
    };
    let (Expr::Column { table: ta, column: ca }, Expr::Column { table: tb, column: cb }) =
        (a.as_ref(), b.as_ref())
    else {
        return None;
    };
    // try (a ∈ left, b ∈ right), then the swap; require each side to resolve
    // on exactly one relation to avoid ambiguity
    let a_left = resolve_in(left, ta.as_deref(), ca);
    let a_right = resolve_in(right, ta.as_deref(), ca);
    let b_left = resolve_in(left, tb.as_deref(), cb);
    let b_right = resolve_in(right, tb.as_deref(), cb);
    match (a_left, a_right, b_left, b_right) {
        (Some(l), None, None, Some(r)) => Some((l, r)),
        (None, Some(r), Some(l), None) => Some((l, r)),
        _ => None,
    }
}

fn materialize_from(
    db: &Database,
    from: &FromClause,
    outer: Option<&Scope<'_>>,
    counters: &Counters,
) -> ExecResult<Relation> {
    let mut rel = table_source(db, &from.base, outer, counters)?;
    for join in &from.joins {
        let mut right = table_source(db, &join.table, outer, counters)?;

        // hash-join fast path: INNER/LEFT join on a plain column equality
        let equi = match (&join.kind, &join.on) {
            (JoinKind::Inner | JoinKind::Left, Some(on)) => {
                equi_join_columns(on, &rel.bindings, &right.bindings)
            }
            _ => None,
        };

        // shift right-side binding offsets past the current row width
        for b in &mut right.bindings {
            b.offset += rel.width;
        }
        let mut bindings = rel.bindings.clone();
        bindings.extend(right.bindings.iter().cloned());
        let combined_width = rel.width + right.width;

        let mut out: Vec<Vec<Value>> = Vec::new();
        if let Some((lcol, rcol)) = equi {
            // build on the right side, probe from the left; NULL keys never
            // match (SQL equality semantics)
            let mut table: HashMap<KeyPart, Vec<usize>> =
                HashMap::with_capacity(right.rows.len());
            for (i, r) in right.rows.iter().enumerate() {
                counters.charge(WorkOp::Join, 1)?;
                let key = &r[rcol];
                if !key.is_null() {
                    table.entry(key.key_part()).or_default().push(i);
                }
            }
            out.reserve(rel.rows.len());
            for l in &rel.rows {
                counters.charge(WorkOp::Join, 1)?;
                let key = &l[lcol];
                let matches: &[usize] = if key.is_null() {
                    &[]
                } else {
                    table.get(&key.key_part()).map(Vec::as_slice).unwrap_or(&[])
                };
                for &ri in matches {
                    counters.charge(WorkOp::Join, 1)?;
                    out.push(joined_row(l, &right.rows[ri], combined_width));
                }
                if matches.is_empty() && join.kind == JoinKind::Left {
                    out.push(padded_row(l, right.width, combined_width));
                }
            }
            rel = Relation { bindings, rows: out, width: combined_width };
            continue;
        }

        // general nested-loop path
        let eval_on = |row: &[Value]| -> ExecResult<bool> {
            match &join.on {
                None => Ok(true),
                Some(on) => {
                    let scope = Scope { bindings: &bindings, row, parent: outer };
                    let ctx = EvalCtx { db, scope: &scope, group: None, counters };
                    Ok(eval(&ctx, on)?.truth() == Some(true))
                }
            }
        };
        match join.kind {
            JoinKind::Inner | JoinKind::Cross => {
                for l in &rel.rows {
                    for r in &right.rows {
                        counters.charge(WorkOp::Join, 1)?;
                        let row = joined_row(l, r, combined_width);
                        if eval_on(&row)? {
                            out.push(row);
                        }
                    }
                }
            }
            JoinKind::Left => {
                for l in &rel.rows {
                    let mut matched = false;
                    for r in &right.rows {
                        counters.charge(WorkOp::Join, 1)?;
                        let row = joined_row(l, r, combined_width);
                        if eval_on(&row)? {
                            matched = true;
                            out.push(row);
                        }
                    }
                    if !matched {
                        out.push(padded_row(l, right.width, combined_width));
                    }
                }
            }
            JoinKind::Right => {
                for r in &right.rows {
                    let mut matched = false;
                    for l in &rel.rows {
                        counters.charge(WorkOp::Join, 1)?;
                        let row = joined_row(l, r, combined_width);
                        if eval_on(&row)? {
                            matched = true;
                            out.push(row);
                        }
                    }
                    if !matched {
                        let mut row: Vec<Value> = Vec::with_capacity(combined_width);
                        row.extend(std::iter::repeat_n(Value::Null, rel.width));
                        row.extend_from_slice(r);
                        out.push(row);
                    }
                }
            }
        }
        rel = Relation { bindings, rows: out, width: combined_width };
    }
    Ok(rel)
}

/// Concatenate a left and a right row into one exactly-sized buffer (the
/// join hot path: one allocation, no clone-then-extend reallocation).
pub(crate) fn joined_row(l: &[Value], r: &[Value], width: usize) -> Vec<Value> {
    let mut row = Vec::with_capacity(width);
    row.extend_from_slice(l);
    row.extend_from_slice(r);
    row
}

/// A left row padded with NULLs on the right (outer-join non-match).
pub(crate) fn padded_row(l: &[Value], right_width: usize, width: usize) -> Vec<Value> {
    let mut row = Vec::with_capacity(width);
    row.extend_from_slice(l);
    row.extend(std::iter::repeat_n(Value::Null, right_width));
    row
}

/// Does any of these expressions contain an aggregate (not entering
/// subqueries)?
pub(crate) fn any_aggregate<'a>(exprs: impl Iterator<Item = &'a Expr>) -> bool {
    for e in exprs {
        if e.contains_aggregate() {
            return true;
        }
    }
    false
}

fn exec_core(
    db: &Database,
    core: &SelectCore,
    order_by: &[OrderKey],
    limit: Option<Limit>,
    outer: Option<&Scope<'_>>,
    counters: &Counters,
) -> ExecResult<ResultSet> {
    // 1. FROM
    let rel = match &core.from {
        Some(from) => materialize_from(db, from, outer, counters)?,
        None => Relation { bindings: Vec::new(), rows: vec![Vec::new()], width: 0 },
    };

    // 2. WHERE
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(rel.rows.len());
    match &core.where_clause {
        None => rows = rel.rows,
        Some(pred) => {
            for row in rel.rows {
                counters.charge(WorkOp::Filter, 1)?;
                let scope = Scope { bindings: &rel.bindings, row: &row, parent: outer };
                let ctx = EvalCtx { db, scope: &scope, group: None, counters };
                if eval(&ctx, pred)?.truth() == Some(true) {
                    rows.push(row);
                }
            }
        }
    }

    // 3. aggregate mode detection
    let select_exprs = core.items.iter().filter_map(|i| match i {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    let agg_mode = !core.group_by.is_empty()
        || core.having.is_some()
        || any_aggregate(select_exprs)
        || any_aggregate(order_by.iter().map(|k| &k.expr));

    // output column names
    let columns = output_columns(core, &rel.bindings)?;

    let order_aliases: Vec<Option<usize>> =
        order_by.iter().map(|k| order_alias(core, &k.expr)).collect();

    let null_row: Vec<Value> = std::iter::repeat_n(Value::Null, rel.width).collect();

    // 4. produce output units: (projected row, order keys)
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    if agg_mode {
        // group rows
        let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
        if core.group_by.is_empty() {
            groups.push(rows);
        } else {
            let mut index: HashMap<Vec<KeyPart>, usize> = HashMap::new();
            for row in rows {
                counters.charge(WorkOp::Group, 1)?;
                let scope = Scope { bindings: &rel.bindings, row: &row, parent: outer };
                let ctx = EvalCtx { db, scope: &scope, group: None, counters };
                let mut key = Vec::with_capacity(core.group_by.len());
                for g in &core.group_by {
                    key.push(eval(&ctx, g)?.key_part());
                }
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(row);
            }
        }
        for group in &groups {
            counters.charge(WorkOp::Group, 1)?;
            let head: &[Value] = group.first().map(|r| r.as_slice()).unwrap_or(&null_row);
            let scope = Scope { bindings: &rel.bindings, row: head, parent: outer };
            let ctx = EvalCtx { db, scope: &scope, group: Some(group), counters };
            if let Some(having) = &core.having {
                if eval(&ctx, having)?.truth() != Some(true) {
                    continue;
                }
            }
            let out = project(&ctx, core, &rel.bindings, head)?;
            let keys = order_keys(&ctx, order_by, &order_aliases, &out)?;
            keyed.push((keys, out));
        }
    } else {
        for row in &rows {
            counters.charge(WorkOp::Project, 1)?;
            let scope = Scope { bindings: &rel.bindings, row, parent: outer };
            let ctx = EvalCtx { db, scope: &scope, group: None, counters };
            let out = project(&ctx, core, &rel.bindings, row)?;
            let keys = order_keys(&ctx, order_by, &order_aliases, &out)?;
            keyed.push((keys, out));
        }
    }

    // 5. DISTINCT
    if core.distinct {
        let mut seen = HashSet::new();
        keyed.retain(|(_, row)| seen.insert(row_key_parts(row)));
    }

    // 6. ORDER BY + LIMIT
    if !order_by.is_empty() {
        let desc: Vec<bool> = order_by.iter().map(|k| k.desc).collect();
        sort_keyed(&mut keyed, &desc);
    }
    let mut out_rows: Vec<Vec<Value>> = keyed.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = limit {
        out_rows = apply_limit(out_rows, limit);
    }

    Ok(ResultSet { columns, rows: out_rows, ordered: !order_by.is_empty(), work: 0 })
}

pub(crate) fn output_columns(core: &SelectCore, bindings: &[Binding]) -> ExecResult<Vec<String>> {
    let mut cols = Vec::new();
    for item in &core.items {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    cols.extend(b.columns.iter().cloned());
                }
                if bindings.is_empty() {
                    return Err(ExecError::Unsupported("SELECT * without FROM".into()));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                cols.extend(binding_named(bindings, t)?.columns.iter().cloned());
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column { column, .. } => column.clone(),
                        other => {
                            let mut s = String::new();
                            render_expr_name(&mut s, other);
                            s
                        }
                    },
                };
                cols.push(name);
            }
        }
    }
    Ok(cols)
}

fn render_expr_name(out: &mut String, e: &Expr) {
    // Reuse the printer through a throwaway query-free rendering.
    let item_sql = sqlkit::to_sql(&Query::simple(SelectCore::new(vec![SelectItem::expr(
        e.clone(),
    )])));
    out.push_str(item_sql.trim_start_matches("SELECT "));
}

fn project(
    ctx: &EvalCtx<'_>,
    core: &SelectCore,
    bindings: &[Binding],
    head: &[Value],
) -> ExecResult<Vec<Value>> {
    let mut out = Vec::with_capacity(core.items.len());
    for item in &core.items {
        match item {
            SelectItem::Wildcard => {
                out.extend(head.iter().cloned());
            }
            SelectItem::QualifiedWildcard(t) => {
                let b = binding_named(bindings, t)?;
                out.extend(head[b.offset..b.offset + b.columns.len()].iter().cloned());
            }
            SelectItem::Expr { expr, .. } => out.push(eval(ctx, expr)?),
        }
    }
    Ok(out)
}

/// Evaluate ORDER BY keys: a select alias (see [`order_alias`]) is the
/// projected column, anything else evaluates in the row/group context.
fn order_keys(
    ctx: &EvalCtx<'_>,
    order_by: &[OrderKey],
    aliases: &[Option<usize>],
    projected: &[Value],
) -> ExecResult<Vec<Value>> {
    order_by
        .iter()
        .zip(aliases)
        .map(|(k, alias)| match alias {
            Some(idx) => Ok(projected[*idx].clone()),
            None => eval(ctx, &k.expr),
        })
        .collect()
}

/// Stable sort of `(keys, row)` pairs by the per-key descending flags.
pub(crate) fn sort_keyed<T>(keyed: &mut [(Vec<Value>, T)], desc: &[bool]) {
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, d) in desc.iter().enumerate() {
            let ord = ka[i].sql_cmp(&kb[i]);
            let ord = if *d { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

pub(crate) fn apply_limit<T>(rows: Vec<T>, limit: Limit) -> Vec<T> {
    rows.into_iter().skip(limit.offset as usize).take(limit.count as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TableBuilder;
    use crate::value::Value as V;

    fn db() -> Database {
        let mut db = Database::new("concert_singer");
        db.add_table(
            TableBuilder::new("singer")
                .column_int("id")
                .column_text("name")
                .column_text("country")
                .column_int("age")
                .primary_key(&["id"])
                .rows(vec![
                    vec![V::Int(1), V::text("Ann"), V::text("US"), V::Int(30)],
                    vec![V::Int(2), V::text("Bo"), V::text("UK"), V::Int(20)],
                    vec![V::Int(3), V::text("Cy"), V::text("US"), V::Int(40)],
                    vec![V::Int(4), V::text("Dee"), V::text("FR"), V::Int(25)],
                ])
                .build(),
        )
        .unwrap();
        db.add_table(
            TableBuilder::new("concert")
                .column_int("cid")
                .column_int("singer_id")
                .column_int("year")
                .column_text("venue")
                .primary_key(&["cid"])
                .foreign_key("singer_id", "singer", "id")
                .rows(vec![
                    vec![V::Int(10), V::Int(1), V::Int(2014), V::text("Alpha")],
                    vec![V::Int(11), V::Int(1), V::Int(2015), V::text("Beta")],
                    vec![V::Int(12), V::Int(2), V::Int(2014), V::text("Alpha")],
                    vec![V::Int(13), V::Int(9), V::Int(2016), V::text("Gamma")],
                ])
                .build(),
        )
        .unwrap();
        db
    }

    fn run(sql: &str) -> ResultSet {
        db().run(sql).unwrap_or_else(|e| panic!("run `{sql}`: {e}"))
    }

    fn cell(rs: &ResultSet, r: usize, c: usize) -> &V {
        &rs.rows[r][c]
    }

    #[test]
    fn simple_projection_and_filter() {
        let rs = run("SELECT name FROM singer WHERE age > 25");
        let mut names: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Cy"]);
        assert_eq!(rs.columns, vec!["name"]);
    }

    #[test]
    fn select_star_expands() {
        let rs = run("SELECT * FROM singer");
        assert_eq!(rs.columns, vec!["id", "name", "country", "age"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn qualified_wildcard() {
        let rs = run("SELECT T1.* FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id");
        assert_eq!(rs.columns, vec!["id", "name", "country", "age"]);
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn inner_join() {
        let rs = run(
            "SELECT T1.name, T2.venue FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id",
        );
        assert_eq!(rs.rows.len(), 3, "singer 9 has no match");
    }

    #[test]
    fn left_join_pads_nulls() {
        let rs = run(
            "SELECT T1.name, T2.venue FROM singer AS T1 LEFT JOIN concert AS T2 ON T1.id = T2.singer_id ORDER BY T1.id",
        );
        assert_eq!(rs.rows.len(), 5, "Ann twice, Bo once, Cy+Dee padded");
        assert!(rs.rows.iter().any(|r| r[0] == V::text("Cy") && r[1].is_null()));
    }

    #[test]
    fn right_join() {
        let rs = run(
            "SELECT T1.name, T2.venue FROM singer AS T1 RIGHT JOIN concert AS T2 ON T1.id = T2.singer_id",
        );
        assert_eq!(rs.rows.len(), 4, "concert 13 has no singer");
        assert!(rs.rows.iter().any(|r| r[0].is_null() && r[1] == V::text("Gamma")));
    }

    #[test]
    fn comma_join_is_cross() {
        let rs = run("SELECT singer.name FROM singer, concert");
        assert_eq!(rs.rows.len(), 16);
    }

    #[test]
    fn group_by_count() {
        let rs = run("SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY country");
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(cell(&rs, 2, 0), &V::text("US"));
        assert_eq!(cell(&rs, 2, 1), &V::Int(2));
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            "SELECT country FROM singer GROUP BY country HAVING COUNT(*) > 1",
        );
        assert_eq!(rs.rows, vec![vec![V::text("US")]]);
    }

    #[test]
    fn aggregates() {
        let rs = run("SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM singer");
        assert_eq!(rs.rows[0], vec![V::Int(4), V::Int(115), V::Real(28.75), V::Int(20), V::Int(40)]);
    }

    #[test]
    fn aggregates_on_empty_input() {
        let rs = run("SELECT COUNT(*), SUM(age), MAX(age) FROM singer WHERE age > 100");
        assert_eq!(rs.rows[0], vec![V::Int(0), V::Null, V::Null]);
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT country) FROM singer");
        assert_eq!(rs.rows[0], vec![V::Int(3)]);
    }

    #[test]
    fn order_by_and_limit() {
        let rs = run("SELECT name FROM singer ORDER BY age DESC LIMIT 2");
        assert!(rs.ordered);
        assert_eq!(rs.rows, vec![vec![V::text("Cy")], vec![V::text("Ann")]]);
    }

    #[test]
    fn order_by_alias() {
        let rs = run("SELECT age * 2 AS doubled FROM singer ORDER BY doubled LIMIT 1");
        assert_eq!(rs.rows[0], vec![V::Int(40)]);
    }

    #[test]
    fn order_by_aggregate() {
        let rs = run(
            "SELECT country FROM singer GROUP BY country ORDER BY COUNT(*) DESC, country LIMIT 1",
        );
        assert_eq!(rs.rows[0], vec![V::text("US")]);
    }

    #[test]
    fn limit_offset() {
        let rs = run("SELECT name FROM singer ORDER BY id LIMIT 2 OFFSET 1");
        assert_eq!(rs.rows, vec![vec![V::text("Bo")], vec![V::text("Cy")]]);
    }

    #[test]
    fn distinct() {
        let rs = run("SELECT DISTINCT country FROM singer");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn in_subquery() {
        let rs = run("SELECT name FROM singer WHERE id IN (SELECT singer_id FROM concert)");
        let mut names: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Bo"]);
    }

    #[test]
    fn not_in_subquery() {
        let rs = run("SELECT name FROM singer WHERE id NOT IN (SELECT singer_id FROM concert)");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn scalar_subquery() {
        let rs = run("SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)");
        let mut names: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Cy"]);
    }

    #[test]
    fn correlated_exists() {
        let rs = run(
            "SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM concert WHERE concert.singer_id = singer.id AND concert.year = 2015)",
        );
        assert_eq!(rs.rows, vec![vec![V::text("Ann")]]);
    }

    #[test]
    fn correlated_scalar() {
        let rs = run(
            "SELECT name, (SELECT COUNT(*) FROM concert WHERE concert.singer_id = singer.id) FROM singer ORDER BY id",
        );
        assert_eq!(cell(&rs, 0, 1), &V::Int(2));
        assert_eq!(cell(&rs, 3, 1), &V::Int(0));
    }

    #[test]
    fn union_dedupes() {
        let rs = run("SELECT country FROM singer UNION SELECT country FROM singer");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let rs = run("SELECT country FROM singer UNION ALL SELECT country FROM singer");
        assert_eq!(rs.rows.len(), 8);
    }

    #[test]
    fn intersect_and_except() {
        let rs = run(
            "SELECT venue FROM concert WHERE year = 2014 INTERSECT SELECT venue FROM concert WHERE year = 2015",
        );
        assert_eq!(rs.rows.len(), 0);
        let rs = run(
            "SELECT venue FROM concert EXCEPT SELECT venue FROM concert WHERE year = 2014",
        );
        let mut v: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        v.sort();
        assert_eq!(v, vec!["Beta", "Gamma"]);
    }

    #[test]
    fn compound_order_by() {
        let rs = run(
            "SELECT name FROM singer WHERE age < 25 UNION SELECT name FROM singer WHERE age > 35 ORDER BY name DESC",
        );
        assert_eq!(rs.rows, vec![vec![V::text("Cy")], vec![V::text("Bo")]]);
    }

    #[test]
    fn from_subquery() {
        let rs = run(
            "SELECT sub.c FROM (SELECT country AS c, COUNT(*) AS n FROM singer GROUP BY country) AS sub WHERE sub.n > 1",
        );
        assert_eq!(rs.rows, vec![vec![V::text("US")]]);
    }

    #[test]
    fn case_expression() {
        let rs = run(
            "SELECT name, CASE WHEN age >= 30 THEN 'old' ELSE 'young' END FROM singer ORDER BY id LIMIT 2",
        );
        assert_eq!(cell(&rs, 0, 1), &V::text("old"));
        assert_eq!(cell(&rs, 1, 1), &V::text("young"));
    }

    #[test]
    fn iif_function() {
        let rs = run("SELECT IIF(age > 25, 1, 0) FROM singer ORDER BY id");
        let v: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| if let V::Int(i) = r[0] { i } else { panic!() })
            .collect();
        assert_eq!(v, vec![1, 0, 1, 0]);
    }

    #[test]
    fn like_predicate() {
        let rs = run("SELECT name FROM singer WHERE name LIKE '%n%'");
        assert_eq!(rs.rows.len(), 1, "Ann only (ASCII case-insensitive)");
    }

    #[test]
    fn between_predicate() {
        let rs = run("SELECT name FROM singer WHERE age BETWEEN 20 AND 30 ORDER BY age");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn arithmetic_in_projection() {
        let rs = run("SELECT age + 1, age / 2, age % 7 FROM singer WHERE id = 1");
        assert_eq!(rs.rows[0], vec![V::Int(31), V::Int(15), V::Int(2)]);
    }

    #[test]
    fn division_by_zero_is_null() {
        let rs = run("SELECT age / 0 FROM singer WHERE id = 1");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn unknown_column_errors() {
        assert!(matches!(
            db().run("SELECT nonexistent FROM singer"),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn unknown_table_errors() {
        assert!(matches!(db().run("SELECT x FROM nope"), Err(ExecError::UnknownTable(_))));
    }

    #[test]
    fn set_op_arity_mismatch_errors() {
        assert!(matches!(
            db().run("SELECT id, name FROM singer UNION SELECT id FROM singer"),
            Err(ExecError::Arity(_))
        ));
    }

    #[test]
    fn work_counter_nonzero_and_deterministic() {
        let db = db();
        let q = sqlkit::parse_query("SELECT * FROM singer JOIN concert ON singer.id = concert.singer_id").unwrap();
        let a = execute(&db, &q).unwrap();
        let b = execute(&db, &q).unwrap();
        assert!(a.work > 0);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn budget_trips_on_huge_cross_join() {
        let db = db();
        let q = sqlkit::parse_query(
            "SELECT * FROM singer, concert, singer AS s2, concert AS c2, singer AS s3, concert AS c3",
        )
        .unwrap();
        let res = execute_with_budget(&db, &q, 1000);
        assert!(matches!(res, Err(ExecError::ResourceExhausted(_))));
    }

    #[test]
    fn no_from_select() {
        let rs = run("SELECT 1, 'x'");
        assert_eq!(rs.rows, vec![vec![V::Int(1), V::text("x")]]);
    }

    #[test]
    fn group_by_with_join() {
        let rs = run(
            "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id GROUP BY T1.name ORDER BY COUNT(*) DESC",
        );
        assert_eq!(rs.rows[0], vec![V::text("Ann"), V::Int(2)]);
    }

    #[test]
    fn null_handling_in_where() {
        // padded NULLs from the left join never satisfy equality
        let rs = run(
            "SELECT T1.name FROM singer AS T1 LEFT JOIN concert AS T2 ON T1.id = T2.singer_id WHERE T2.year = 2014",
        );
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        // `a = b` takes the hash path; `b = a AND 1 = 1` is structurally not
        // a plain column equality, so it takes the nested-loop path — both
        // must produce identical result multisets.
        let db = db();
        let hash = db
            .run("SELECT T1.name, T2.venue FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id")
            .unwrap();
        let nested = db
            .run("SELECT T1.name, T2.venue FROM singer AS T1 JOIN concert AS T2 ON T2.singer_id = T1.id AND 1 = 1")
            .unwrap();
        assert!(crate::result::results_equivalent(&hash, &nested));
        assert!(hash.work < nested.work, "hash join must do less work");
    }

    #[test]
    fn hash_left_join_agrees_with_nested_loop() {
        let db = db();
        let hash = db
            .run("SELECT T1.name, T2.venue FROM singer AS T1 LEFT JOIN concert AS T2 ON T1.id = T2.singer_id")
            .unwrap();
        let nested = db
            .run("SELECT T1.name, T2.venue FROM singer AS T1 LEFT JOIN concert AS T2 ON T1.id = T2.singer_id AND 1 = 1")
            .unwrap();
        assert!(crate::result::results_equivalent(&hash, &nested));
    }

    #[test]
    fn hash_join_skips_null_keys() {
        let mut db = Database::new("nulls");
        db.add_table(
            TableBuilder::new("l")
                .column_int("id")
                .column_int("k")
                .rows(vec![
                    vec![V::Int(1), V::Int(10)],
                    vec![V::Int(2), V::Null],
                ])
                .build(),
        )
        .unwrap();
        db.add_table(
            TableBuilder::new("r")
                .column_int("id")
                .column_int("k")
                .rows(vec![
                    vec![V::Int(1), V::Int(10)],
                    vec![V::Int(2), V::Null],
                ])
                .build(),
        )
        .unwrap();
        let rs = db.run("SELECT l.id, r.id FROM l JOIN r ON l.k = r.k").unwrap();
        assert_eq!(rs.rows, vec![vec![V::Int(1), V::Int(1)]], "NULL = NULL never joins");
    }

    #[test]
    fn ves_style_work_scaling() {
        // LIMIT-ed scans do not reduce scan work here (no index), but a
        // filtered join touches more rows than a single-table scan.
        let scan = run("SELECT name FROM singer");
        let join = run("SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id");
        assert!(join.work > scan.work);
    }
}
