//! The compiled executor: batch execution over columnar storage.
//!
//! Every [`crate::plan::CompiledQuery`] core runs here, directly against the
//! typed column vectors of [`crate::database::Table`]; nothing materializes
//! an intermediate row as a `Vec<Value>`:
//!
//! * **fused scan + filter** builds a selection vector of surviving row ids;
//!   comparison/BETWEEN/LIKE/IS NULL conjuncts against literals run as typed
//!   kernels (one storage dispatch per batch, not per cell), and zone maps
//!   skip whole [`crate::column::ZONE_ROWS`]-row batches that provably
//!   cannot match an equality or range predicate;
//! * **joins** are steps over a relation of *row ids*, one id column per
//!   table, never materialized tuples: a hash step builds the table once
//!   from the right column (an integer-keyed map when the column has `Int`
//!   storage) and probes with raw column values; a nested-loop step (`!=`,
//!   `<`, compound or absent `ON`, RIGHT, CROSS) evaluates the compiled `ON`
//!   over an id pair read in place. Chains of any length compose the two;
//! * **batch aggregation** groups by raw column values where possible and
//!   folds aggregates column-at-a-time (a hand-rolled kernel for `Int`
//!   storage, [`fold_aggregate`] on gathered values otherwise);
//! * **late materialization**: ORDER BY + LIMIT sorts (key, row-id) pairs
//!   and gathers output cells only for the rows that survive the limit.
//!
//! **Observational identity.** This path must be indistinguishable from the
//! interpreter ([`crate::exec`]): same rows in the same order (join emission
//! order shows through LIMIT without ORDER BY and first-seen group order),
//! same errors, and the same deterministic work-unit totals per [`WorkOp`]
//! (the VES efficiency metric and the budget trip point both read them). Two
//! facts make bulk charging sound: compiled non-aggregate expression
//! evaluation is infallible (arity is validated at compile time, arithmetic
//! edge cases yield NULL), and the only charge inside expression evaluation
//! is a sub-plan slot's recorded work. So per-op totals equal to the
//! interpreter's imply the same success value and the same failure
//! (`ResourceExhausted` depends only on the budget). Totals suffice only
//! while nothing but the budget can fail, so everything that would break
//! that declines *at compile time* and the statement runs on the
//! interpreter — there is no per-row mode here. A slot charges at *every*
//! evaluation, so it only ever sits in an `ON` (evaluated once per pair, in
//! the interpreter's pair order) or in the WHERE predicate, which stays one
//! unsplit residual evaluated once per candidate row; a slot anywhere else,
//! or one that can raise (`CardinalityViolation`), declines
//! (`plan::compile_core`, `Lowering::sub_slot`). Aggregates are pre-folded
//! into [`CExpr::Pre`] slots only when every argful aggregate sits in a
//! *strict* position — evaluated exactly once whenever its containing
//! expression is evaluated — so the bulk `group-len × occurrences` charge
//! reproduces the interpreter's per-row charges exactly; short-circuited
//! aggregates and CASE operands decline ([`lower`]). Join charges are made
//! before the id vectors grow by what they pay for, so a budget trip still
//! precedes the blow-up it exists to stop.

use crate::column::{ColumnData, Zones, ZONE_ROWS};
use crate::database::Table;
use crate::error::ExecResult;
use crate::eval::{fold_aggregate, like_match, WorkOp};
use crate::plan::{
    ceval, scan_table, CExpr, CItem, CJoinStep, COrderKey, CompiledCore, Exec, RowView,
};
use crate::result::ResultSet;
use crate::value::{row_key_parts, KeyPart, Value};
use sqlkit::ast::{AggFunc, BinOp, JoinKind};
use std::collections::{HashMap, HashSet};

/// Sentinel row id for the right side of an unmatched LEFT join: the row
/// view reads NULL for every column of that table.
const SENT: u32 = u32::MAX;

/// Raw-`i64` hash map over the engine's trusted-key hasher (see
/// [`crate::value::KeyHasher`]): bucket placement is the only thing the
/// hasher decides, so the cheap multiplicative hash is unobservable.
type IntMap<V> = HashMap<i64, V, crate::value::KeyHashBuilder>;

// ---------------------------------------------------------------------------
// compiled vectorized plan
// ---------------------------------------------------------------------------

/// The execution plan of one [`CompiledCore`] beyond its resolved shape.
/// Built once at compile time by [`lower`]; holds only shape, never data.
#[derive(Debug, Clone)]
pub(crate) struct VecCore {
    /// Typed filter kernels over base-table columns (from pushed conjuncts).
    kernels: Vec<Kernel>,
    /// Pushed conjuncts that did not kernelize; evaluated per base row.
    residual: Vec<CExpr>,
    /// Aggregation plan with pre-fold slots, when the core aggregates.
    agg: Option<AggPlan>,
}

/// Comparison kernels recognize `col <op> literal` conjuncts (either
/// operand order) plus BETWEEN / LIKE / IS NULL on a bare column.
#[derive(Debug, Clone)]
enum Kernel {
    Cmp { col: usize, op: CmpOp, lit: Value },
    Between { col: usize, lo: Value, hi: Value, negated: bool },
    IsNull { col: usize, negated: bool },
    Like { col: usize, pattern: String, negated: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Aggregation with HAVING / projection / order keys rewritten so every
/// aggregate occurrence reads a pre-folded [`CExpr::Pre`] slot. Each
/// section numbers its own slots.
#[derive(Debug, Clone)]
struct AggPlan {
    having: Option<CExpr>,
    having_specs: Vec<AggSpec>,
    items: Vec<CItem>,
    item_specs: Vec<AggSpec>,
    okeys: Vec<COrderKey>,
    okey_specs: Vec<AggSpec>,
}

/// One pre-folded aggregate occurrence.
#[derive(Debug, Clone)]
enum AggSpec {
    /// `COUNT(*)`: group length, charges nothing.
    CountStar,
    /// An argful aggregate: charges one Group unit per group row, exactly
    /// like the interpreter's per-row evaluation.
    Fold { func: AggFunc, distinct: bool, arg: CExpr },
}

fn argful(specs: &[AggSpec]) -> u64 {
    specs.iter().filter(|s| matches!(s, AggSpec::Fold { .. })).count() as u64
}

// ---------------------------------------------------------------------------
// lowering (compile time)
// ---------------------------------------------------------------------------

/// Lower a core's pushed conjuncts and, in aggregate mode, its HAVING /
/// projection / order keys. `None` when an aggregate or a sub-plan slot sits
/// where bulk charging would break observational identity; the statement
/// then declines to the interpreter. WHERE, ON and GROUP BY hold no
/// aggregates (`compile_expr` rejects them there), which the charge
/// argument in the module doc relies on.
pub(crate) fn lower(
    pushed: &[CExpr],
    agg_mode: bool,
    having: Option<&CExpr>,
    items: &[CItem],
    order_keys: &[COrderKey],
) -> Option<VecCore> {
    let mut kernels = Vec::new();
    let mut residual = Vec::new();
    for p in pushed {
        match kernelize(p) {
            Some(k) => kernels.push(k),
            None => residual.push(p.clone()),
        }
    }
    let agg = if agg_mode { Some(lower_agg(having, items, order_keys)?) } else { None };
    Some(VecCore { kernels, residual, agg })
}

fn lower_agg(
    having: Option<&CExpr>,
    items: &[CItem],
    order_keys: &[COrderKey],
) -> Option<AggPlan> {
    let mut having_specs = Vec::new();
    let having = match having {
        None => None,
        Some(h) => Some(strip_aggs(h, true, &mut having_specs)?),
    };
    let mut item_specs = Vec::new();
    let mut out_items = Vec::with_capacity(items.len());
    for it in items {
        out_items.push(match it {
            CItem::Range(s, e) => CItem::Range(*s, *e),
            CItem::Expr(e) => CItem::Expr(strip_aggs(e, true, &mut item_specs)?),
        });
    }
    let mut okey_specs = Vec::new();
    let mut okeys = Vec::with_capacity(order_keys.len());
    for k in order_keys {
        okeys.push(match k {
            COrderKey::Projected(i) => COrderKey::Projected(*i),
            COrderKey::Expr(e) => COrderKey::Expr(strip_aggs(e, true, &mut okey_specs)?),
        });
    }
    Some(AggPlan { having, having_specs, items: out_items, item_specs, okeys, okey_specs })
}

/// Replace aggregate occurrences with [`CExpr::Pre`] slots. `strict` means
/// this position is evaluated exactly once whenever the whole expression
/// is evaluated — the condition under which a bulk per-group charge equals
/// the interpreter's per-evaluation charge. An argful aggregate in a
/// non-strict position (short-circuited operand, CASE branch, IN-list
/// item …) returns `None`: its charges are data-dependent and cannot be
/// bulk-reproduced. `COUNT(*)` charges nothing and is pure, so it
/// substitutes anywhere.
fn strip_aggs(e: &CExpr, strict: bool, specs: &mut Vec<AggSpec>) -> Option<CExpr> {
    let b = |e: Option<CExpr>| e.map(Box::new);
    Some(match e {
        CExpr::Lit(v) => CExpr::Lit(v.clone()),
        CExpr::Col(i) => CExpr::Col(*i),
        CExpr::Pre(i) => CExpr::Pre(*i),
        CExpr::AggCountStar => {
            specs.push(AggSpec::CountStar);
            CExpr::Pre(specs.len() - 1)
        }
        CExpr::Agg { func, distinct, arg } => {
            if !strict || contains_agg(arg) {
                return None;
            }
            specs.push(AggSpec::Fold {
                func: *func,
                distinct: *distinct,
                arg: (**arg).clone(),
            });
            CExpr::Pre(specs.len() - 1)
        }
        CExpr::Func { kind, name, args } => {
            use crate::plan::FnKind;
            let mut out = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                let child_strict = match kind {
                    FnKind::Strict => strict,
                    // IIF picks one branch, COALESCE stops at the first
                    // non-NULL: only the first argument always evaluates
                    FnKind::Iif | FnKind::Coalesce => strict && i == 0,
                };
                out.push(strip_aggs(a, child_strict, specs)?);
            }
            CExpr::Func { kind: *kind, name: name.clone(), args: out }
        }
        CExpr::Binary { op, left, right } => {
            let right_strict = match op {
                BinOp::And | BinOp::Or => false, // short-circuit
                _ => strict,
            };
            CExpr::Binary {
                op: *op,
                left: Box::new(strip_aggs(left, strict, specs)?),
                right: Box::new(strip_aggs(right, right_strict, specs)?),
            }
        }
        CExpr::Unary { op, expr } => CExpr::Unary {
            op: *op,
            expr: Box::new(strip_aggs(expr, strict, specs)?),
        },
        CExpr::Between { expr, negated, low, high } => CExpr::Between {
            expr: Box::new(strip_aggs(expr, strict, specs)?),
            negated: *negated,
            low: Box::new(strip_aggs(low, strict, specs)?),
            high: Box::new(strip_aggs(high, strict, specs)?),
        },
        CExpr::InList { expr, negated, list } => {
            let mut out = Vec::with_capacity(list.len());
            for item in list {
                // the list scan stops at the first match
                out.push(strip_aggs(item, false, specs)?);
            }
            CExpr::InList {
                expr: Box::new(strip_aggs(expr, strict, specs)?),
                negated: *negated,
                list: out,
            }
        }
        CExpr::Like { expr, negated, pattern } => CExpr::Like {
            expr: Box::new(strip_aggs(expr, strict, specs)?),
            negated: *negated,
            pattern: Box::new(strip_aggs(pattern, strict, specs)?),
        },
        CExpr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(strip_aggs(expr, strict, specs)?),
            negated: *negated,
        },
        CExpr::Case { operand, branches, else_expr } => {
            // the operand re-evaluates once per branch until a hit — not
            // exactly-once, so aggregates inside it must decline
            let operand = match operand {
                None => None,
                Some(o) => Some(strip_aggs(o, false, specs)?),
            };
            let mut out = Vec::with_capacity(branches.len());
            for (i, (when, then)) in branches.iter().enumerate() {
                // only the first WHEN is guaranteed to evaluate
                let w = strip_aggs(when, strict && i == 0, specs)?;
                let t = strip_aggs(then, false, specs)?;
                out.push((w, t));
            }
            let else_expr = match else_expr {
                None => None,
                Some(e) => Some(strip_aggs(e, false, specs)?),
            };
            CExpr::Case { operand: b(operand), branches: out, else_expr: b(else_expr) }
        }
        CExpr::Cast { expr, ty } => CExpr::Cast {
            expr: Box::new(strip_aggs(expr, strict, specs)?),
            ty: ty.clone(),
        },
        // a slot charges per evaluation, which the bulk per-group charges
        // cannot reproduce; `compile_core` only lowers cores whose slots all
        // sit in WHERE, so this is the backstop, not the policy
        CExpr::InSub { .. } | CExpr::ExistsSub { .. } | CExpr::ScalarSub(_) => return None,
    })
}

fn contains_agg(e: &CExpr) -> bool {
    let mut found = false;
    e.walk(&mut |n| found |= matches!(n, CExpr::AggCountStar | CExpr::Agg { .. }));
    found
}

fn kernelize(e: &CExpr) -> Option<Kernel> {
    let cmp_op = |op: &BinOp| match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::NotEq => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::LtEq => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::GtEq => Some(CmpOp::Ge),
        _ => None,
    };
    match e {
        CExpr::Binary { op, left, right } => {
            let op = cmp_op(op)?;
            match (left.as_ref(), right.as_ref()) {
                (CExpr::Col(c), CExpr::Lit(v)) if !v.is_null() => {
                    Some(Kernel::Cmp { col: *c, op, lit: v.clone() })
                }
                (CExpr::Lit(v), CExpr::Col(c)) if !v.is_null() => {
                    let flipped = match op {
                        CmpOp::Eq => CmpOp::Eq,
                        CmpOp::Ne => CmpOp::Ne,
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                    };
                    Some(Kernel::Cmp { col: *c, op: flipped, lit: v.clone() })
                }
                _ => None,
            }
        }
        CExpr::Between { expr, negated, low, high } => {
            match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (CExpr::Col(c), CExpr::Lit(lo), CExpr::Lit(hi))
                    if !lo.is_null() && !hi.is_null() =>
                {
                    Some(Kernel::Between {
                        col: *c,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        negated: *negated,
                    })
                }
                _ => None,
            }
        }
        CExpr::IsNull { expr, negated } => match expr.as_ref() {
            CExpr::Col(c) => Some(Kernel::IsNull { col: *c, negated: *negated }),
            _ => None,
        },
        CExpr::Like { expr, negated, pattern } => {
            match (expr.as_ref(), pattern.as_ref()) {
                (CExpr::Col(c), CExpr::Lit(p)) if !p.is_null() => Some(Kernel::Like {
                    col: *c,
                    pattern: p.render(),
                    negated: *negated,
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// filter kernels (execution time)
// ---------------------------------------------------------------------------

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        _ => std::cmp::Ordering::Greater,
    })
}

fn ord_passes(op: CmpOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

impl Kernel {
    /// Conservative zone test: `false` only when *no* row of the zone can
    /// pass. Literal cells compare through the same `as f64` projection the
    /// row comparison uses, which is monotone, so min/max bounds transfer.
    fn zone_may_match(&self, t: &Table, zi: usize) -> bool {
        let (col, numeric) = match self {
            Kernel::Cmp { col, lit, .. } => (*col, lit.as_f64()),
            Kernel::Between { col, negated: false, lo, hi } => {
                // range check below needs both bounds numeric
                match (lo.as_f64(), hi.as_f64()) {
                    (Some(_), Some(_)) => (*col, None),
                    _ => return true,
                }
            }
            Kernel::Like { col, .. } => (*col, None),
            // IS [NOT] NULL passes NULL cells; zones say nothing useful
            Kernel::IsNull { .. } => return true,
            Kernel::Between { .. } => return true, // negated: no pruning
        };
        // text literals compare by type rank, not magnitude — no pruning
        if matches!(self, Kernel::Cmp { lit: Value::Text(_), .. }) {
            return true;
        }
        let Some(zones) = t.column(col).zones() else { return true };
        let (zmin, zmax, any_valid) = match zones {
            Zones::Int(z) => {
                let z = &z[zi];
                (z.min as f64, z.max as f64, z.any_valid)
            }
            Zones::Real(z) => {
                let z = &z[zi];
                (z.min, z.max, z.any_valid)
            }
        };
        // NULL cells fail every kernel here; an all-NULL zone can't match
        if !any_valid {
            return false;
        }
        match self {
            Kernel::Cmp { op, .. } => {
                let Some(b) = numeric else { return true };
                match op {
                    CmpOp::Eq => !(b < zmin || b > zmax),
                    CmpOp::Lt => zmin < b,
                    CmpOp::Le => zmin <= b,
                    CmpOp::Gt => zmax > b,
                    CmpOp::Ge => zmax >= b,
                    CmpOp::Ne => true,
                }
            }
            Kernel::Between { negated: false, lo, hi, .. } => match (lo.as_f64(), hi.as_f64()) {
                (Some(lo), Some(hi)) => !(zmax < lo || zmin > hi),
                _ => true,
            },
            _ => true,
        }
    }

    /// Drop candidate row ids that fail this kernel. Typed fast paths pick
    /// the storage/literal combination once per batch; everything else goes
    /// through cell-level [`Value`] comparison with identical semantics.
    fn filter(&self, t: &Table, cand: &mut Vec<u32>) {
        match self {
            Kernel::Cmp { col, op, lit } => {
                let c = t.column(*col);
                let va = c.validity();
                match (c.data(), lit, lit.as_f64()) {
                    (ColumnData::Int(d), Value::Int(b), _) => {
                        cand.retain(|&i| {
                            let i = i as usize;
                            va.get(i) && ord_passes(*op, d[i].cmp(b))
                        });
                    }
                    (ColumnData::Int(d), Value::Real(b), _) => {
                        cand.retain(|&i| {
                            let i = i as usize;
                            va.get(i) && ord_passes(*op, cmp_f64(d[i] as f64, *b))
                        });
                    }
                    (ColumnData::Real(d), _, Some(b)) => {
                        cand.retain(|&i| {
                            let i = i as usize;
                            va.get(i) && ord_passes(*op, cmp_f64(d[i], b))
                        });
                    }
                    (ColumnData::Text(d), Value::Text(b), _) => {
                        cand.retain(|&i| {
                            let i = i as usize;
                            va.get(i) && ord_passes(*op, d[i].as_str().cmp(b.as_str()))
                        });
                    }
                    _ => {
                        cand.retain(|&i| {
                            c.get(i as usize)
                                .sql_ord(lit)
                                .map(|o| ord_passes(*op, o))
                                == Some(true)
                        });
                    }
                }
            }
            Kernel::Between { col, lo, hi, negated } => {
                let c = t.column(*col);
                // bounds are non-null, so for a non-null cell both sides of
                // the AND resolve and the result is total
                cand.retain(|&i| {
                    let v = c.get(i as usize);
                    match (v.sql_ord(lo), v.sql_ord(hi)) {
                        (Some(ge), Some(le)) => {
                            let inside = ge != std::cmp::Ordering::Less
                                && le != std::cmp::Ordering::Greater;
                            inside ^ negated
                        }
                        _ => false, // NULL cell: three-valued AND never true
                    }
                });
            }
            Kernel::IsNull { col, negated } => {
                let va = t.column(*col).validity();
                cand.retain(|&i| !va.get(i as usize) ^ negated);
            }
            Kernel::Like { col, pattern, negated } => {
                let c = t.column(*col);
                let va = c.validity();
                match c.data() {
                    ColumnData::Text(d) => {
                        cand.retain(|&i| {
                            let i = i as usize;
                            va.get(i) && (like_match(pattern, &d[i]) ^ negated)
                        });
                    }
                    _ => {
                        cand.retain(|&i| {
                            let v = c.get(i as usize);
                            !v.is_null() && (like_match(pattern, &v.render()) ^ negated)
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// relation of row ids
// ---------------------------------------------------------------------------

/// The joined/filtered relation as row-id vectors into the source tables —
/// rows materialize only when an expression actually reads them. A core
/// without FROM is the zero-table relation of one row (none when its WHERE
/// rejects it).
struct Rel<'a> {
    tables: Vec<&'a Table>,
    /// Flat-offset start of each table in the concatenated row.
    starts: Vec<usize>,
    /// Per table: one source row id per relation row ([`SENT`] = NULL pad).
    idx: Vec<Vec<u32>>,
    len: usize,
}

impl<'a> Rel<'a> {
    fn locate(&self, off: usize) -> (usize, usize) {
        let mut t = 0;
        while t + 1 < self.tables.len() && off >= self.starts[t + 1] {
            t += 1;
        }
        (t, off - self.starts[t])
    }

    fn cell(&self, row: usize, off: usize) -> Value {
        let (t, c) = self.locate(off);
        let ri = self.idx[t][row];
        if ri == SENT {
            return Value::Null;
        }
        self.tables[t].column(c).get(ri as usize)
    }

    /// Width of the concatenated row: where the next joined table starts.
    fn width(&self) -> usize {
        match (self.starts.last(), self.tables.last()) {
            (Some(start), Some(t)) => start + t.schema.columns.len(),
            _ => 0,
        }
    }

    /// One join step's output: row `i` is row `left[i]` of the relation so
    /// far ([`SENT`] = all-NULL left pad) beside row `right[i]` of `rt`.
    fn join(&mut self, left: &[u32], right: Vec<u32>, rt: &'a Table) {
        let start = self.width();
        for col in &mut self.idx {
            *col = left.iter().map(|&l| if l == SENT { SENT } else { col[l as usize] }).collect();
        }
        self.tables.push(rt);
        self.starts.push(start);
        self.idx.push(right);
        self.len = left.len();
    }
}

struct RelRow<'a, 'b> {
    rel: &'b Rel<'a>,
    row: usize,
}

impl RowView for RelRow<'_, '_> {
    fn cell(&self, i: usize) -> Value {
        self.rel.cell(self.row, i)
    }
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

/// Build-side hash table keyed by raw `i64` when the right column has `Int`
/// storage; otherwise by the same [`KeyPart`] canonicalization the
/// interpreter uses, so match sets are identical.
enum JoinMap {
    Int(IntMap<Vec<u32>>),
    Gen(HashMap<KeyPart, Vec<u32>>),
}

impl JoinMap {
    fn build(rt: &Table, rcol: usize, cx: &Exec<'_>) -> ExecResult<Self> {
        let n = rt.n_rows();
        cx.charge(WorkOp::Join, n as u64)?;
        let c = rt.column(rcol);
        Ok(match c.data() {
            ColumnData::Int(d) => {
                let va = c.validity();
                let mut m: IntMap<Vec<u32>> =
                    IntMap::with_capacity_and_hasher(n, Default::default());
                for (i, &v) in d.iter().enumerate() {
                    if va.get(i) {
                        m.entry(v).or_default().push(i as u32);
                    }
                }
                JoinMap::Int(m)
            }
            _ => {
                let mut m: HashMap<KeyPart, Vec<u32>> = HashMap::with_capacity(n);
                for i in 0..n {
                    let v = c.get(i);
                    if !v.is_null() {
                        m.entry(v.key_part()).or_default().push(i as u32);
                    }
                }
                JoinMap::Gen(m)
            }
        })
    }

    /// Probe with a left-row key value (NULL never matches, as in the
    /// interpreter's build-side NULL skip + probe-side NULL check).
    fn probe(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        match (self, key.key_part()) {
            (JoinMap::Int(m), KeyPart::Num(a)) => m.get(&a).map(Vec::as_slice).unwrap_or(&[]),
            (JoinMap::Int(_), _) => &[], // non-integral key can't equal an Int cell
            (JoinMap::Gen(m), kp) => m.get(&kp).map(Vec::as_slice).unwrap_or(&[]),
        }
    }
}

/// Hash equi-join step: build on `rt`, probe from the relation in row order,
/// emit each row's matches in build-side insertion order (a LEFT step pads
/// an unmatched row) — the interpreter's emission order. A key read through
/// an earlier step's NULL pad matches nothing. One build unit per right row
/// and one probe unit per left row are charged up front, a row's emit units
/// before the id vectors grow by them.
///
/// `sel` is the single-join pushdown shape: the relation is still the bare
/// base scan and `sel` holds, ascending, the base rows that passed the
/// pushed conjuncts. Every base row is probed and charged, only selected
/// ones emit, and the return value counts the joined rows priced but never
/// materialized — the caller still owes their WHERE units.
fn hash_step<'a>(
    cx: &Exec<'_>,
    rel: &mut Rel<'a>,
    kind: JoinKind,
    lcol: usize,
    rcol: usize,
    rt: &'a Table,
    sel: Option<&[u32]>,
) -> ExecResult<u64> {
    let map = JoinMap::build(rt, rcol, cx)?;
    cx.charge(WorkOp::Join, rel.len as u64)?;
    let (t, c) = rel.locate(lcol);
    let lc = rel.tables[t].column(c);
    let mut left: Vec<u32> = Vec::new();
    let mut right: Vec<u32> = Vec::new();
    let (mut sp, mut phantoms) = (0usize, 0u64);
    for (row, &li) in rel.idx[t].iter().enumerate() {
        let key = if li == SENT { Value::Null } else { lc.get(li as usize) };
        let matches = map.probe(&key);
        cx.charge(WorkOp::Join, matches.len() as u64)?;
        let padded = matches.is_empty() && kind == JoinKind::Left;
        if let Some(sel) = sel {
            if sel.get(sp) != Some(&(row as u32)) {
                phantoms += if padded { 1 } else { matches.len() as u64 };
                continue;
            }
            sp += 1;
        }
        if padded {
            left.push(row as u32);
            right.push(SENT);
        } else {
            left.extend(std::iter::repeat_n(row as u32, matches.len()));
            right.extend_from_slice(matches);
        }
    }
    rel.join(&left, right, rt);
    Ok(phantoms)
}

/// One candidate pair of a nested-loop step, read in place: a relation row
/// beside a row of the table being joined, whose columns start at `start`.
struct PairRow<'r, 'a> {
    rel: &'r Rel<'a>,
    row: usize,
    rt: &'a Table,
    rrow: usize,
    start: usize,
}

impl RowView for PairRow<'_, '_> {
    fn cell(&self, i: usize) -> Value {
        if i < self.start {
            self.rel.cell(self.row, i)
        } else {
            self.rt.column(i - self.start).get(self.rrow)
        }
    }
}

/// Nested-loop step in the interpreter's pair and emission order: INNER,
/// CROSS and LEFT loop the relation outside and `rt` inside (LEFT pads an
/// unmatched row after its pairs); RIGHT loops `rt` outside and pads the
/// left side. All `n·m` pair units are charged before the first pair is
/// evaluated, so a budget trip precedes any growth. `on` is evaluated once
/// per pair, which is as often as the interpreter evaluates it — a sub-plan
/// slot inside it charges the same total.
fn nested_step<'a>(
    cx: &Exec<'_>,
    rel: &mut Rel<'a>,
    kind: JoinKind,
    on: Option<&CExpr>,
    rt: &'a Table,
) -> ExecResult<()> {
    let (n, m) = (rel.len, rt.n_rows());
    cx.charge(WorkOp::Join, (n as u64).saturating_mul(m as u64))?;
    let start = rel.width();
    let on_true = |row: usize, rrow: usize| -> ExecResult<bool> {
        match on {
            None => Ok(true),
            Some(e) => {
                let pair = PairRow { rel, row, rt, rrow, start };
                Ok(ceval(cx, &pair, &[], e)?.truth() == Some(true))
            }
        }
    };
    let right_outer = kind == JoinKind::Right;
    let (outer, inner) = if right_outer { (m, n) } else { (n, m) };
    let mut left: Vec<u32> = Vec::new();
    let mut right: Vec<u32> = Vec::new();
    for o in 0..outer {
        let before = left.len();
        for i in 0..inner {
            let (row, rrow) = if right_outer { (i, o) } else { (o, i) };
            if on_true(row, rrow)? {
                left.push(row as u32);
                right.push(rrow as u32);
            }
        }
        if left.len() == before {
            match kind {
                JoinKind::Left => {
                    left.push(o as u32);
                    right.push(SENT);
                }
                JoinKind::Right => {
                    left.push(SENT);
                    right.push(o as u32);
                }
                JoinKind::Inner | JoinKind::Cross => {}
            }
        }
    }
    rel.join(&left, right, rt);
    Ok(())
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

/// Execute a compiled core. Charges exactly the interpreter's per-[`WorkOp`]
/// totals.
pub(crate) fn exec_core(cx: &Exec<'_>, core: &CompiledCore) -> ExecResult<ResultSet> {
    let rel = from_where(cx, core)?;
    match &core.vcore.agg {
        Some(agg) => {
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
            exec_agg(core, agg, &rel, cx, &mut keyed)?;
            finish(core, keyed)
        }
        None => {
            cx.charge(WorkOp::Project, rel.len as u64)?;
            exec_project(core, &rel, cx)
        }
    }
}

/// FROM, the join chain and WHERE, as a relation of row ids.
fn from_where<'a>(cx: &Exec<'a>, core: &CompiledCore) -> ExecResult<Rel<'a>> {
    let v = &core.vcore;
    let Some(base) = &core.base else {
        // no FROM: a single empty row, optionally filtered
        let mut len = 1;
        if core.has_where {
            cx.charge(WorkOp::Filter, 1)?;
            let no_row: &[Value] = &[];
            if !passes(cx, no_row, &core.pushed)? {
                len = 0;
            }
        }
        return Ok(Rel { tables: Vec::new(), starts: Vec::new(), idx: Vec::new(), len });
    };
    let base_t = scan_table(cx.db, base)?;
    let n_base = base_t.n_rows();
    cx.charge(WorkOp::Scan, n_base as u64)?;
    if core.joins.is_empty() && core.has_where {
        cx.charge(WorkOp::Filter, n_base as u64)?;
    }
    // The base rows that pass the pushed conjuncts: the whole relation when
    // there is nothing to join, else the rows allowed to emit from the one
    // hash join `compile_core` pushes conjuncts below — a selection never
    // meets a chain or a nested-loop step.
    let sel = if core.pushed.is_empty() {
        None
    } else {
        Some(select_base(base_t, &v.kernels, &v.residual, cx)?)
    };
    let all = || (0..n_base as u32).collect::<Vec<u32>>();
    if core.joins.is_empty() {
        let ids = sel.unwrap_or_else(all);
        return Ok(Rel { tables: vec![base_t], starts: vec![0], len: ids.len(), idx: vec![ids] });
    }
    let mut rel = Rel { tables: vec![base_t], starts: vec![0], idx: vec![all()], len: n_base };
    let mut phantoms = 0u64;
    for (step, scan) in &core.joins {
        let rt = scan_table(cx.db, scan)?;
        cx.charge(WorkOp::Scan, rt.n_rows() as u64)?;
        match step {
            CJoinStep::Hash { kind, lcol, rcol } => {
                phantoms += hash_step(cx, &mut rel, *kind, *lcol, *rcol, rt, sel.as_deref())?;
            }
            CJoinStep::Nested { kind, on } => nested_step(cx, &mut rel, *kind, on.as_ref(), rt)?,
        }
    }
    // one WHERE unit per joined row, materialized or not
    if core.has_where {
        cx.charge(WorkOp::Filter, rel.len as u64 + phantoms)?;
        if !core.where_rest.is_empty() {
            retain_rel(&mut rel, &core.where_rest, cx)?;
        }
    }
    Ok(rel)
}

/// Fused scan + filter: zone-pruned kernel passes build the selection
/// vector; residual conjuncts evaluate per surviving row. Kernels are
/// charge-free (the per-row WHERE units are bulk-charged by the caller) and
/// infallible, so their order is unobservable. A residual holding a
/// sub-plan slot does charge, per evaluation — it is then the whole,
/// unsplit predicate, so there are no kernels to skip rows ahead of it.
fn select_base(
    t: &Table,
    kernels: &[Kernel],
    residual: &[CExpr],
    cx: &Exec<'_>,
) -> ExecResult<Vec<u32>> {
    let n = t.n_rows();
    let mut sel: Vec<u32> = Vec::new();
    let mut zs = 0usize;
    let mut zi = 0usize;
    while zs < n {
        let ze = (zs + ZONE_ROWS).min(n);
        if kernels.iter().all(|k| k.zone_may_match(t, zi)) {
            let mut cand: Vec<u32> = (zs as u32..ze as u32).collect();
            for k in kernels {
                if cand.is_empty() {
                    break;
                }
                k.filter(t, &mut cand);
            }
            if !residual.is_empty() && !cand.is_empty() {
                let mut keep = Vec::with_capacity(cand.len());
                for &i in &cand {
                    let view = TableRow { t, row: i as usize };
                    if passes(cx, &view, residual)? {
                        keep.push(i);
                    }
                }
                cand = keep;
            }
            sel.extend(cand);
        }
        zs = ze;
        zi += 1;
    }
    Ok(sel)
}

struct TableRow<'a> {
    t: &'a Table,
    row: usize,
}

impl RowView for TableRow<'_> {
    fn cell(&self, i: usize) -> Value {
        self.t.column(i).get(self.row)
    }
}

fn passes<R: RowView + ?Sized>(
    cx: &Exec<'_>,
    row: &R,
    preds: &[CExpr],
) -> ExecResult<bool> {
    for p in preds {
        if ceval(cx, row, &[], p)?.truth() != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn retain_rel(rel: &mut Rel<'_>, preds: &[CExpr], cx: &Exec<'_>) -> ExecResult<()> {
    let mut keep: Vec<usize> = Vec::with_capacity(rel.len);
    for row in 0..rel.len {
        if passes(cx, &RelRow { rel, row }, preds)? {
            keep.push(row);
        }
    }
    if keep.len() != rel.len {
        for col in &mut rel.idx {
            let mut out = Vec::with_capacity(keep.len());
            for &r in &keep {
                out.push(col[r]);
            }
            *col = out;
        }
        rel.len = keep.len();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

fn exec_agg(
    core: &CompiledCore,
    agg: &AggPlan,
    rel: &Rel<'_>,
    cx: &Exec<'_>,
    keyed: &mut Vec<(Vec<Value>, Vec<Value>)>,
) -> ExecResult<()> {
    // group rows by key, first-encounter order
    let mut groups: Vec<Vec<u32>> = Vec::new();
    if core.group_by.is_empty() {
        groups.push((0..rel.len as u32).collect());
    } else {
        cx.charge(WorkOp::Group, rel.len as u64)?;
        if !group_by_int_column(core, rel, &mut groups) {
            let mut index: HashMap<Vec<KeyPart>, usize> = HashMap::new();
            for row in 0..rel.len {
                let view = RelRow { rel, row };
                let mut key = Vec::with_capacity(core.group_by.len());
                for g in &core.group_by {
                    key.push(ceval(cx, &view, &[], g)?.key_part());
                }
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(row as u32);
            }
        }
    }

    for group in &groups {
        cx.charge(WorkOp::Group, 1)?;
        let glen = group.len() as u64;
        // Lazy head: non-aggregate column references read straight from the
        // columns of the group's first row instead of materializing the full
        // joined row (most aggregate queries touch one or two grouped
        // columns out of a wide relation).
        let head = GroupHead { rel, row: group.first().map(|&r| r as usize) };
        if let Some(having) = &agg.having {
            cx.charge(WorkOp::Group, glen * argful(&agg.having_specs))?;
            let pre = fold_specs(rel, group, &agg.having_specs, cx)?;
            if ceval(cx, &head, &pre, having)?.truth() != Some(true) {
                continue;
            }
        }
        cx.charge(WorkOp::Group, glen * (argful(&agg.item_specs) + argful(&agg.okey_specs)))?;
        let pre_i = fold_specs(rel, group, &agg.item_specs, cx)?;
        let mut out = Vec::with_capacity(agg.items.len());
        for item in &agg.items {
            match item {
                CItem::Range(s, e) => out.extend((*s..*e).map(|off| head.cell(off))),
                CItem::Expr(e) => out.push(ceval(cx, &head, &pre_i, e)?),
            }
        }
        let pre_o = fold_specs(rel, group, &agg.okey_specs, cx)?;
        let mut keys = Vec::with_capacity(agg.okeys.len());
        for k in &agg.okeys {
            keys.push(match k {
                COrderKey::Projected(idx) => out[*idx].clone(),
                COrderKey::Expr(e) => ceval(cx, &head, &pre_o, e)?,
            });
        }
        keyed.push((keys, out));
    }
    Ok(())
}

/// Row view over a group's first row; an empty group (global aggregate over
/// an empty relation) reads NULL for every column, matching the
/// all-NULL head row the interpreter synthesizes.
struct GroupHead<'r, 'a> {
    rel: &'r Rel<'a>,
    row: Option<usize>,
}

impl RowView for GroupHead<'_, '_> {
    fn cell(&self, i: usize) -> Value {
        match self.row {
            Some(r) => self.rel.cell(r, i),
            None => Value::Null,
        }
    }
}

/// Fast grouping for a single bare-column key over `Int` storage: hash raw
/// `i64`s, with a dedicated NULL group (all NULLs group together, matching
/// [`KeyPart::Null`]).
fn group_by_int_column(core: &CompiledCore, rel: &Rel<'_>, groups: &mut Vec<Vec<u32>>) -> bool {
    let [CExpr::Col(off)] = core.group_by.as_slice() else { return false };
    let (t, c) = rel.locate(*off);
    let col = rel.tables[t].column(c);
    let ColumnData::Int(d) = col.data() else { return false };
    let va = col.validity();
    let ids = &rel.idx[t];
    let mut index: IntMap<usize> = IntMap::default();
    let mut null_g: Option<usize> = None;
    for (row, &ri) in ids.iter().enumerate().take(rel.len) {
        let gi = if ri == SENT || !va.get(ri as usize) {
            *null_g.get_or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            })
        } else {
            *index.entry(d[ri as usize]).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            })
        };
        groups[gi].push(row as u32);
    }
    true
}

/// Fold each pre-slot aggregate over the group's rows. Values gather in row
/// order (float summation order is observable); NULL arguments are skipped
/// exactly as the interpreter's per-row accumulation does.
fn fold_specs(
    rel: &Rel<'_>,
    group: &[u32],
    specs: &[AggSpec],
    cx: &Exec<'_>,
) -> ExecResult<Vec<Value>> {
    let mut out = Vec::with_capacity(specs.len());
    for s in specs {
        match s {
            AggSpec::CountStar => out.push(Value::Int(group.len() as i64)),
            AggSpec::Fold { func, distinct, arg } => {
                if !*distinct {
                    if let CExpr::Col(off) = arg {
                        if let Some(v) = fold_int_col(rel, group, *off, *func) {
                            out.push(v);
                            continue;
                        }
                    }
                }
                let mut vals = Vec::with_capacity(group.len());
                for &row in group {
                    let v = ceval(cx, &RelRow { rel, row: row as usize }, &[], arg)?;
                    if !v.is_null() {
                        vals.push(v);
                    }
                }
                out.push(fold_aggregate(*func, vals, *distinct));
            }
        }
    }
    Ok(out)
}

/// Column-at-a-time fold for a bare `Int`-storage column: no `Value`
/// allocation per cell. Semantics mirror [`fold_aggregate`] over all-`Int`
/// inputs: empty → NULL (except COUNT), SUM does checked `i64` addition and
/// degrades to an in-order `f64` sum on overflow.
fn fold_int_col(rel: &Rel<'_>, group: &[u32], off: usize, func: AggFunc) -> Option<Value> {
    let (t, c) = rel.locate(off);
    let col = rel.tables[t].column(c);
    let ColumnData::Int(d) = col.data() else { return None };
    let va = col.validity();
    let ids = &rel.idx[t];
    let valid = |row: u32| -> Option<i64> {
        let ri = ids[row as usize];
        if ri == SENT || !va.get(ri as usize) {
            None
        } else {
            Some(d[ri as usize])
        }
    };
    Some(match func {
        AggFunc::Count => Value::Int(group.iter().filter(|&&r| valid(r).is_some()).count() as i64),
        AggFunc::Min => match group.iter().filter_map(|&r| valid(r)).min() {
            Some(v) => Value::Int(v),
            None => Value::Null,
        },
        AggFunc::Max => match group.iter().filter_map(|&r| valid(r)).max() {
            Some(v) => Value::Int(v),
            None => Value::Null,
        },
        AggFunc::Sum => {
            let mut any = false;
            let mut acc: i64 = 0;
            let mut overflow = false;
            for &r in group {
                let Some(v) = valid(r) else { continue };
                any = true;
                match acc.checked_add(v) {
                    Some(s) => acc = s,
                    None => {
                        overflow = true;
                        break;
                    }
                }
            }
            if !any {
                Value::Null
            } else if !overflow {
                Value::Int(acc)
            } else {
                let sum: f64 = group.iter().filter_map(|&r| valid(r)).map(|v| v as f64).sum();
                Value::Real(sum)
            }
        }
        AggFunc::Avg => {
            let mut n = 0u64;
            let mut sum = 0f64;
            for &r in group {
                if let Some(v) = valid(r) {
                    n += 1;
                    sum += v as f64;
                }
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Real(sum / n as f64)
            }
        }
    })
}

// ---------------------------------------------------------------------------
// projection (non-aggregate) with late materialization
// ---------------------------------------------------------------------------

fn exec_project(
    core: &CompiledCore,
    rel: &Rel<'_>,
    cx: &Exec<'_>,
) -> ExecResult<ResultSet> {
    let project = |row: usize| -> ExecResult<Vec<Value>> {
        let view = RelRow { rel, row };
        let mut out = Vec::with_capacity(core.items.len());
        for item in &core.items {
            match item {
                CItem::Range(s, e) => {
                    for off in *s..*e {
                        out.push(rel.cell(row, off));
                    }
                }
                CItem::Expr(e) => out.push(ceval(cx, &view, &[], e)?),
            }
        }
        Ok(out)
    };

    if core.distinct {
        // DISTINCT needs every projected row up front; no late win here
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rel.len);
        let mut seen = HashSet::new();
        for row in 0..rel.len {
            let out = project(row)?;
            if !seen.insert(row_key_parts(&out)) {
                continue;
            }
            let keys = order_keys_for(core, rel, row, &out, cx)?;
            keyed.push((keys, out));
        }
        return finish(core, keyed);
    }

    if !core.order_keys.is_empty() {
        // sort (keys, row-id), apply the limit, then materialize only the
        // surviving window
        let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rel.len);
        for row in 0..rel.len {
            let mut keys = Vec::with_capacity(core.order_keys.len());
            for k in &core.order_keys {
                keys.push(match k {
                    COrderKey::Projected(idx) => projected_pos_value(core, rel, row, *idx, cx)?,
                    COrderKey::Expr(e) => {
                        ceval(cx, &RelRow { rel, row }, &[], e)?
                    }
                });
            }
            keyed.push((keys, row));
        }
        crate::exec::sort_keyed(&mut keyed, &core.order_desc);
        let mut ids: Vec<usize> = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(limit) = core.limit {
            ids = crate::exec::apply_limit(ids, limit);
        }
        let mut rows = Vec::with_capacity(ids.len());
        for row in ids {
            rows.push(project(row)?);
        }
        return Ok(ResultSet {
            columns: core.columns.clone(),
            rows,
            ordered: true,
            work: 0,
        });
    }

    let mut ids: Vec<usize> = (0..rel.len).collect();
    if let Some(limit) = core.limit {
        ids = crate::exec::apply_limit(ids, limit);
    }
    let mut rows = Vec::with_capacity(ids.len());
    for row in ids {
        rows.push(project(row)?);
    }
    Ok(ResultSet { columns: core.columns.clone(), rows, ordered: false, work: 0 })
}

fn order_keys_for(
    core: &CompiledCore,
    rel: &Rel<'_>,
    row: usize,
    projected: &[Value],
    cx: &Exec<'_>,
) -> ExecResult<Vec<Value>> {
    let mut keys = Vec::with_capacity(core.order_keys.len());
    for k in &core.order_keys {
        keys.push(match k {
            COrderKey::Projected(idx) => projected[*idx].clone(),
            COrderKey::Expr(e) => ceval(cx, &RelRow { rel, row }, &[], e)?,
        });
    }
    Ok(keys)
}

/// Value at flattened projected position `idx` without materializing the
/// whole projected row (alias order keys resolve against the projected row
/// in the interpreter; this reproduces that lookup cell-by-cell).
fn projected_pos_value(
    core: &CompiledCore,
    rel: &Rel<'_>,
    row: usize,
    idx: usize,
    cx: &Exec<'_>,
) -> ExecResult<Value> {
    let mut acc = 0usize;
    for item in &core.items {
        match item {
            CItem::Range(s, e) => {
                let w = e - s;
                if idx < acc + w {
                    return Ok(rel.cell(row, s + (idx - acc)));
                }
                acc += w;
            }
            CItem::Expr(e) => {
                if idx == acc {
                    return ceval(cx, &RelRow { rel, row }, &[], e);
                }
                acc += 1;
            }
        }
    }
    unreachable!("projected order-key index {idx} out of range");
}

/// DISTINCT / sort / limit tail shared with the aggregate path — identical
/// to the interpreter's ending.
fn finish(core: &CompiledCore, mut keyed: Vec<(Vec<Value>, Vec<Value>)>) -> ExecResult<ResultSet> {
    if core.distinct {
        let mut seen = HashSet::new();
        keyed.retain(|(_, row)| seen.insert(row_key_parts(row)));
    }
    if !core.order_keys.is_empty() {
        crate::exec::sort_keyed(&mut keyed, &core.order_desc);
    }
    let mut rows: Vec<Vec<Value>> = keyed.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = core.limit {
        rows = crate::exec::apply_limit(rows, limit);
    }
    Ok(ResultSet {
        columns: core.columns.clone(),
        rows,
        ordered: !core.order_keys.is_empty(),
        work: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TableBuilder;
    use crate::plan::compile;
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new("v");
        let mut people = TableBuilder::new("people")
            .column_int("id")
            .column_text("name")
            .column_int("dept")
            .column_int("score");
        for i in 0..600i64 {
            let score = if i % 7 == 0 { Value::Null } else { Value::Int(i % 97) };
            people = people.row(vec![
                Value::Int(i),
                Value::text(format!("p{i}")),
                Value::Int(i % 5),
                score,
            ]);
        }
        db.add_table(people.build()).unwrap();
        let mut depts = TableBuilder::new("depts").column_int("dno").column_text("dname");
        for d in 0..4i64 {
            depts = depts.row(vec![Value::Int(d), Value::text(format!("d{d}"))]);
        }
        db.add_table(depts.build()).unwrap();
        db
    }

    fn assert_vec_parity(sql: &str) {
        let db = db();
        let q = sqlkit::parse_query(sql).expect("parse");
        let plan = compile(&db, &q).expect("compiles");
        let vec_rs = plan.execute(&db).expect("compiled");
        let int_rs = crate::exec::execute(&db, &q).expect("interpreter");
        assert_eq!(vec_rs.columns, int_rs.columns, "{sql}");
        assert_eq!(format!("{:?}", vec_rs.rows), format!("{:?}", int_rs.rows), "{sql}");
        assert_eq!(vec_rs.work, int_rs.work, "work parity vs interpreter: {sql}");
        assert_eq!(vec_rs.ordered, int_rs.ordered);
    }

    #[test]
    fn filter_scan_parity() {
        assert_vec_parity("SELECT name FROM people WHERE score > 40");
        assert_vec_parity("SELECT name FROM people WHERE score > 40 AND id < 300");
        assert_vec_parity("SELECT name FROM people WHERE score BETWEEN 10 AND 20");
        assert_vec_parity("SELECT name FROM people WHERE score NOT BETWEEN 10 AND 90");
        assert_vec_parity("SELECT id FROM people WHERE score IS NULL");
        assert_vec_parity("SELECT id FROM people WHERE name LIKE 'p1%'");
        assert_vec_parity("SELECT id FROM people WHERE 50 < id");
        assert_vec_parity("SELECT id FROM people WHERE id % 10 = 3");
    }

    #[test]
    fn join_parity() {
        assert_vec_parity(
            "SELECT name, dname FROM people JOIN depts ON people.dept = depts.dno WHERE score > 50",
        );
        assert_vec_parity(
            "SELECT name, dname FROM people LEFT JOIN depts ON people.dept = depts.dno",
        );
        assert_vec_parity(
            "SELECT name, dname FROM people LEFT JOIN depts ON people.dept = depts.dno WHERE id < 100",
        );
        assert_vec_parity(
            "SELECT name FROM people JOIN depts ON people.dept = depts.dno WHERE dname = 'd1'",
        );
    }

    #[test]
    fn aggregate_parity() {
        assert_vec_parity("SELECT dept, COUNT(*), SUM(score) FROM people GROUP BY dept");
        assert_vec_parity(
            "SELECT dept, AVG(score) FROM people GROUP BY dept HAVING COUNT(*) > 100",
        );
        assert_vec_parity("SELECT MIN(score), MAX(score), COUNT(score) FROM people");
        assert_vec_parity("SELECT COUNT(*) FROM people WHERE score IS NULL");
        assert_vec_parity(
            "SELECT name, SUM(score) FROM people GROUP BY name ORDER BY SUM(score) DESC LIMIT 5",
        );
        assert_vec_parity("SELECT dept, COUNT(DISTINCT score) FROM people GROUP BY dept");
        assert_vec_parity("SELECT SUM(score) FROM people WHERE id > 1000");
    }

    #[test]
    fn order_and_set_parity() {
        assert_vec_parity("SELECT name, score FROM people ORDER BY score DESC, name LIMIT 7");
        assert_vec_parity("SELECT id AS x FROM people ORDER BY x DESC LIMIT 3");
        assert_vec_parity("SELECT DISTINCT dept FROM people ORDER BY dept");
        assert_vec_parity(
            "SELECT id FROM people WHERE score > 90 UNION SELECT dno FROM depts ORDER BY id",
        );
        assert_vec_parity("SELECT id FROM people WHERE id < 5 LIMIT 2");
    }

    #[test]
    fn budget_trips_identically() {
        let db = db();
        let q = sqlkit::parse_query(
            "SELECT dept, SUM(score) FROM people GROUP BY dept",
        )
        .unwrap();
        let plan = compile(&db, &q).unwrap();
        let full = plan.execute(&db).unwrap().work;
        // one unit short of the total must trip both paths with the same error
        let ve = plan.execute_with_budget(&db, full - 1).unwrap_err();
        let ie = crate::exec::execute_with_budget(&db, &q, full - 1).unwrap_err();
        assert_eq!(ve.to_string(), ie.to_string());
        // and exactly the total succeeds
        assert_eq!(plan.execute_with_budget(&db, full).unwrap().work, full);
    }

    #[test]
    fn strictness_declines_conditional_aggregates() {
        // an argful aggregate on the lazy side of AND has data-dependent
        // charges: the shape must not compile (it still runs, on the
        // interpreter)
        let db = db();
        let q = sqlkit::parse_query(
            "SELECT dept FROM people GROUP BY dept HAVING COUNT(*) > 100 AND SUM(score) > 0",
        )
        .unwrap();
        assert!(compile(&db, &q).is_none());
        let a = db.run_query(&q).unwrap();
        let b = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn zone_pruning_skips_batches() {
        // monotone ids: an equality probe touches exactly one zone; the
        // result must still be identical to the unpruned paths
        assert_vec_parity("SELECT name FROM people WHERE id = 431");
        assert_vec_parity("SELECT name FROM people WHERE id > 590");
        assert_vec_parity("SELECT COUNT(*) FROM people WHERE id <= 3");
        assert_vec_parity("SELECT name FROM people WHERE id = -1");
    }

    #[test]
    fn null_heavy_and_empty_tables() {
        let mut db = Database::new("edge");
        let mut t = TableBuilder::new("t").column_int("a").column_int("b");
        for i in 0..300i64 {
            t = t.row(vec![Value::Null, Value::Int(i)]);
        }
        db.add_table(t.build()).unwrap();
        db.add_table(TableBuilder::new("e").column_int("x").build()).unwrap();
        for sql in [
            "SELECT COUNT(a), COUNT(*), SUM(a) FROM t",
            "SELECT b FROM t WHERE a = 5",
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT SUM(x), COUNT(*) FROM e",
            "SELECT x FROM e WHERE x > 0",
        ] {
            let q = sqlkit::parse_query(sql).unwrap();
            let plan = compile(&db, &q).unwrap();
            let a = plan.execute(&db).unwrap();
            let b = crate::exec::execute(&db, &q).unwrap();
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows), "{sql}");
            assert_eq!(a.work, b.work, "{sql}");
        }
    }
}
