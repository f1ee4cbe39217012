//! Static SQL semantic analysis against a schema catalog.
//!
//! `sqlcheck` walks a `sqlkit` AST with a binder (scope stack following
//! minidb's case-insensitive, first-match, parent-chained name resolution),
//! a type checker over a small `Num`/`Text` lattice, and a set of rule
//! visitors, producing [`Diagnostic`]s from a stable [`Rule`] registry.
//! What can be *called* rather than mirrored is minidb's own: the scalar
//! function table and arity rule the analyzer lints against, and the
//! evaluation of literal-only nodes that [`equiv`]'s constant folding
//! needs (`minidb::eval::{known_function, check_function_arity,
//! eval_rowless}`).
//!
//! # Severity policy
//!
//! - [`Severity::Error`]: the construct raises a minidb binding/type error.
//!   The name rules (unknown table/column) hold **always**: minidb binds
//!   every name of a statement before it reads a row, so the statement
//!   fails with that name whatever the tables hold. The rest (function
//!   arity, unknown function, aggregate misuse, set-operation / subquery
//!   column arity, `SELECT *` without FROM) hold whenever the construct is
//!   evaluated. A query with no Error diagnostics is *clean*.
//! - [`Severity::Warning`]: advisory findings the executor tolerates by
//!   coercion or first-match resolution (ambiguous unqualified columns,
//!   type mismatches, non-grouped columns under GROUP BY, tautological or
//!   unsatisfiable predicates).
//!
//! # Differential parity
//!
//! The split is pinned differentially against minidb (see
//! `tests/differential.rs`): a clean query never raises a minidb
//! binding/type error, every minidb binding error is flagged by at
//! least one Error-severity rule, and a name Error ⇔ minidb refuses the
//! statement with that name — on normal, NULL-dense and emptied content.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod catalog;
pub mod equiv;

mod analyze;

pub use analyze::{analyze, analyze_sql};
pub use catalog::{Catalog, CatalogTable, Ty};

use serde::{Deserialize, Serialize};

/// How bad a finding is. `Error` means "minidb will refuse this" — always
/// for a name that does not bind, whenever it evaluates the construct for
/// the rest; `Warning` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: executes, but almost certainly not what was meant.
    Warning,
    /// Statically certain runtime failure.
    Error,
}

impl Severity {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A byte range in the original SQL text. Spans are synthesized by
/// [`analyze_sql`] from the offending identifier (the `sqlkit` AST carries
/// no source locations); AST-level [`analyze`] leaves them `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// The stable rule registry. Rule ids are part of the public surface: they
/// key serve's per-rule `/metrics` counters, the evaluator's
/// `static_verdict` records, and the CLI's per-rule table — never renumber
/// or rename them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rule {
    /// FROM or qualified wildcard names a table the catalog does not have.
    UnknownTable,
    /// A column reference resolves in no visible scope.
    UnknownColumn,
    /// An unqualified column resolves in two or more FROM bindings.
    AmbiguousColumn,
    /// Comparison/arithmetic/function argument over incompatible types.
    TypeMismatch,
    /// A known scalar function called with the wrong argument count.
    FunctionArity,
    /// A scalar function the executor does not implement.
    UnknownFunction,
    /// Aggregate where none may appear (WHERE, JOIN ON, GROUP BY keys,
    /// compound ORDER BY) or nested inside another aggregate.
    AggregateMisuse,
    /// Under GROUP BY, a selected/ordered column outside every group key.
    UngroupedColumn,
    /// Set-operation arms project different column counts.
    SetOpArity,
    /// IN/scalar subquery projecting more or fewer than one column.
    SubqueryArity,
    /// A predicate that can never be true (`x = 1 AND x = 2`, `x = NULL`).
    UnsatisfiablePredicate,
    /// A predicate that is always true (`1 = 1`).
    TautologicalPredicate,
    /// `SELECT *` with no FROM clause.
    StarWithoutFrom,
}

impl Rule {
    /// Every rule, in registry order.
    pub const ALL: [Rule; 13] = [
        Rule::UnknownTable,
        Rule::UnknownColumn,
        Rule::AmbiguousColumn,
        Rule::TypeMismatch,
        Rule::FunctionArity,
        Rule::UnknownFunction,
        Rule::AggregateMisuse,
        Rule::UngroupedColumn,
        Rule::SetOpArity,
        Rule::SubqueryArity,
        Rule::UnsatisfiablePredicate,
        Rule::TautologicalPredicate,
        Rule::StarWithoutFrom,
    ];

    /// Stable string id (kebab-case).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnknownTable => "unknown-table",
            Rule::UnknownColumn => "unknown-column",
            Rule::AmbiguousColumn => "ambiguous-column",
            Rule::TypeMismatch => "type-mismatch",
            Rule::FunctionArity => "function-arity",
            Rule::UnknownFunction => "unknown-function",
            Rule::AggregateMisuse => "aggregate-misuse",
            Rule::UngroupedColumn => "ungrouped-column",
            Rule::SetOpArity => "setop-arity",
            Rule::SubqueryArity => "subquery-arity",
            Rule::UnsatisfiablePredicate => "unsatisfiable-predicate",
            Rule::TautologicalPredicate => "tautological-predicate",
            Rule::StarWithoutFrom => "star-without-from",
        }
    }

    /// The rule with a given id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// Severity every diagnostic of this rule carries (see the severity
    /// policy in the crate docs).
    pub fn severity(self) -> Severity {
        match self {
            Rule::UnknownTable
            | Rule::UnknownColumn
            | Rule::FunctionArity
            | Rule::UnknownFunction
            | Rule::AggregateMisuse
            | Rule::SetOpArity
            | Rule::SubqueryArity
            | Rule::StarWithoutFrom => Severity::Error,
            Rule::AmbiguousColumn
            | Rule::TypeMismatch
            | Rule::UngroupedColumn
            | Rule::UnsatisfiablePredicate
            | Rule::TautologicalPredicate => Severity::Warning,
        }
    }

    /// One-line description for the CLI table.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::UnknownTable => "table does not exist in the schema",
            Rule::UnknownColumn => "column resolves in no visible scope",
            Rule::AmbiguousColumn => "unqualified column matches several tables",
            Rule::TypeMismatch => "operands of incompatible types",
            Rule::FunctionArity => "wrong number of function arguments",
            Rule::UnknownFunction => "function not implemented by the executor",
            Rule::AggregateMisuse => "aggregate in a forbidden position",
            Rule::UngroupedColumn => "non-grouped column under GROUP BY",
            Rule::SetOpArity => "set-operation arms differ in column count",
            Rule::SubqueryArity => "IN/scalar subquery must project one column",
            Rule::UnsatisfiablePredicate => "predicate can never be true",
            Rule::TautologicalPredicate => "predicate is always true",
            Rule::StarWithoutFrom => "SELECT * without a FROM clause",
        }
    }
}

/// One finding: a rule instance at an (optionally located) place in the
/// query, with the offending identifier when the rule names one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Severity (always `rule.severity()`).
    pub severity: Severity,
    /// Byte span of the offending identifier in the SQL text, when the
    /// diagnostic came from [`analyze_sql`] and the identifier was found.
    pub span: Option<Span>,
    /// The offending table/column/function name, when the rule names one.
    /// Matches `minidb::ExecError::offending_name()` for the differential
    /// suite.
    pub ident: Option<String>,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic for a rule; severity comes from the registry.
    pub fn new(rule: Rule, ident: Option<String>, message: impl Into<String>) -> Self {
        Self { rule, severity: rule.severity(), span: None, ident, message: message.into() }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.label(), self.rule.id(), self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {}..{})", span.start, span.end)?;
        }
        Ok(())
    }
}

/// Does this diagnostic set make the query *clean* (no Error-severity
/// findings)? Clean queries are guaranteed to never raise a minidb
/// binding/type error.
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn diagnostic_serde_round_trip() {
        let d = Diagnostic {
            rule: Rule::UnknownColumn,
            severity: Severity::Error,
            span: Some(Span { start: 7, end: 12 }),
            ident: Some("t.bogus".into()),
            message: "unknown column `t.bogus`".into(),
        };
        let json = serde_json::to_string(&d).expect("serialize");
        let back: Diagnostic = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, d);
    }

    #[test]
    fn clean_means_no_errors() {
        let warn = Diagnostic::new(Rule::TautologicalPredicate, None, "1 = 1");
        let err = Diagnostic::new(Rule::UnknownTable, Some("nope".into()), "unknown");
        assert!(is_clean(std::slice::from_ref(&warn)));
        assert!(!is_clean(&[warn, err]));
    }
}
