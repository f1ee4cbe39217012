//! The catalog scope: the one rule by which the static check
//! ([`crate::analyze`]), the canonicalizer ([`crate::equiv`]) and
//! StaticRepair (`modelzoo::repair`) resolve a name against a [`Catalog`].
//!
//! It is minidb's lookup rule (`resolve_in`, chained through the enclosing
//! queries by its `Scope::lookup`) over column lists instead of a row
//! layout: ASCII case-insensitive, a qualifier must name the binding, the
//! first binding of a level that carries the column wins, and a name that
//! no binding of a level carries — a qualified one too — is looked up in
//! the enclosing query's scope. Beside minidb's answer, [`Scope::resolve`]
//! reports two facts: how many bindings of the winning level carry the
//! column, and whether the lookup passed a binding whose columns are
//! unknown before the match. Each caller maps these facts to its own
//! question; nothing here knows which caller asked.

use crate::catalog::{Catalog, Ty};
use sqlkit::ast::{FromClause, TableRef};
use std::borrow::Cow;

/// One FROM binding: the name a qualifier matches and the columns it
/// carries. `cols` is `None` when the columns are unknown: the table is
/// missing from the catalog, or it is a derived table whose columns the
/// caller did not compute.
#[derive(Debug, Clone)]
pub struct Binding<'a> {
    /// The alias, else the table name; `None` for an unaliased derived
    /// table or a compound query's output.
    pub name: Option<Cow<'a, str>>,
    /// Ordered `(column name, type)` pairs, when known.
    pub cols: Option<Cow<'a, [(String, Ty)]>>,
}

impl<'a> Binding<'a> {
    /// Catalog table `table` bound as `name`, its columns borrowed from
    /// the catalog; unknown when there is no catalog or it lacks the table.
    pub fn table(name: impl Into<Cow<'a, str>>, table: &str, catalog: Option<&'a Catalog>) -> Self {
        let cols =
            catalog.and_then(|c| c.table(table)).map(|t| Cow::Borrowed(t.columns.as_slice()));
        Self { name: Some(name.into()), cols }
    }

    fn is_named(&self, qualifier: &str) -> bool {
        self.name.as_deref().is_some_and(|n| n.eq_ignore_ascii_case(qualifier))
    }
}

/// A FROM clause's bindings, in order: a named table's columns from the
/// catalog, a derived table's unknown.
pub fn bindings<'a>(from: Option<&FromClause>, catalog: Option<&'a Catalog>) -> Vec<Binding<'a>> {
    let binding = |t: &TableRef| match t {
        TableRef::Named { name, alias } => {
            Binding::table(alias.as_ref().unwrap_or(name).clone(), name, catalog)
        }
        TableRef::Subquery { alias, .. } => {
            Binding { name: alias.clone().map(Cow::Owned), cols: None }
        }
    };
    from.iter().flat_map(|f| f.tables()).map(binding).collect()
}

/// One level of name scope — the bindings of a FROM clause, or the ones a
/// JOIN ON sees so far — chained to the enclosing query's scope.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// This level's bindings, in FROM order.
    pub bindings: &'a [Binding<'a>],
    /// The enclosing query's scope, for correlated references.
    pub parent: Option<&'a Scope<'a>>,
}

/// Where a column resolved: scope level (0 is the innermost), binding
/// index within that level, column index within that binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColKey {
    /// Levels walked outward before the match.
    pub level: usize,
    /// The winning binding's index in its level.
    pub binding: usize,
    /// The column's index in the winning binding.
    pub column: usize,
}

/// What [`Scope::resolve`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The column resolved.
    Found {
        /// The column's type.
        ty: Ty,
        /// Where it resolved.
        key: ColKey,
        /// How many bindings of the winning level the qualifier names and
        /// that carry the column (the winner included).
        dups: usize,
        /// A binding with unknown columns was passed before the match, at
        /// this level or an inner one: it may carry the column too.
        unknown_first: bool,
    },
    /// No binding carries the column, but one with unknown columns could.
    Unknown,
    /// No binding the qualifier names carries the column, at any level.
    NotFound,
}

impl<'a> Scope<'a> {
    /// Resolve `table.column` (or bare `column`): walk the levels outward;
    /// within a level the first binding that carries the column wins.
    pub fn resolve(&self, table: Option<&str>, column: &str) -> Resolution {
        let mut unknown = false;
        let mut level = 0;
        let mut cur = Some(self);
        while let Some(scope) = cur {
            let mut found = None;
            let mut dups = 0;
            for (binding, b) in scope.bindings.iter().enumerate() {
                if table.is_some_and(|t| !b.is_named(t)) {
                    continue;
                }
                let Some(cols) = &b.cols else {
                    unknown = true;
                    continue;
                };
                let Some(ci) = cols.iter().position(|(c, _)| c.eq_ignore_ascii_case(column)) else {
                    continue;
                };
                let key = ColKey { level, binding, column: ci };
                found = found.or(Some((cols[ci].1, key, unknown)));
                dups += 1;
            }
            if let Some((ty, key, unknown_first)) = found {
                return Resolution::Found { ty, key, dups, unknown_first };
            }
            level += 1;
            cur = scope.parent;
        }
        if unknown {
            Resolution::Unknown
        } else {
            Resolution::NotFound
        }
    }

    /// The first binding of this level that `qualifier` names — what a
    /// `t.*` item expands; enclosing levels are not consulted.
    pub fn binding(&self, qualifier: &str) -> Option<&'a Binding<'a>> {
        self.bindings.iter().find(|b| b.is_named(qualifier))
    }

    /// The binding a resolved column's key points at.
    pub fn binding_at(&self, key: ColKey) -> Option<&'a Binding<'a>> {
        let mut scope = self;
        for _ in 0..key.level {
            scope = scope.parent?;
        }
        scope.bindings.get(key.binding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("t", vec![("id", Ty::Num), ("code", Ty::Text)]);
        c.add_table("u", vec![("tid", Ty::Num), ("code", Ty::Num), ("node", Ty::Text)]);
        c
    }

    fn bind<'a>(cat: &'a Catalog, name: &'a str, table: &str) -> Binding<'a> {
        Binding::table(name, table, Some(cat))
    }

    fn derived(name: &str) -> Binding<'_> {
        Binding { name: Some(name.into()), cols: None }
    }

    /// `Found` at `[level, binding, column]`.
    fn found(ty: Ty, at: [usize; 3], dups: usize, unknown_first: bool) -> Resolution {
        let [level, binding, column] = at;
        Resolution::Found { ty, key: ColKey { level, binding, column }, dups, unknown_first }
    }

    #[test]
    fn the_first_match_of_a_level_wins_and_dups_count_the_carriers() {
        let cat = cat();
        let level = [bind(&cat, "t", "t"), bind(&cat, "u", "u")];
        let scope = Scope { bindings: &level, parent: None };
        assert_eq!(scope.resolve(None, "CODE"), found(Ty::Text, [0, 0, 1], 2, false));
        assert_eq!(scope.resolve(None, "node"), found(Ty::Text, [0, 1, 2], 1, false));
        // a qualifier counts only the bindings it names
        assert_eq!(scope.resolve(Some("U"), "code"), found(Ty::Num, [0, 1, 1], 1, false));
        assert_eq!(scope.resolve(None, "nothing"), Resolution::NotFound);
        // the same table under two aliases carries every column twice
        let twice = [bind(&cat, "a", "u"), bind(&cat, "b", "u")];
        let scope = Scope { bindings: &twice, parent: None };
        assert!(matches!(scope.resolve(None, "tid"), Resolution::Found { dups: 2, .. }));
        assert!(matches!(scope.resolve(Some("b"), "tid"), Resolution::Found { dups: 1, .. }));
    }

    #[test]
    fn lookups_walk_the_parent_chain() {
        let cat = cat();
        let outer = [bind(&cat, "t", "t")];
        let outer = Scope { bindings: &outer, parent: None };
        let inner = [bind(&cat, "u", "u")];
        let inner = Scope { bindings: &inner, parent: Some(&outer) };
        assert_eq!(inner.resolve(None, "id"), found(Ty::Num, [1, 0, 0], 1, false));
        assert_eq!(inner.resolve(Some("t"), "id"), found(Ty::Num, [1, 0, 0], 1, false));
        // the innermost carrier shadows an outer one
        assert_eq!(inner.resolve(None, "code"), found(Ty::Num, [0, 0, 1], 1, false));
        assert_eq!(
            inner
                .binding_at(ColKey { level: 1, binding: 0, column: 0 })
                .and_then(|b| b.name.as_deref()),
            Some("t")
        );
        assert!(inner.binding_at(ColKey { level: 2, binding: 0, column: 0 }).is_none());
        // `t.*` sees this level only
        assert!(inner.binding("t").is_none());
        assert_eq!(outer.binding("T").and_then(|b| b.name.as_deref()), Some("t"));
    }

    #[test]
    fn a_qualified_miss_falls_outward() {
        let cat = cat();
        let outer = [bind(&cat, "x", "t")];
        let outer = Scope { bindings: &outer, parent: None };
        // `x` names a binding at both levels; only the outer one has `id`
        let inner = [bind(&cat, "x", "u")];
        let inner = Scope { bindings: &inner, parent: Some(&outer) };
        assert_eq!(inner.resolve(Some("x"), "id"), found(Ty::Num, [1, 0, 0], 1, false));
        assert_eq!(inner.resolve(Some("x"), "nothing"), Resolution::NotFound);
        // and within a level, past a same-named binding without the column
        let dup = [bind(&cat, "x", "t"), bind(&cat, "x", "u")];
        let scope = Scope { bindings: &dup, parent: None };
        assert_eq!(scope.resolve(Some("x"), "node"), found(Ty::Text, [0, 1, 2], 1, false));
    }

    #[test]
    fn unknown_bindings_qualified_and_unqualified() {
        let cat = cat();
        let level = [bind(&cat, "m", "missing"), bind(&cat, "t", "t"), derived("d")];
        let scope = Scope { bindings: &level, parent: None };
        // unqualified: the unknown binding came first and may carry it
        assert_eq!(scope.resolve(None, "id"), found(Ty::Num, [0, 1, 0], 1, true));
        assert_eq!(scope.resolve(None, "nothing"), Resolution::Unknown);
        // qualified: only the bindings the qualifier names are consulted
        assert_eq!(scope.resolve(Some("t"), "id"), found(Ty::Num, [0, 1, 0], 1, false));
        assert_eq!(scope.resolve(Some("m"), "id"), Resolution::Unknown);
        assert_eq!(scope.resolve(Some("d"), "x"), Resolution::Unknown);
        assert_eq!(scope.resolve(Some("nope"), "id"), Resolution::NotFound);
        // one unknown after the match does not taint it
        let after = [bind(&cat, "t", "t"), derived("d")];
        let scope = Scope { bindings: &after, parent: None };
        assert_eq!(scope.resolve(None, "id"), found(Ty::Num, [0, 0, 0], 1, false));
        // an unknown inner level taints a match further out
        let inner = [derived("d")];
        let inner = Scope { bindings: &inner, parent: Some(&scope) };
        assert_eq!(inner.resolve(None, "id"), found(Ty::Num, [1, 0, 0], 1, true));
        // no catalog: every table's columns are unknown
        let blind = [Binding::table("t", "t", None)];
        let scope = Scope { bindings: &blind, parent: None };
        assert_eq!(scope.resolve(None, "id"), Resolution::Unknown);
    }

    #[test]
    fn an_on_sees_only_the_bindings_joined_so_far() {
        // `FROM t JOIN u ON <here> JOIN ...`: the caller hands the ON the
        // prefix of its level
        let cat = cat();
        let level = [bind(&cat, "t", "t"), bind(&cat, "u", "u"), bind(&cat, "v", "u")];
        let on = Scope { bindings: &level[..2], parent: None };
        assert_eq!(on.resolve(None, "node"), found(Ty::Text, [0, 1, 2], 1, false));
        assert_eq!(on.resolve(Some("v"), "node"), Resolution::NotFound);
        let whole = Scope { bindings: &level, parent: None };
        assert!(matches!(whole.resolve(Some("v"), "node"), Resolution::Found { .. }));
        assert!(matches!(whole.resolve(None, "node"), Resolution::Found { dups: 2, .. }));
    }
}
