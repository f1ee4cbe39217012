//! Schema catalog: the static-analysis view of a database schema.
//!
//! A [`Catalog`] is the analyzer's answer to "what tables and columns
//! exist, and what are their types" — built either directly from a
//! [`minidb::Database`] or assembled by hand in tests. Table lookups are
//! ASCII case-insensitive, mirroring minidb's; columns resolve through
//! [`crate::scope`].

use minidb::ColumnType;
use serde::{Deserialize, Serialize};

/// The analyzer's type lattice. minidb coerces freely at runtime (text
/// becomes `0.0` in arithmetic, numbers render to text in LIKE), so the
/// analyzer only distinguishes what its advisory type rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// INTEGER or REAL affinity, plus booleans (minidb booleans are ints).
    Num,
    /// TEXT affinity.
    Text,
    /// The NULL literal.
    Null,
    /// Unknown: unresolved columns, unknown functions, poisoned scopes.
    Unknown,
}

impl Ty {
    /// Human name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Num => "numeric",
            Ty::Text => "text",
            Ty::Null => "null",
            Ty::Unknown => "unknown",
        }
    }

    /// Least upper bound of two types (for CASE/COALESCE results).
    pub fn unify(self, other: Ty) -> Ty {
        match (self, other) {
            (a, b) if a == b => a,
            (Ty::Null, b) => b,
            (a, Ty::Null) => a,
            _ => Ty::Unknown,
        }
    }
}

impl From<ColumnType> for Ty {
    fn from(ty: ColumnType) -> Ty {
        match ty {
            ColumnType::Integer | ColumnType::Real => Ty::Num,
            ColumnType::Text => Ty::Text,
        }
    }
}

/// One table visible to the analyzer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogTable {
    /// Table name as declared.
    pub name: String,
    /// Ordered `(column name, type)` pairs.
    pub columns: Vec<(String, Ty)>,
}

/// All tables of one database, the analyzer's resolution root.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<CatalogTable>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a catalog from a live minidb database.
    pub fn from_database(db: &minidb::Database) -> Self {
        let mut cat = Catalog::new();
        for table in db.tables() {
            cat.add_table(
                &table.schema.name,
                table.schema.columns.iter().map(|c| (c.name.as_str(), Ty::from(c.ty))),
            );
        }
        cat
    }

    /// Add a table from `(column name, type)` pairs.
    pub fn add_table<'a>(
        &mut self,
        name: &str,
        columns: impl IntoIterator<Item = (&'a str, Ty)>,
    ) {
        self.tables.push(CatalogTable {
            name: name.to_string(),
            columns: columns.into_iter().map(|(c, t)| (c.to_string(), t)).collect(),
        });
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&CatalogTable> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// All tables, in insertion order.
    pub fn tables(&self) -> &[CatalogTable] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut cat = Catalog::new();
        cat.add_table("Singer", vec![("Id", Ty::Num), ("Name", Ty::Text)]);
        let t = cat.table("sInGeR").expect("table resolves");
        // columns resolve through the one lookup rule, crate::scope
        let bindings = [crate::scope::Binding::table("s", &t.name, Some(&cat))];
        let scope = crate::scope::Scope { bindings: &bindings, parent: None };
        assert!(matches!(
            scope.resolve(None, "ID"),
            crate::scope::Resolution::Found { key: crate::scope::ColKey { column: 0, .. }, .. }
        ));
        assert_eq!(scope.resolve(None, "missing"), crate::scope::Resolution::NotFound);
        assert!(cat.table("other").is_none());
    }

    #[test]
    fn from_database_mirrors_schema() {
        let mut db = minidb::Database::new("d");
        db.add_table(
            minidb::database::TableBuilder::new("t")
                .column_int("a")
                .column_real("b")
                .column_text("c")
                .build(),
        )
        .expect("add table");
        let cat = Catalog::from_database(&db);
        let t = cat.table("t").expect("table");
        assert_eq!(
            t.columns,
            vec![
                ("a".to_string(), Ty::Num),
                ("b".to_string(), Ty::Num),
                ("c".to_string(), Ty::Text)
            ]
        );
    }

    #[test]
    fn unify_lattice() {
        assert_eq!(Ty::Num.unify(Ty::Num), Ty::Num);
        assert_eq!(Ty::Null.unify(Ty::Text), Ty::Text);
        assert_eq!(Ty::Num.unify(Ty::Text), Ty::Unknown);
    }
}
