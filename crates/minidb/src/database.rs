//! Database catalog and storage.
//!
//! Tables are stored **columnar**: one typed [`Column`] per schema column
//! (see [`crate::column`]). Row-oriented callers go through the row-view
//! shim (`row(i)` / `to_rows()`); the vectorized executor reads the typed
//! vectors directly. Ingest (`add_table` / `insert` / [`TableBuilder`])
//! validates row arity *and* value affinity against the schema, so a typed
//! column vector can never be poisoned by a mixed-type cell sneaking in.

use crate::column::Column;
use crate::error::{ExecError, ExecResult};
use crate::result::ResultSet;
use crate::schema::{ColumnDef, ColumnType, ForeignKey, TableSchema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One stored table: schema plus columnar row data.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table schema.
    pub schema: TableSchema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Build a table from row-major data, validating every cell: each row
    /// must have exactly `schema.columns.len()` values, and each value must
    /// be storable under its column's affinity ([`ColumnType::accepts`]).
    pub fn from_rows(schema: TableSchema, rows: Vec<Vec<Value>>) -> ExecResult<Self> {
        for (i, row) in rows.iter().enumerate() {
            validate_row(&schema, row).map_err(|e| at_row(&schema.name, i, e))?;
        }
        let n_rows = rows.len();
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(c, def)| {
                let cells: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                Column::from_values(def.ty, &cells)
            })
            .collect();
        Ok(Table { schema, columns, n_rows })
    }

    /// Number of stored rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// One stored column.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Materialize row `i` (row-view shim).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Materialize the whole table row-major (row-view shim; what the
    /// interpreter scans, equivalent to the old `rows.clone()`).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows).map(|i| self.row(i)).collect()
    }

    /// Append validated rows. All rows are checked before any is stored, so
    /// a failed append leaves the table unchanged.
    pub fn push_rows(&mut self, rows: Vec<Vec<Value>>) -> ExecResult<()> {
        for row in &rows {
            validate_row(&self.schema, row)?;
        }
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                self.columns[c].push(v);
            }
            self.n_rows += 1;
        }
        Ok(())
    }
}

fn validate_row(schema: &TableSchema, row: &[Value]) -> ExecResult<()> {
    let width = schema.columns.len();
    if row.len() != width {
        return Err(ExecError::Arity(format!(
            "row has {} values, schema has {} columns",
            row.len(),
            width
        )));
    }
    for (def, v) in schema.columns.iter().zip(row) {
        if !def.ty.accepts(v) {
            return Err(ExecError::Type(format!(
                "column {} is {}, got {} value",
                def.name,
                def.ty.sql_name(),
                v.type_name()
            )));
        }
    }
    Ok(())
}

fn at_row(table: &str, i: usize, e: ExecError) -> ExecError {
    match e {
        ExecError::Arity(m) => ExecError::Arity(format!("table {table} row {i}: {m}")),
        ExecError::Type(m) => ExecError::Type(format!("table {table} row {i}: {m}")),
        other => other,
    }
}

// Serde keeps the row-major wire shape: the columnar layout is an in-memory
// execution detail, and row-major stays readable and stable for any stored
// snapshots.
impl Serialize for Table {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("schema".to_string(), self.schema.serialize()),
            ("rows".to_string(), self.to_rows().serialize()),
        ])
    }
}

impl Deserialize for Table {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let schema = TableSchema::deserialize(
            v.get("schema").ok_or_else(|| serde::Error::msg("Table: missing schema"))?,
        )?;
        let rows = Vec::<Vec<Value>>::deserialize(
            v.get("rows").ok_or_else(|| serde::Error::msg("Table: missing rows"))?,
        )?;
        // re-validates on the way in: a snapshot can't smuggle mixed-type
        // cells past the columnar affinity check
        Table::from_rows(schema, rows).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// An in-memory database: a named collection of tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), tables: BTreeMap::new() }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register a table — either an already-columnar [`Table`] or a
    /// [`PendingTable`] fresh off a [`TableBuilder`]. Fails on duplicate
    /// names or on builder rows with bad arity or a type/affinity mismatch.
    pub fn add_table(&mut self, table: impl IntoTable) -> ExecResult<()> {
        let table = table.into_table()?;
        let key = table.schema.name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(ExecError::DuplicateTable(table.schema.name.clone()));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> ExecResult<&Table> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| ExecError::UnknownTable(name.to_string()))
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Append rows to an existing table. Every row is validated (arity and
    /// value affinity) before any row is stored.
    pub fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> ExecResult<()> {
        let t = self
            .tables
            .get_mut(&table.to_lowercase())
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        t.push_rows(rows).map_err(|e| match e {
            ExecError::Arity(m) => ExecError::Arity(format!("insert into {table}: {m}")),
            ExecError::Type(m) => ExecError::Type(format!("insert into {table}: {m}")),
            other => other,
        })
    }

    /// Parse and execute a SELECT statement.
    pub fn run(&self, sql: &str) -> ExecResult<ResultSet> {
        let query = sqlkit::parse_query(sql)?;
        self.run_query(&query)
    }

    /// Execute an already-parsed query: the compiled-plan fast path when the
    /// query lowers, the AST interpreter otherwise. Results and deterministic
    /// work units are identical either way (property-tested).
    pub fn run_query(&self, query: &sqlkit::Query) -> ExecResult<ResultSet> {
        match crate::plan::compile(self, query) {
            Some(plan) => {
                obs::count("minidb.dispatch.compiled", 1);
                plan.execute(self)
            }
            None => {
                obs::count("minidb.dispatch.interpreter", 1);
                crate::exec::execute(self, query)
            }
        }
    }

    /// All `CREATE TABLE` statements, for prompt construction.
    pub fn schema_sql(&self) -> String {
        let mut out = String::new();
        for t in self.tables.values() {
            out.push_str(&t.schema.create_table_sql());
            out.push_str("\n\n");
        }
        out
    }
}

/// Output of [`TableBuilder::build`]: schema + rows awaiting validation.
/// Validation happens in [`Database::add_table`] (or [`PendingTable::validate`])
/// so builder misuse surfaces as an `Err`, not a panic.
#[derive(Debug)]
pub struct PendingTable {
    schema: TableSchema,
    rows: Vec<Vec<Value>>,
}

impl PendingTable {
    /// Validate arity and affinity of every row, producing columnar storage.
    pub fn validate(self) -> ExecResult<Table> {
        Table::from_rows(self.schema, self.rows)
    }
}

/// Anything [`Database::add_table`] can ingest.
pub trait IntoTable {
    /// Produce a validated columnar table.
    fn into_table(self) -> ExecResult<Table>;
}

impl IntoTable for Table {
    fn into_table(self) -> ExecResult<Table> {
        Ok(self)
    }
}

impl IntoTable for PendingTable {
    fn into_table(self) -> ExecResult<Table> {
        self.validate()
    }
}

/// Fluent builder for tables, used heavily by tests and the data generator.
#[derive(Debug)]
pub struct TableBuilder {
    schema: TableSchema,
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    /// Start building a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { schema: TableSchema::new(name, Vec::new()), rows: Vec::new() }
    }

    /// Add an INTEGER column.
    pub fn column_int(mut self, name: impl Into<String>) -> Self {
        self.schema.columns.push(ColumnDef::new(name, ColumnType::Integer));
        self
    }

    /// Add a REAL column.
    pub fn column_real(mut self, name: impl Into<String>) -> Self {
        self.schema.columns.push(ColumnDef::new(name, ColumnType::Real));
        self
    }

    /// Add a TEXT column.
    pub fn column_text(mut self, name: impl Into<String>) -> Self {
        self.schema.columns.push(ColumnDef::new(name, ColumnType::Text));
        self
    }

    /// Declare the primary key by column names (unknown names are ignored).
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.schema.primary_key =
            names.iter().filter_map(|n| self.schema.column_index(n)).collect();
        self
    }

    /// Declare a foreign key from `column` to `ref_table.ref_column`.
    pub fn foreign_key(mut self, column: &str, ref_table: &str, ref_column: &str) -> Self {
        if let Some(idx) = self.schema.column_index(column) {
            self.schema.foreign_keys.push(ForeignKey {
                column: idx,
                ref_table: ref_table.to_string(),
                ref_column: ref_column.to_string(),
            });
        }
        self
    }

    /// Append one row.
    pub fn row(mut self, row: Vec<Value>) -> Self {
        self.rows.push(row);
        self
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Finish building. The result is validated by `Database::add_table`
    /// (or explicitly via [`PendingTable::validate`]).
    pub fn build(self) -> PendingTable {
        PendingTable { schema: self.schema, rows: self.rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Database {
        let mut db = Database::new("demo");
        db.add_table(
            TableBuilder::new("t")
                .column_int("a")
                .column_text("b")
                .row(vec![Value::Int(1), Value::text("x")])
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = demo();
        let t = TableBuilder::new("T").column_int("z").build();
        assert!(matches!(db.add_table(t), Err(ExecError::DuplicateTable(_))));
    }

    #[test]
    fn row_width_checked() {
        let mut db = Database::new("d");
        let t = TableBuilder::new("t").column_int("a").row(vec![]).build();
        assert!(matches!(db.add_table(t), Err(ExecError::Arity(_))));
    }

    #[test]
    fn value_affinity_checked_at_add_table() {
        let mut db = Database::new("d");
        let t = TableBuilder::new("t")
            .column_int("a")
            .row(vec![Value::text("not an int")])
            .build();
        let err = db.add_table(t).unwrap_err();
        assert!(matches!(&err, ExecError::Type(m) if m.contains("column a is int")), "{err}");
    }

    #[test]
    fn value_affinity_checked_at_insert() {
        let mut db = demo();
        // wrong type in column b (text): reject, and reject atomically —
        // a valid row in the same batch must not be stored either.
        let err = db
            .insert(
                "t",
                vec![vec![Value::Int(2), Value::text("ok")], vec![Value::Int(3), Value::Int(9)]],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::Type(_)), "{err}");
        assert_eq!(db.table("t").unwrap().n_rows(), 1);
        // REAL columns accept Int (SQLite affinity) but never text
        let mut db2 = Database::new("d2");
        db2.add_table(TableBuilder::new("r").column_real("x").build()).unwrap();
        db2.insert("r", vec![vec![Value::Int(7)], vec![Value::Real(1.5)], vec![Value::Null]])
            .unwrap();
        assert!(db2.insert("r", vec![vec![Value::text("nope")]]).is_err());
        assert_eq!(db2.table("r").unwrap().n_rows(), 3);
    }

    #[test]
    fn insert_appends() {
        let mut db = demo();
        db.insert("t", vec![vec![Value::Int(2), Value::text("y")]]).unwrap();
        assert_eq!(db.table("t").unwrap().n_rows(), 2);
        assert!(db.insert("t", vec![vec![Value::Int(3)]]).is_err());
        assert!(db.insert("nope", vec![]).is_err());
    }

    #[test]
    fn row_view_shim_roundtrips() {
        let mut db = demo();
        db.insert("t", vec![vec![Value::Null, Value::Null]]).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.row(0), vec![Value::Int(1), Value::text("x")]);
        assert_eq!(t.to_rows(), vec![
            vec![Value::Int(1), Value::text("x")],
            vec![Value::Null, Value::Null],
        ]);
    }

    #[test]
    fn serde_roundtrip_is_row_major() {
        let db = demo();
        let json = serde_json::to_string(&db).unwrap();
        assert!(json.contains("\"rows\""), "{json}");
        let back: Database = serde_json::from_str(&json).unwrap();
        assert_eq!(back.table("t").unwrap().to_rows(), db.table("t").unwrap().to_rows());
    }

    #[test]
    fn lookup_case_insensitive() {
        let db = demo();
        assert!(db.table("T").is_ok());
        assert!(matches!(db.table("u"), Err(ExecError::UnknownTable(_))));
    }

    #[test]
    fn schema_sql_lists_tables() {
        let db = demo();
        assert!(db.schema_sql().contains("CREATE TABLE t ("));
    }
}
