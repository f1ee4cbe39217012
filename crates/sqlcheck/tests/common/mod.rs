//! Content variants shared by the execution-backed suites: the same
//! schema over NULL-dense and over emptied tables.

use minidb::{Database, Value};

/// Same schema and row count, but every non-primary-key value on a
/// deterministic stripe replaced with NULL — exercises the three-valued
/// logic paths of every rewrite.
pub fn null_dense(db: &Database) -> Database {
    let mut out = Database::new(db.name());
    for table in db.tables() {
        let schema = table.schema.clone();
        let rows: Vec<Vec<Value>> = (0..table.n_rows())
            .map(|i| {
                let mut row = table.row(i);
                for (j, v) in row.iter_mut().enumerate() {
                    if !schema.primary_key.contains(&j) && (i + j) % 2 == 0 {
                        *v = Value::Null;
                    }
                }
                row
            })
            .collect();
        let rebuilt = minidb::database::Table::from_rows(schema, rows)
            .expect("nulled rows keep the schema");
        out.add_table(rebuilt).expect("table names stay unique");
    }
    out
}

/// Same schema, zero rows everywhere — aggregates over empty input,
/// vacuous EXISTS/IN, empty join sides.
pub fn empty_content(db: &Database) -> Database {
    let mut out = Database::new(db.name());
    for table in db.tables() {
        let rebuilt = minidb::database::Table::from_rows(table.schema.clone(), Vec::new())
            .expect("empty tables are valid");
        out.add_table(rebuilt).expect("table names stay unique");
    }
    out
}
