//! # minidb
//!
//! A small in-memory relational engine that executes the `sqlkit` SELECT
//! dialect: inner/left/right/cross joins, WHERE, GROUP BY + aggregates,
//! HAVING, ORDER BY / LIMIT, DISTINCT, set operations, and correlated
//! IN / EXISTS / scalar subqueries.
//!
//! It is the SQLite substitute backing the Execution Accuracy (EX) and Valid
//! Efficiency Score (VES) metrics of the NL2SQL360 reproduction: EX compares
//! result multisets of gold vs. predicted SQL, VES compares execution cost.
//! Alongside wall-clock timing the executor maintains a deterministic
//! *work-unit* counter (rows touched) so efficiency experiments are
//! reproducible on any machine.
//!
//! ```
//! use minidb::{Database, TableBuilder, Value};
//!
//! let mut db = Database::new("demo");
//! db.add_table(
//!     TableBuilder::new("singer")
//!         .column_int("id").column_text("name").column_int("age")
//!         .primary_key(&["id"])
//!         .row(vec![Value::Int(1), Value::text("Ann"), Value::Int(30)])
//!         .row(vec![Value::Int(2), Value::text("Bo"), Value::Int(20)])
//!         .build(),
//! ).unwrap();
//! let rs = db.run("SELECT name FROM singer WHERE age > 25").unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::text("Ann")]]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod bind;
pub mod column;
pub mod database;
pub mod error;
pub mod eval;
pub mod exec;
pub mod plan;
pub mod result;
pub mod schema;
pub mod value;
mod vector;

pub use column::{Column, ColumnData, Validity};
pub use database::{Database, Table, TableBuilder};
pub use error::{ExecError, ExecResult};
pub use plan::{compile, CompiledQuery};
pub use result::{results_equivalent, ResultSet};
pub use schema::{ColumnDef, ColumnType, ForeignKey, TableSchema};
pub use value::{KeyPart, Value};
