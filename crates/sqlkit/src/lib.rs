//! # sqlkit
//!
//! SQL front-end substrate for the NL2SQL360 reproduction: a lexer, a
//! recursive-descent parser producing a typed AST, a pretty-printer, a
//! normalizer, SQL *feature extraction* (JOIN / subquery / logical-connector
//! / ORDER BY counts and more), the Spider hardness classifier, the
//! Spider-style *exact-match* (EM) component comparison, and an AST mutation
//! library used by the simulated model zoo to produce realistic wrong
//! predictions.
//!
//! The dialect covers the SELECT subset used by the Spider and BIRD
//! benchmarks: joins, grouping, HAVING, ORDER BY/LIMIT, set operations,
//! scalar / IN / EXISTS subqueries, CASE/IIF, and the common scalar and
//! aggregate functions.
//!
//! ```
//! use sqlkit::{parse_query, features::SqlFeatures, hardness::Hardness};
//!
//! let q = parse_query("SELECT name FROM singer WHERE age > 30 ORDER BY name").unwrap();
//! let f = SqlFeatures::of(&q);
//! assert_eq!(f.order_by_count, 1);
//! assert_eq!(Hardness::classify(&q), Hardness::Medium);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod error;
pub mod exact_match;
pub mod features;
pub mod hardness;
pub mod lexer;
pub mod mutate;
pub mod normalize;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::Query;
pub use error::{Error, ErrorKind, Result};
pub use exact_match::exact_match;
pub use features::SqlFeatures;
pub use hardness::Hardness;
pub use parser::{parse_query, MAX_NESTING};
pub use printer::to_sql;
