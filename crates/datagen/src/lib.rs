//! # datagen
//!
//! Synthetic benchmark corpus generator for the NL2SQL360 reproduction.
//!
//! The original paper evaluates on the Spider and BIRD datasets, which are
//! licensed downloads with real databases. This crate generates *structural
//! stand-ins*: multi-domain schemas across the paper's 33 domains, populated
//! databases whose shape statistics target the paper's Table 2, and
//! (NL, SQL) samples spanning the Spider hardness buckets and the SQL
//! characteristics the paper filters on (subqueries, JOINs, logical
//! connectors, ORDER BY), with NL paraphrase variants for Query Variance
//! Testing. Everything is deterministic in a single seed.
//!
//! ```
//! use datagen::{generate_corpus, CorpusConfig, CorpusKind};
//!
//! let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(1));
//! assert_eq!(corpus.dev.len(), 60);
//! let s = &corpus.dev[0];
//! // every gold query executes on its database
//! corpus.db(s).database.run_query(&s.query).unwrap();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dataset;
pub mod dbgen;
pub mod domains;
pub mod nl;
pub mod perturb;
pub mod query_gen;
pub mod stats;

pub use dataset::{augment_corpus, generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
pub use dbgen::{generate_db, regenerate_content, GeneratedDb, SchemaProfile};
pub use perturb::{perturb_corpus, Perturbation};
pub use domains::{domain_by_name, DomainId, DomainSpec, DOMAINS};
pub use query_gen::{GeneratedQuery, QueryGenerator, Recipe};
pub use stats::{dataset_stats, DatasetStats, MinMaxAvg};
