//! # nl2sql360
//!
//! The core of the reproduction: a multi-angle NL2SQL evaluation framework
//! after *"The Dawn of Natural Language to SQL: Are We Fully Ready?"*
//! (VLDB 2024).
//!
//! Components (paper Figure 4):
//!
//! * **Datasets repository** — synthetic Spider-like / BIRD-like corpora
//!   from the `datagen` crate;
//! * **Model zoo** — the simulated methods of the `modelzoo` crate;
//! * **Dataset filter** — [`filter::Filter`], slicing by SQL complexity,
//!   SQL characteristics, data domain, and NL-variant availability;
//! * **Metrics** — [`metrics`]: EX, EM, QVT (Eq. 1), VES, token/cost
//!   economy, latency;
//! * **Executor & logs** — [`executor::EvalContext`] and
//!   [`logs::LogStore`];
//! * **Evaluator** — [`evaluator`]: parallel runs and leaderboards;
//! * **Design-space search** — [`aas`]: the NL2SQL360-AAS genetic
//!   algorithm over the Figure-13 space, with [`pipeline::compose`] turning
//!   module combinations into runnable pipelines (SuperSQL is the shipped
//!   winner).
//!
//! ```
//! use datagen::{generate_corpus, CorpusConfig, CorpusKind};
//! use modelzoo::{method_by_name, SimulatedModel};
//! use nl2sql360::{EvalContext, EvalOptions, Filter, metrics};
//!
//! let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(1));
//! let ctx = EvalContext::new(&corpus);
//! let model = SimulatedModel::new(method_by_name("SuperSQL").unwrap());
//! let log = ctx.evaluate_with(&model, &EvalOptions::new()).unwrap();
//! let overall_ex = metrics::ex(&log, &Filter::all()).unwrap();
//! assert!(overall_ex > 50.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aas;
pub mod diagnose;
pub mod evaluator;
pub mod extensions;
pub mod executor;
pub mod filter;
pub mod logs;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod store;

pub use aas::{search, search_with_workers, AasConfig, AasResult};
pub use diagnose::{
    diagnose as diagnose_queries, em_ex_disagreement, error_profile, exec_failure_profile,
    static_failure_profile, EmExDisagreement, Mismatch,
};
pub use extensions::{adaptive_plan, evaluate_with_rewriter, DomainDeficit};
pub use evaluator::{
    evaluate_all, evaluate_all_with_workers, leaderboard, render_accuracy_leaderboard,
    LeaderboardRow,
};
pub use executor::{
    default_workers, EvalContext, EvalLog, EvalOptions, ExecFailureKind, MatchKind, SampleRecord,
    StaticVerdict, VariantRecord,
};
pub use filter::{CountBucket, Filter};
pub use logs::LogStore;
pub use pipeline::{compose, gpt35, gpt4, Backbone};
pub use report::{fmt_opt, fmt_pct, render_series, TextTable};
pub use store::{EvalStore, TraceSpanRow};
