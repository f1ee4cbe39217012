//! # modelzoo
//!
//! The simulated NL2SQL method zoo of the NL2SQL360 reproduction: every
//! method from the paper's Table 1 taxonomy, implemented as a modular
//! pipeline (schema linking, DB-content matching, few-shot selection,
//! prompting, post-processing) around a **calibrated stochastic SQL
//! generator**.
//!
//! The neural translation step of the original systems cannot run offline;
//! see `translator` for the precise simulation boundary. Everything else —
//! prompt construction and token accounting, the restyling that separates
//! EX from EM, the error-palette corruption, SFT learning curves, API
//! pricing and serving models — is real, deterministic code.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod catalog;
pub mod corruption;
pub mod dbprofile;
pub mod economy;
pub mod modules;
pub mod profiles;
pub mod prompt;
pub mod registry;
pub mod repair;
pub mod restyle;
pub mod sft;
pub mod taxonomy;
pub mod translator;

pub use catalog::{table1_rows, TaxonomyRow};
pub use economy::{count_tokens, ApiPricing, LocalServing};
pub use profiles::{CapabilityProfile, DatasetKind, SampleTraits};
pub use registry::{all_methods, leaderboard_timeline, method_by_name, MethodSpec, Serving};
pub use dbprofile::DbProfile;
pub use repair::static_repair;
pub use taxonomy::{
    Decoding, FewShot, Intermediate, MethodClass, ModuleSet, MultiStep, PostProcessing,
};
pub use translator::{zoo, Nl2SqlModel, Prediction, SimulatedModel, TranslationTask};
