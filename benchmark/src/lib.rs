//! The repo benchmark: six named workloads timed from outside, through the
//! crates' public functions. See `README.md` beside this crate for what
//! each workload and metric is for.

pub mod layers;
pub mod load;
pub mod machine;
pub mod report;
pub mod seeded;
pub mod setup;
pub mod stages;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
