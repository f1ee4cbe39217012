//! Distributed serve: one scheduler process routing NL2SQL requests to N
//! worker processes over loopback TCP.
//!
//! The in-process [`serve`] service answers `(method, db_id, question)`
//! requests from one process. This crate scales that engine across
//! processes without changing a single outcome:
//!
//! * **`serve-scheduler`** accepts client [`Submit`] frames, shards each
//!   request by `(db_id, question)` on a consistent-hash [`ring`] so every
//!   worker owns a stable slice of the key space (and therefore its own
//!   hot execution-cache set), and forwards over the framed protocol in
//!   [`serve::proto`]. It tracks worker heartbeats and runs a reaper that
//!   evicts silent workers and requeues their queued + in-flight work with
//!   bounded retries.
//! * **`serve-worker`** wraps the unmodified in-process engine
//!   ([`serve::Service`]): it registers with the scheduler, serves
//!   [`Execute`] frames by calling the same `ServiceHandle::query` an
//!   in-process caller would, and forwards its `/readyz` admission state
//!   (with the failure reason) in every heartbeat.
//!
//! The correctness pin this crate is built around: **outcomes are
//! byte-identical between 1 process and N processes**, including after a
//! worker is SIGKILLed mid-run — requeued work is answered exactly once.
//! That holds because translation and execution are deterministic per
//! `(method, db_id, question)` (see `serve`'s determinism notes), so
//! re-executing a requeued request on a different worker reproduces the
//! original reply field-for-field; the scheduler only has to guarantee
//! exactly-once *reply* delivery, which it does structurally by keeping
//! every in-flight job in an owned slot that exactly one thread — the
//! forwarder on success, the evictor on failure — can take.
//!
//! The shard key hashes the *question*, not the predicted SQL (the
//! scheduler never translates), but deterministic translation makes the
//! question a faithful proxy: same question ⇒ same SQL ⇒ same cache
//! entries, so each worker's cache still sees a disjoint hot set.
//!
//! [`Submit`]: serve::proto::Message::Submit
//! [`Execute`]: serve::proto::Message::Execute

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod admin;
pub mod ring;
pub mod scheduler;
pub mod worker;

pub use ring::Ring;
pub use scheduler::{Scheduler, SchedulerConfig, SchedulerHandle, WorkerSnapshot};
pub use worker::{Worker, WorkerConfig, WorkerRuntime};
