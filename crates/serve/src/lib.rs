//! In-process concurrent NL2SQL query serving.
//!
//! The evaluation stack (`nl2sql360`) answers "how accurate is method M",
//! batch-style. This crate answers the *serving* question the paper's
//! system perspective raises: what does it take to run NL2SQL translation
//! as an online service with concurrency, admission control, and latency
//! SLOs? It composes the existing pieces — [`modelzoo`] translators,
//! [`minidb`] execution, [`nl2sql360::EvalContext`] gold results — behind
//! a thread-pool service:
//!
//! * **Admission control**: a bounded queue; a full queue rejects new
//!   requests with [`QueryError::Overloaded`] instead of letting latency
//!   grow without bound.
//! * **Worker pool**: N threads share one [`EvalContext`] and one model
//!   set (scoped threads — the context borrows the corpus, no `'static`
//!   gymnastics).
//! * **Micro-batching**: a worker drains up to `max_batch` queued requests
//!   for the *same method* in one round, amortizing per-method work
//!   (few-shot retrieval state, prompt scaffolding) across requests.
//! * **Result caching**: a sharded LRU over `(db_id, normalized SQL)`
//!   execution outcomes. Execution is deterministic, so caching is
//!   outcome-neutral — EX/EM cannot depend on cache state.
//! * **Deadlines**: a request can carry a deadline; workers drop requests
//!   whose deadline passed while queued ([`QueryError::DeadlineExceeded`]).
//! * **One completion record per request**: every exit of the pipeline —
//!   ok, deadline exceeded, refused, statically rejected, unknown method,
//!   unknown question, overloaded — builds one `Completion` and hands it
//!   to `Inner::complete`, the only code that records, traces and replies.
//!   Queue wait, exec time, latency and the stage spans (derived at
//!   completion from the request's stamps, each read once) add up. It
//!   feeds labeled metric families ([`obs::Registry`])
//!   keyed by method, outcome and failure kind, sliding-window
//!   QPS/error-rate/quantiles over the last 1s/10s/60s ([`window`]), and a
//!   bounded top-K slow-query log ([`slowlog`]); [`MetricsSnapshot`]
//!   (p50/p95/p99, per-kind execution-failure counts) is derived from
//!   those same cells.
//! * **Admin endpoint**: an optional loopback HTTP listener ([`http`])
//!   serving `GET /metrics` (Prometheus text exposition), `/metrics.json`,
//!   `/healthz`, `/readyz` (unready while draining or saturated), and
//!   `/slow`.
//! * **Graceful drain**: shutdown answers every queued request before
//!   workers exit; nothing is lost. Drain flips readiness *before* the
//!   queue starts refusing, so an external balancer watching `/readyz`
//!   never sees an `Overloaded` refusal from a service that still claimed
//!   to be ready.
//!
//! Outcome determinism: translations are deterministic per (method,
//! sample, variant) and execution is deterministic per query, so the
//! EX/EM outcome of every request is independent of worker count, batch
//! boundaries, cache state, and scheduling. Only timing varies.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub(crate) mod api;
pub mod cache;
pub mod hash;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod slowlog;
pub(crate) mod telemetry;
pub mod trace;
pub mod window;

use cache::{ExecCache, ExecOutcome};
use crossbeam::channel;
pub use metrics::MetricsSnapshot;
use modelzoo::Nl2SqlModel;
use nl2sql360::{EvalContext, EvalStore, ExecFailureKind, Score};
use serde::{Deserialize, Serialize};
pub use slowlog::{fnv1a64, SlowLog, SlowQueryEntry};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use telemetry::{Completion, Stages, Telemetry, Work};
use trace::TraceStore;
pub use trace::{SpanRecord, TraceContext};
pub use window::{WindowReport, WindowRing};

/// Service tuning knobs. Prefer [`ServeConfig::builder`], which rejects
/// degenerate values (zero-size queues/pools) at construction time; a
/// hand-rolled struct with zeros is caught by the same validation when the
/// service starts.
///
/// Only what some caller sets differently is a field. Values every caller
/// left at their default are constants beside the code that uses them:
/// [`window::WINDOW_BUCKET_MS`], [`window::WINDOW_BUCKETS`],
/// [`slowlog::SLOW_LOG_K`], [`slowlog::SLOW_LOG_RATE_PER_SEC`],
/// [`UNREADY_QUEUE_PCT`], [`http::MAX_BODY_BYTES`],
/// [`trace::TRACE_CAPACITY`], [`WAREHOUSE_FLUSH_MS`]. To collect obs
/// spans while a service runs, hold an [`obs::enable`] guard around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing translate→execute→compare.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with
    /// [`QueryError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum same-method requests a worker serves per dequeue round.
    pub max_batch: usize,
    /// Execution-cache shard count.
    pub cache_shards: usize,
    /// Execution-cache entries per shard.
    pub cache_capacity_per_shard: usize,
    /// Bind the admin HTTP endpoint here (loopback only; port 0 picks an
    /// ephemeral port, readable via [`ServiceHandle::admin_addr`]).
    /// `None` (the default) runs no listener.
    pub admin_addr: Option<SocketAddr>,
    /// Statically analyze predicted SQL against the target database's
    /// schema (via `sqlcheck`) before execution; queries with
    /// Error-severity diagnostics are rejected with
    /// [`QueryError::StaticRejected`] instead of being executed. Clean
    /// queries are unaffected — sqlcheck guarantees a clean query never
    /// raises a minidb binding error, so enabling the check never changes
    /// the outcome of valid SQL. Off by default.
    pub static_check: bool,
    /// Key the execution cache on the `sqlcheck::equiv` *canonical form*
    /// of the predicted SQL instead of its alias/case-normalized text, so
    /// surface restylings of the same query (flipped comparisons,
    /// expanded BETWEENs, reordered conjuncts) share one cache entry.
    /// Only name-preserving, observationally-safe rewrites participate
    /// ([`sqlcheck::equiv::RuleSet::cache_safe`]), so a hit returns a
    /// byte-identical outcome to a miss. Off by default.
    pub canonical_cache_key: bool,
    /// Mint a `trace_id` per admitted request and record per-stage spans
    /// into an in-memory trace store, served back on `GET /v1/traces/<id>`
    /// and echoed on responses and slow-log entries. Outcome-neutral by
    /// construction: tracing only ever *observes* the pipeline. Off by
    /// default.
    pub request_tracing: bool,
    /// Run the telemetry warehouse: a background flusher persisting
    /// completed span trees (`trace_spans`) and periodic metrics snapshots
    /// (`metrics_history`) into the eval store, queryable through
    /// `POST /v1/sql`. Implies nothing about `request_tracing` — without
    /// it the warehouse only accrues metrics history. Off by default.
    pub warehouse: bool,
    /// Process label stamped on every span this service records, and the
    /// seed of its span-id range (see [`trace`] module docs). Cluster
    /// workers set their worker id here so a cross-process tree shows
    /// which worker executed, and two workers' span ids never collide.
    pub trace_process: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: nl2sql360::default_workers(),
            queue_capacity: 256,
            max_batch: 8,
            cache_shards: 8,
            cache_capacity_per_shard: 128,
            admin_addr: None,
            static_check: false,
            canonical_cache_key: false,
            request_tracing: false,
            warehouse: false,
            trace_process: "serve".to_string(),
        }
    }
}

impl ServeConfig {
    /// Start a validating builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }

    /// Check the invariants [`Service::run`] relies on.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ServeConfigError::ZeroQueueCapacity);
        }
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.cache_shards == 0 {
            return Err(ServeConfigError::ZeroCacheShards);
        }
        if self.cache_capacity_per_shard == 0 {
            return Err(ServeConfigError::ZeroCacheCapacity);
        }
        if self.trace_process.is_empty() {
            return Err(ServeConfigError::EmptyTraceProcess);
        }
        if let Some(addr) = self.admin_addr {
            if !addr.ip().is_loopback() {
                return Err(ServeConfigError::NonLoopbackAdmin);
            }
        }
        Ok(())
    }
}

/// Why a [`ServeConfigBuilder`] refused to produce a config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `workers` was zero — the service could never serve anything.
    ZeroWorkers,
    /// `queue_capacity` was zero — every request would be rejected.
    ZeroQueueCapacity,
    /// `max_batch` was zero — workers could never drain the queue.
    ZeroMaxBatch,
    /// `cache_shards` was zero — the cache cannot be constructed.
    ZeroCacheShards,
    /// `cache_capacity_per_shard` was zero — the cache could hold nothing.
    ZeroCacheCapacity,
    /// `trace_process` was empty — spans would carry no process label.
    EmptyTraceProcess,
    /// `admin_addr` was not a loopback address; the admin endpoint speaks
    /// unauthenticated plaintext HTTP and must not be reachable off-host.
    NonLoopbackAdmin,
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ServeConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be >= 1"),
            ServeConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1"),
            ServeConfigError::ZeroCacheShards => write!(f, "cache_shards must be >= 1"),
            ServeConfigError::ZeroCacheCapacity => {
                write!(f, "cache_capacity_per_shard must be >= 1")
            }
            ServeConfigError::EmptyTraceProcess => {
                write!(f, "trace_process must be non-empty")
            }
            ServeConfigError::NonLoopbackAdmin => {
                write!(f, "admin_addr must be a loopback address")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Validating builder for [`ServeConfig`]: setters chain, [`build`]
/// rejects zero-size queues/pools with a [`ServeConfigError`] instead of
/// letting [`Service::run`] panic later.
///
/// [`build`]: ServeConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Worker threads executing translate→execute→compare.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Admission queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Maximum same-method requests per dequeue round.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Execution-cache shard count.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.config.cache_shards = shards;
        self
    }

    /// Execution-cache entries per shard.
    pub fn cache_capacity_per_shard(mut self, capacity: usize) -> Self {
        self.config.cache_capacity_per_shard = capacity;
        self
    }

    /// Bind the admin HTTP endpoint at `addr` (must be loopback; port 0
    /// picks an ephemeral port).
    pub fn admin_addr(mut self, addr: SocketAddr) -> Self {
        self.config.admin_addr = Some(addr);
        self
    }

    /// Reject statically-invalid predicted SQL before execution
    /// (default off).
    pub fn static_check(mut self, on: bool) -> Self {
        self.config.static_check = on;
        self
    }

    /// Key the execution cache on canonical SQL form (default off).
    pub fn canonical_cache_key(mut self, on: bool) -> Self {
        self.config.canonical_cache_key = on;
        self
    }

    /// Mint per-request trace ids and record stage spans (default off).
    pub fn request_tracing(mut self, on: bool) -> Self {
        self.config.request_tracing = on;
        self
    }

    /// Run the telemetry warehouse flusher (default off).
    pub fn warehouse(mut self, on: bool) -> Self {
        self.config.warehouse = on;
        self
    }

    /// Process label spans carry (default `"serve"`).
    pub fn trace_process(mut self, process: &str) -> Self {
        self.config.trace_process = process.to_string();
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One translation request against the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Method name (must match a registered model's `name()`).
    pub method: String,
    /// Database the question targets.
    pub db_id: String,
    /// The NL question (must be a known dev question for `db_id`).
    pub question: String,
    /// Optional deadline relative to submission; requests still queued
    /// past it are dropped with [`QueryError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Incoming trace context: when a traced upstream (the cluster
    /// scheduler) forwards this request, the local root span adopts its
    /// trace id and links to its parent span, so one trace crosses the
    /// process boundary. `None` (and ignored when tracing is off) for
    /// direct requests — the service mints a fresh id. Defaulted so
    /// pre-tracing frames and logs still deserialize.
    #[serde(default)]
    pub trace: Option<TraceContext>,
}

/// Successful service answer for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Execution accuracy against the gold result.
    pub ex: bool,
    /// Exact-match accuracy against the gold AST.
    pub em: bool,
    /// Predicted SQL text.
    pub pred_sql: String,
    /// Execution work units (None when execution failed).
    pub pred_work: Option<u64>,
    /// Execution-failure kind, when execution failed — the underlying
    /// `minidb` error classification, so serialized responses keep the
    /// failure *mode* and not just `ex: false`. Defaulted so logs written
    /// before this field still deserialize.
    #[serde(default)]
    pub exec_failure: Option<ExecFailureKind>,
    /// Whether the execution outcome came from the cache.
    pub cache_hit: bool,
    /// Size of the same-method batch this request was served in.
    pub batch_size: usize,
    /// Submission-to-response latency.
    pub latency: Duration,
    /// External (hex) trace id of this request's span tree, fetchable via
    /// `GET /v1/traces/<id>`; empty when tracing is off. Defaulted so
    /// pre-tracing logs still deserialize.
    #[serde(default)]
    pub trace_id: String,
}

/// Why a request got no [`QueryResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryError {
    /// Rejected at admission: queue full (or service shutting down).
    Overloaded,
    /// Dropped because the deadline passed while queued.
    DeadlineExceeded,
    /// No registered model with this name.
    UnknownMethod(String),
    /// The (db_id, question) pair is not in the served corpus.
    UnknownQuestion,
    /// The model declined the task (dataset unsupported).
    TranslationRefused,
    /// Rejected by the static admission check ([`ServeConfig::static_check`]):
    /// the predicted SQL carries Error-severity `sqlcheck` diagnostics and
    /// would raise a binding error if executed. Carries the stable rule ids
    /// that fired, in registry order.
    StaticRejected(Vec<String>),
    /// The service stopped before answering (worker panic).
    Internal,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Overloaded => write!(f, "service overloaded"),
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::UnknownMethod(m) => write!(f, "unknown method: {m}"),
            QueryError::UnknownQuestion => write!(f, "unknown (db, question) pair"),
            QueryError::TranslationRefused => write!(f, "model declined the task"),
            QueryError::StaticRejected(rules) => {
                write!(f, "statically invalid SQL ({})", rules.join(", "))
            }
            QueryError::Internal => write!(f, "service stopped before answering"),
        }
    }
}

impl QueryError {
    /// The HTTP status this error maps to on the `/v1` API, shared by the
    /// serve endpoint and the cluster scheduler's forwarding endpoint so
    /// both speak the same refusal language.
    pub fn http_status(&self) -> u16 {
        match self {
            QueryError::UnknownMethod(_) => 400,
            QueryError::UnknownQuestion => 404,
            QueryError::TranslationRefused | QueryError::StaticRejected(_) => 422,
            QueryError::Overloaded => 503,
            QueryError::DeadlineExceeded => 504,
            QueryError::Internal => 500,
        }
    }
}

impl std::error::Error for QueryError {}

/// The reply delivered through a [`Ticket`].
pub type QueryReply = Result<QueryResponse, QueryError>;

/// Handle to one in-flight request.
pub struct Ticket {
    rx: channel::Receiver<QueryReply>,
}

impl Ticket {
    /// Block until the reply arrives.
    pub fn wait(self) -> QueryReply {
        self.rx.recv().unwrap_or(Err(QueryError::Internal))
    }

    /// Non-blocking poll; `None` while still in flight.
    pub fn try_wait(&self) -> Option<QueryReply> {
        self.rx.try_recv().ok()
    }
}

struct Pending {
    method_idx: usize,
    sample_idx: usize,
    variant: usize,
    enqueued: Instant,
    deadline: Option<Duration>,
    reply: channel::Sender<QueryReply>,
    /// Trace identity minted (or adopted) at admission; `None` when
    /// tracing is off.
    trace: Option<PendingTrace>,
}

/// The trace identity a request carries from admission to its completion.
#[derive(Clone, Copy)]
pub(crate) struct PendingTrace {
    trace_id: u64,
    /// The local `request` root every stage span parents to.
    root_span: u64,
    /// Remote parent for the local root span; 0 when minted here.
    parent_span: u64,
}

struct QueueState {
    items: VecDeque<Pending>,
    shutdown: bool,
}

/// One evaluation run registered through `POST /v1/evals/<corpus>`.
/// API ids are `index + 1` in registration order.
pub(crate) struct EvalRun {
    /// Corpus label as the caller spelled it; becomes the `corpus` column
    /// of the persisted `eval_runs` row.
    pub(crate) corpus: String,
    /// Method name (validated against the registered models at submission).
    pub(crate) method: String,
    /// Optional dev-split subset size.
    pub(crate) subset: Option<usize>,
    /// Optional eval worker-pool size (outcome-neutral by construction).
    pub(crate) workers: Option<usize>,
    /// Where the run currently is.
    pub(crate) status: RunStatus,
}

/// Lifecycle of an [`EvalRun`].
pub(crate) enum RunStatus {
    /// Registered, not yet picked up by the runner thread.
    Queued,
    /// The runner thread is evaluating it.
    Running,
    /// Evaluated and persisted into the eval store.
    Completed {
        /// `run_id` the store assigned (persistence order — can differ
        /// from the API id when runs overlap).
        run_id: i64,
        /// Samples evaluated.
        samples: usize,
        /// Overall EX over the run, when computable.
        ex: Option<f64>,
        /// Overall EM over the run, when computable.
        em: Option<f64>,
    },
    /// The evaluation could not produce a log or the store rejected it.
    Failed {
        /// Human-readable reason.
        error: String,
    },
}

/// Shared state behind the `/v1/evals` endpoints: the persistent store
/// (queryable through `POST /v1/sql`), the run registry, and the job
/// channel feeding the single runner thread.
pub(crate) struct EvalPlane {
    /// Eval runs persisted as `minidb` tables.
    pub(crate) store: Mutex<EvalStore>,
    /// All registered runs, in submission order.
    pub(crate) runs: Mutex<Vec<EvalRun>>,
    /// Registration side of the job queue: `Some(run index)`, or `None`,
    /// the stop message sent once `admin_stop` is set.
    pub(crate) jobs_tx: channel::Sender<Option<usize>>,
    /// Runner side of the job queue.
    jobs_rx: channel::Receiver<Option<usize>>,
    /// sqlcheck catalog over the store schema, for static admission of
    /// raw `/v1/sql` queries; present iff `static_check` is on.
    pub(crate) catalog: Option<sqlcheck::Catalog>,
}

impl EvalPlane {
    fn new(static_check: bool) -> Self {
        let store = EvalStore::new();
        let catalog = static_check.then(|| sqlcheck::Catalog::from_database(store.database()));
        let (jobs_tx, jobs_rx) = channel::unbounded();
        EvalPlane { store: Mutex::new(store), runs: Mutex::new(Vec::new()), jobs_tx, jobs_rx, catalog }
    }
}

/// `/readyz` reports unready once the queue is at least this percent full.
pub const UNREADY_QUEUE_PCT: usize = 90;

pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    models: Vec<Box<dyn Nl2SqlModel>>,
    pub(crate) method_index: HashMap<String, usize>,
    // (db_id, question) → (dev sample index, variant index)
    question_index: HashMap<(String, String), (usize, usize)>,
    cache: ExecCache,
    /// Eval-run registry, persistence store, and runner job queue behind
    /// the `/v1/evals` endpoints.
    pub(crate) evals: EvalPlane,
    pub(crate) telemetry: Telemetry,
    /// Per-request span store behind `GET /v1/traces/<id>`; present iff
    /// `config.request_tracing` is on.
    pub(crate) traces: Option<TraceStore>,
    /// Readiness flag behind `/readyz`; true from start until drain.
    ready: AtomicBool,
    /// Service epoch: windows and the slow log timestamp against this.
    started: Instant,
    /// Tells the admin accept loop to exit once the serve closure is done.
    pub(crate) admin_stop: AtomicBool,
    /// Actual bound admin address (resolves port 0), when configured.
    admin_addr: Option<SocketAddr>,
}

impl Inner {
    /// Admission: resolve the request, then enqueue it. `Err(Overloaded)`
    /// means the queue was full (or draining) — the request was NOT
    /// enqueued and no ticket exists. Resolution failures (unknown
    /// method/question) are admitted and answered through the ticket, so
    /// they share the normal reply path. This is the one admission path
    /// for both in-process [`ServiceHandle::submit`] calls and
    /// `POST /v1/sql` NL requests.
    pub(crate) fn submit(&self, req: QueryRequest) -> Result<Ticket, QueryError> {
        let (tx, rx) = channel::bounded(1);
        let ticket = Ticket { rx };

        let Some(&method_idx) = self.method_index.get(&req.method) else {
            self.reject(QueryError::UnknownMethod(req.method), &tx);
            return Ok(ticket);
        };
        let Some(&(sample_idx, variant)) =
            self.question_index.get(&(req.db_id.clone(), req.question.clone()))
        else {
            self.reject(QueryError::UnknownQuestion, &tx);
            return Ok(ticket);
        };

        // Trace identity is fixed at admission: adopt a forwarded context
        // (the scheduler's trace crossing into this process) or mint a
        // fresh id. Resolution failures above get no trace — they never
        // reach the pipeline the spans describe.
        let trace = self.traces.as_ref().map(|store| {
            let (trace_id, parent_span) = req
                .trace
                .as_ref()
                .and_then(|t| trace::parse_trace_id(&t.trace_id).map(|id| (id, t.parent_span)))
                .unwrap_or_else(|| (store.mint(&req.db_id, &req.question, &req.method), 0));
            PendingTrace { trace_id, root_span: store.next_span_id(), parent_span }
        });
        let pending = Pending {
            method_idx,
            sample_idx,
            variant,
            enqueued: Instant::now(),
            deadline: req.deadline,
            reply: tx,
            trace,
        };
        {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            if q.shutdown || q.items.len() >= self.config.queue_capacity {
                drop(q);
                // No ticket survives a refusal: the caller gets the same
                // error `complete` sends into the channel dropped here.
                self.reject(QueryError::Overloaded, &pending.reply);
                return Err(QueryError::Overloaded);
            }
            self.telemetry.admitted();
            q.items.push_back(pending);
        }
        self.not_empty.notify_one();
        Ok(ticket)
    }

    /// Answer at admission: the request never queued, so no worker ran.
    fn reject(&self, why: QueryError, to: &channel::Sender<QueryReply>) {
        self.complete(Completion { reply: Err(why), work: None }, to);
    }

    /// The one exit of the request pipeline. Every answered request —
    /// whichever of the seven outcomes it met, at admission or in a worker
    /// — arrives here as one [`Completion`], and only here does an ok
    /// reply get its latency and trace id, is it counted (registry cells,
    /// window ring, slow log), its span tree derived and stored, and its
    /// reply sent — in that order, so a caller holding the reply can
    /// already read the full trace and the updated counters.
    fn complete(&self, mut c: Completion<'_>, to: &channel::Sender<QueryReply>) {
        if let (Some(w), Ok(r)) = (&c.work, &mut c.reply) {
            r.latency = w.finished - w.enqueued;
            if let Some(t) = w.trace {
                r.trace_id = trace::format_trace_id(t.trace_id);
            }
        }
        self.telemetry.record(&c, self.started);
        if let (Some(w), Some(store)) = (&c.work, &self.traces) {
            if let Some(t) = w.trace {
                store.append(t.trace_id, self.request_spans(store, t, w, &c.reply), true);
            }
        }
        let _ = to.send(c.reply);
    }

    /// A worker-answered request's span tree, derived from its stamps and
    /// reply: the `request` root over `[enqueued, finished)` and one child
    /// per stage that ran, each from the previous stage's end to its own.
    fn request_spans(
        &self,
        store: &TraceStore,
        t: PendingTrace,
        w: &Work<'_>,
        reply: &QueryReply,
    ) -> Vec<SpanRecord> {
        let child = |name: &str, from: Instant, to: Instant, attrs: String| {
            store.span(t.trace_id, store.next_span_id(), t.root_span, name, from..to, attrs)
        };
        let mut spans = vec![child("queue", w.enqueued, w.started, String::new())];
        let Stages { translated, checked, executed } = w.stages;
        if let Some(translated) = translated {
            let method = self.models[w.method].name();
            spans.push(child("translate", w.started, translated, format!("method={method}")));
            if let Some(checked) = checked {
                let fired =
                    if let Err(QueryError::StaticRejected(rules)) = reply { rules.len() } else { 0 };
                spans.push(child("static_check", translated, checked, format!("rules_fired={fired}")));
            }
            if let (Some(executed), Ok(r)) = (executed, reply) {
                let hit = format!("cache_hit={}", u8::from(r.cache_hit));
                spans.push(child("execute", checked.unwrap_or(translated), executed, hit));
                let agree = format!("ex={} em={}", u8::from(r.ex), u8::from(r.em));
                spans.push(child("compare", executed, w.finished, agree));
            }
        }
        let outcome = telemetry::outcome_label(reply);
        let mut attrs = format!("outcome={outcome} batch={}", w.batch_size);
        if let Ok(r) = reply {
            attrs.push_str(if r.cache_hit { " cache_hit=1" } else { " cache_hit=0" });
        }
        let root = w.enqueued..w.finished;
        spans.push(store.span(t.trace_id, t.root_span, t.parent_span, "request", root, attrs));
        spans
    }

    fn drain(&self) {
        // Readiness-before-refusal ordering: flip `/readyz` unready
        // *before* taking the queue lock to set `shutdown`. A submitter
        // refused with `Overloaded` acquired that same lock after us, so
        // by the time any shutdown-caused refusal is observable the
        // readiness flag is already false — a balancer that stops sending
        // on unready never has traffic refused by a "ready" service.
        self.ready.store(false, Ordering::SeqCst);
        self.queue.lock().expect("queue lock poisoned").shutdown = true;
        self.not_empty.notify_all();
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().expect("queue lock poisoned").items.len()
    }

    /// Why `/readyz` would refuse, if it would. The reason names the
    /// condition *and* the numbers behind it ("saturated: queue 230/256 at
    /// or past the 90% threshold"), because the body is what a balancer
    /// operator — or the cluster scheduler's reaper, which logs a worker's
    /// last-reported reason when it evicts it — gets to see.
    pub(crate) fn readiness(&self) -> Result<(), String> {
        if !self.ready.load(Ordering::SeqCst) {
            return Err(format!(
                "draining: shutdown in progress, {} request(s) still queued",
                self.queue_len()
            ));
        }
        let threshold = (self.config.queue_capacity * UNREADY_QUEUE_PCT / 100).max(1);
        let len = self.queue_len();
        if len >= threshold {
            return Err(format!(
                "saturated: queue {len}/{} >= {UNREADY_QUEUE_PCT}% threshold",
                self.config.queue_capacity
            ));
        }
        Ok(())
    }

    /// Point-in-time gauges are set at scrape time, not on the hot path.
    pub(crate) fn refresh_gauges(&self) {
        self.telemetry.set_gauges(self.queue_len(), self.readiness().is_ok());
    }

    /// The `/metrics` exposition body.
    pub(crate) fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.telemetry.render_prometheus(self.started.elapsed())
    }
}

/// Sets shutdown even if the serve closure panics, so workers exit and the
/// thread scope can join instead of deadlocking.
struct DrainOnDrop<'i>(&'i Inner);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        self.0.drain();
        // The serve closure is done (or panicked): nobody scrapes anymore,
        // so the admin accept loop and the eval runner may exit and let the
        // scope join — flag first, then the wakes.
        self.0.admin_stop.store(true, Ordering::Release);
        if let Some(addr) = self.0.admin_addr {
            wake_listener(addr);
        }
        let _ = self.0.evals.jobs_tx.send(None);
    }
}

/// Client-side handle: submit requests, read metrics.
pub struct ServiceHandle<'s> {
    inner: &'s Inner,
}

impl ServiceHandle<'_> {
    /// Try to admit a request. `Err(Overloaded)` means the queue was full
    /// (or the service is draining) — the request was NOT enqueued and no
    /// ticket exists. Resolution failures (unknown method/question) are
    /// admitted and answered through the ticket, so they share the normal
    /// reply path.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, QueryError> {
        self.inner.submit(req)
    }

    /// Convenience: submit and block for the reply. Admission rejects
    /// surface as `Err(Overloaded)` like any other failure.
    pub fn query(&self, req: QueryRequest) -> QueryReply {
        self.submit(req)?.wait()
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.telemetry.snapshot()
    }

    /// Successful responses so far. Reads the counters only — cheaper
    /// than [`metrics`](Self::metrics), which also scans nine quantiles.
    pub fn completed(&self) -> u64 {
        self.inner.telemetry.completed()
    }

    /// Entries currently in the execution cache.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    /// Whether the service currently reports ready on `/readyz` (false
    /// while draining or while the queue is saturated past the configured
    /// threshold).
    pub fn ready(&self) -> bool {
        self.inner.readiness().is_ok()
    }

    /// Like [`ready`](Self::ready), but carrying the reason a `/readyz`
    /// probe would report in its body ("draining: ..." or "saturated:
    /// queue N/C >= P% threshold"). Cluster workers forward this in their
    /// heartbeats so the scheduler knows *why* a worker stopped admitting.
    pub fn readiness(&self) -> Result<(), String> {
        self.inner.readiness()
    }

    /// Start a graceful drain early, before the serve closure returns:
    /// readiness flips to false first, then the queue refuses new
    /// requests; everything already admitted is still answered.
    pub fn begin_drain(&self) {
        self.inner.drain();
    }

    /// Bound address of the admin endpoint, when one was configured
    /// (resolves an ephemeral `:0` bind to the actual port).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.inner.admin_addr
    }

    /// Aggregate over the last `window` of finished requests (clamped to
    /// the ring's coverage): windowed QPS, error rate, p50/p95/p99.
    pub fn window_report(&self, window: Duration) -> WindowReport {
        self.inner.telemetry.window_report(self.inner.started.elapsed(), window)
    }

    /// Current slow-query log, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.inner.telemetry.slow_entries()
    }

    /// The Prometheus text exposition `/metrics` would serve right now
    /// (works without an admin listener).
    pub fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    /// All recorded spans of one trace, by external (hex) id — what
    /// `GET /v1/traces/<id>` serves. `None` when tracing is off, the id
    /// does not parse, or the trace is unknown/evicted. Cluster workers
    /// use this to ship a request's local spans back to the scheduler.
    pub fn trace_spans(&self, trace_id: &str) -> Option<Vec<SpanRecord>> {
        let store = self.inner.traces.as_ref()?;
        store.spans(trace::parse_trace_id(trace_id)?)
    }

    /// Run raw SQL against the eval/telemetry store — the same tables
    /// `POST /v1/sql` queries (`eval_runs`, `eval_results`, `trace_spans`,
    /// `metrics_history`).
    pub fn store_sql(&self, sql: &str) -> Result<minidb::ResultSet, minidb::ExecError> {
        self.inner.evals.store.lock().expect("eval store lock poisoned").sql(sql)
    }

    /// Force one warehouse flush (completed span trees + a metrics
    /// snapshot) right now. No-op when the warehouse is off — tests and
    /// scripts use this instead of sleeping out [`WAREHOUSE_FLUSH_MS`].
    pub fn flush_warehouse(&self) {
        if self.inner.config.warehouse {
            flush_warehouse_tick(self.inner);
        }
    }
}

/// The service. Scoped-run API: [`Service::run`] starts the worker pool,
/// hands your closure a [`ServiceHandle`], and drains + joins the pool
/// when the closure returns — so the service can borrow a corpus-bound
/// [`EvalContext`] without `Arc` cycles or leaked lifetimes.
pub struct Service;

impl Service {
    /// Run a service over `ctx` with explicit models, registered under
    /// their `name()`. Returns the closure's result after a graceful
    /// drain: every admitted request is answered before this returns.
    ///
    /// # Panics
    /// Panics on a config that [`ServeConfig::validate`] rejects; build
    /// configs through [`ServeConfig::builder`] to surface those errors as
    /// `Result`s at construction instead.
    pub fn run<'a, R>(
        config: ServeConfig,
        ctx: &'a EvalContext<'a>,
        models: Vec<Box<dyn Nl2SqlModel>>,
        f: impl FnOnce(&ServiceHandle<'_>) -> R,
    ) -> R {
        if let Err(e) = config.validate() {
            panic!("invalid ServeConfig: {e} (ServeConfig::builder() rejects this at build time)");
        }
        let method_index: HashMap<String, usize> =
            models.iter().enumerate().map(|(i, m)| (m.name().to_string(), i)).collect();
        let mut question_index = HashMap::new();
        for (i, sample) in ctx.corpus.dev.iter().enumerate() {
            for (v, question) in sample.variants.iter().enumerate() {
                question_index.insert((sample.db_id.clone(), question.clone()), (i, v));
            }
        }
        let method_names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        let telemetry = Telemetry::new(&method_names);
        // Bind before the scope starts so `ServiceHandle::admin_addr`
        // resolves an ephemeral `:0` port immediately — tests and loadgen
        // can scrape as soon as the closure runs.
        let admin_listener = config.admin_addr.map(|addr| {
            TcpListener::bind(addr)
                .unwrap_or_else(|e| panic!("bind admin endpoint {addr}: {e}"))
        });
        let admin_addr = admin_listener
            .as_ref()
            .map(|l| l.local_addr().expect("admin endpoint has a local addr"));
        let started = Instant::now();
        let traces = config
            .request_tracing
            .then(|| TraceStore::new(&config.trace_process, trace::TRACE_CAPACITY, started));
        let inner = Inner {
            cache: ExecCache::new(config.cache_shards, config.cache_capacity_per_shard),
            evals: EvalPlane::new(config.static_check),
            traces,
            config,
            queue: Mutex::new(QueueState { items: VecDeque::new(), shutdown: false }),
            not_empty: Condvar::new(),
            models,
            method_index,
            question_index,
            telemetry,
            ready: AtomicBool::new(true),
            started,
            admin_stop: AtomicBool::new(false),
            admin_addr,
        };
        crossbeam::thread::scope(|scope| {
            let guard = DrainOnDrop(&inner);
            for _ in 0..inner.config.workers {
                let inner_ref = &inner;
                scope.spawn(move |_| worker_loop(inner_ref, ctx));
            }
            if inner.config.warehouse {
                let inner_ref = &inner;
                scope.spawn(move |_| {
                    flush_periodically(
                        || inner_ref.admin_stop.load(Ordering::Acquire),
                        || flush_warehouse_tick(inner_ref),
                    )
                });
            }
            if let Some(listener) = admin_listener {
                let inner_ref = &inner;
                scope.spawn(move |_| api::run(listener, inner_ref, ctx));
                // Eval jobs only arrive over HTTP, so the runner lives
                // exactly when the listener does.
                let inner_ref = &inner;
                scope.spawn(move |_| eval_runner(inner_ref, ctx));
            }
            let out = f(&ServiceHandle { inner: &inner });
            drop(guard); // initiate drain + admin stop; scope joins all
            out
        })
        .expect("serve worker panicked")
    }

    /// Run with simulated models for the given registry method names.
    ///
    /// # Panics
    /// Panics if a name is not in the modelzoo registry, or on a config
    /// that [`ServeConfig::validate`] rejects.
    pub fn run_with_methods<'a, R>(
        config: ServeConfig,
        ctx: &'a EvalContext<'a>,
        methods: &[&str],
        f: impl FnOnce(&ServiceHandle<'_>) -> R,
    ) -> R {
        let models: Vec<Box<dyn Nl2SqlModel>> = methods
            .iter()
            .map(|name| {
                let spec = modelzoo::method_by_name(name)
                    .unwrap_or_else(|| panic!("method not in registry: {name}"));
                Box::new(modelzoo::SimulatedModel::new(spec)) as Box<dyn Nl2SqlModel>
            })
            .collect();
        Self::run(config, ctx, models, f)
    }
}

/// Eval-runner thread: pops registered runs off the job channel, evaluates
/// them with the service's own models over the shared [`EvalContext`], and
/// persists each completed log into the eval store. Runs execute one at a
/// time, in submission order. Evaluation only *reads* the context and
/// corpus (both planes are read-only over shared state, and the eval path
/// has its own internal worker fan-out), so a run executing while serve
/// traffic flows perturbs neither — the isolation pin in the HTTP tests
/// compares both byte-for-byte against solo executions. Blocks in `recv`
/// until a job or the stop message arrives; a job still queued once
/// `admin_stop` is set is dropped.
fn eval_runner<'a>(inner: &Inner, ctx: &'a EvalContext<'a>) {
    while let Ok(Some(idx)) = inner.evals.jobs_rx.recv() {
        if inner.admin_stop.load(Ordering::Acquire) {
            return;
        }
        run_eval_job(inner, ctx, idx);
    }
}

fn run_eval_job<'a>(inner: &Inner, ctx: &'a EvalContext<'a>, idx: usize) {
    let (corpus_label, method, subset, workers) = {
        let mut runs = inner.evals.runs.lock().expect("runs lock poisoned");
        let run = &mut runs[idx];
        run.status = RunStatus::Running;
        (run.corpus.clone(), run.method.clone(), run.subset, run.workers)
    };
    // The method was validated against `method_index` at submission; a miss
    // here means the registry changed underneath us, which cannot happen.
    let status = match inner.method_index.get(&method) {
        None => RunStatus::Failed { error: format!("unknown method: {method}") },
        Some(&model_idx) => {
            let mut opts = nl2sql360::EvalOptions::new().static_check(inner.config.static_check);
            if let Some(n) = subset {
                opts = opts.subset(n);
            }
            if let Some(w) = workers {
                opts = opts.workers(w);
            }
            match ctx.evaluate_with(inner.models[model_idx].as_ref(), &opts) {
                None => RunStatus::Failed {
                    error: format!("method {method} does not run on this dataset"),
                },
                Some(log) => {
                    let filter = nl2sql360::Filter::all();
                    let (ex, em) = (
                        nl2sql360::metrics::ex(&log, &filter),
                        nl2sql360::metrics::em(&log, &filter),
                    );
                    let samples = log.records.len();
                    let mut store = inner.evals.store.lock().expect("eval store lock poisoned");
                    match store.insert_run(&log, &corpus_label) {
                        Ok(run_id) => RunStatus::Completed { run_id, samples, ex, em },
                        Err(e) => RunStatus::Failed { error: format!("persisting run: {e}") },
                    }
                }
            }
        }
    };
    inner.evals.runs.lock().expect("runs lock poisoned")[idx].status = status;
}

/// Warehouse flush interval, milliseconds.
pub const WAREHOUSE_FLUSH_MS: u64 = 250;

/// Body of a warehouse flusher thread (this service's and the cluster
/// scheduler's): run `flush` every [`WAREHOUSE_FLUSH_MS`] until
/// `stopping()` turns true, then once more, so whatever completed before
/// shutdown is persisted.
pub fn flush_periodically(stopping: impl Fn() -> bool, mut flush: impl FnMut()) {
    loop {
        let last = stopping();
        flush();
        if last {
            return;
        }
        sleep_unless(Duration::from_millis(WAREHOUSE_FLUSH_MS), &stopping);
    }
}

/// Sleep `d` in short slices so shutdown never waits out a whole interval;
/// false as soon as `stopping()` is true. The stop-aware sleep under every
/// periodic loop of both crates (flusher, heartbeat, reaper).
pub fn sleep_unless(d: Duration, stopping: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + d;
    while !stopping() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
    false
}

/// How long an acceptor rests after `accept` fails. A failure that lasts
/// (EMFILE) must not spin; the no-client path never sleeps, because it
/// does not exist — `accept` blocks in the kernel until a client arrives.
const ACCEPT_ERR_BACKOFF: Duration = Duration::from_millis(50);

/// Body of an acceptor thread — the one accept loop under all four
/// listeners (this service's API, the scheduler's client and admin ports,
/// the worker's Execute port): hand every accepted stream to `on_conn`
/// until `stopping()` turns true. `accept` blocks, so whoever flips the
/// stop flag must *then* call [`wake_listener`]; the flag is re-read after
/// every return of `accept`, which makes the wake level-triggered — a
/// wake that lands before the acceptor blocks waits in the backlog.
pub fn accept_until(
    listener: &TcpListener,
    stopping: impl Fn() -> bool,
    mut on_conn: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if stopping() {
            return;
        }
        match accepted {
            Ok((stream, _)) => on_conn(stream),
            Err(_) => std::thread::sleep(ACCEPT_ERR_BACKOFF),
        }
    }
}

/// Wake the [`accept_until`] loop of the listener bound to `addr` with one
/// throw-away connection; call it after storing the stop flag. A listener
/// that is already gone refuses the connection, which is fine, and a full
/// backlog drops it, which is fine too: that acceptor is about to return
/// from `accept` anyway.
pub fn wake_listener(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
}

/// One warehouse flush, the body behind this service's flusher and the
/// cluster scheduler's: completed span trees into `trace_spans`, then
/// `values` as one `metrics_history` snapshot stamped `epoch.elapsed()`,
/// both queryable through `POST /v1/sql` while the process runs. Traces
/// completed after the final flush remain readable on
/// `GET /v1/traces/<id>` but are not persisted — the warehouse is a
/// live-telemetry sink, not a WAL. `errors` names the obs counters a
/// failed trace / metrics insert bumps.
pub fn flush_warehouse(
    store: &mut EvalStore,
    traces: Option<&TraceStore>,
    epoch: Instant,
    values: &[(&str, i64)],
    errors: (&'static str, &'static str),
) {
    for spans in traces.map(|t| t.drain_completed()).unwrap_or_default() {
        let rows: Vec<nl2sql360::TraceSpanRow> = spans.iter().map(trace::span_row).collect();
        if store.insert_trace_spans(&rows).is_err() {
            obs::count(errors.0, 1);
        }
    }
    if store.insert_metrics_snapshot(epoch.elapsed().as_millis() as i64, values).is_err() {
        obs::count(errors.1, 1);
    }
}

/// This service's warehouse flush: its counters and latency quantiles.
fn flush_warehouse_tick(inner: &Inner) {
    let m = inner.telemetry.snapshot();
    let us = |d: Option<Duration>| d.map_or(0, |d| d.as_micros() as i64);
    let values = [
        ("submitted", m.submitted as i64),
        ("completed", m.completed as i64),
        ("rejected_overloaded", m.rejected_overloaded as i64),
        ("deadline_exceeded", m.deadline_exceeded as i64),
        ("failed", m.failed as i64),
        ("static_rejected", m.static_rejected as i64),
        ("cache_hits", m.cache_hits as i64),
        ("cache_misses", m.cache_misses as i64),
        ("queue_depth", inner.queue_len() as i64),
        ("latency_p50_us", us(m.p50)),
        ("latency_p95_us", us(m.p95)),
        ("latency_p99_us", us(m.p99)),
        ("queue_wait_p99_us", us(m.queue_p99)),
        ("exec_p99_us", us(m.exec_p99)),
    ];
    let mut store = inner.evals.store.lock().expect("eval store lock poisoned");
    let errors = ("serve.warehouse.trace_insert_error", "serve.warehouse.metrics_insert_error");
    flush_warehouse(&mut store, inner.traces.as_ref(), inner.started, &values, errors);
}

/// Worker: block for work, drain a same-method batch, serve it.
fn worker_loop<'a>(inner: &Inner, ctx: &'a EvalContext<'a>) {
    loop {
        let mut batch: Vec<Pending> = Vec::new();
        {
            let mut q = inner.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(first) = q.items.pop_front() {
                    batch.push(first);
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = inner.not_empty.wait(q).expect("queue lock poisoned");
            }
            // micro-batch: pull queued requests for the same method, in
            // arrival order, without skipping past more than we inspect
            let method = batch[0].method_idx;
            let mut i = 0;
            while batch.len() < inner.config.max_batch && i < q.items.len() {
                if q.items[i].method_idx == method {
                    batch.push(q.items.remove(i).expect("index in bounds"));
                } else {
                    i += 1;
                }
            }
        }
        let batch_size = batch.len();
        inner.telemetry.batch(batch_size);
        for pending in batch {
            serve_one(inner, ctx, pending, batch_size);
        }
    }
}

fn serve_one<'a>(inner: &Inner, ctx: &'a EvalContext<'a>, p: Pending, batch_size: usize) {
    let _span = obs::span("serve.request");
    // End of the queued phase: everything before `started` is queue wait,
    // everything after is this worker's own processing time.
    let started = Instant::now();
    let (reply, sql_hash, stages) = if p.deadline.is_some_and(|d| started - p.enqueued > d) {
        (Err(QueryError::DeadlineExceeded), 0, Stages::default())
    } else {
        translate_and_execute(inner, ctx, &p, batch_size)
    };
    let work = Work {
        method: p.method_idx,
        db_id: &ctx.corpus.dev[p.sample_idx].db_id,
        batch_size,
        sql_hash,
        enqueued: p.enqueued,
        started,
        stages,
        finished: Instant::now(),
        trace: p.trace,
    };
    inner.complete(Completion { reply, work: Some(work) }, &p.reply);
}

/// The stages a worker runs on a request that made its deadline:
/// translate → static check → execute (through the cache) → compare.
/// Returns the reply (its `latency` and `trace_id` are `Inner::complete`'s
/// to set), the hash of the cache key (0 when the request never got one)
/// and when each stage ended.
fn translate_and_execute<'a>(
    inner: &Inner,
    ctx: &'a EvalContext<'a>,
    p: &Pending,
    batch_size: usize,
) -> (QueryReply, u64, Stages) {
    let sample = &ctx.corpus.dev[p.sample_idx];
    let translated = inner.models[p.method_idx].translate(&ctx.task(sample, p.variant));
    let mut stages = Stages { translated: Some(Instant::now()), ..Stages::default() };
    let Some(pred) = translated else {
        return (Err(QueryError::TranslationRefused), 0, stages);
    };

    // Static admission: reject SQL the analyzer can prove will fail before
    // spending execution (or cache) budget on it. Warning-severity
    // diagnostics never reject, so clean queries are byte-identical with
    // the check off.
    if inner.config.static_check {
        if let Some(catalog) = ctx.catalog(&sample.db_id) {
            let fired = sqlcheck::rejecting_rules(catalog, &pred.query);
            stages.checked = Some(Instant::now());
            if !fired.is_empty() {
                let ids = fired.into_iter().map(|r| r.id().to_string()).collect();
                return (Err(QueryError::StaticRejected(ids)), 0, stages);
            }
        }
    }

    // The cache key: canonical form unifies surface restylings of the same
    // query into one entry; the name-preserving cache-safe rule set keeps
    // hit outcomes byte-identical to misses.
    let normalized = if inner.config.canonical_cache_key {
        sqlcheck::equiv::cache_key_canonical_sql(&pred.query, ctx.catalog(&sample.db_id))
    } else {
        sqlkit::to_sql(&sqlkit::normalize::normalize(&pred.query))
    };
    let sql_hash = slowlog::fnv1a64(&normalized);
    let key = (sample.db_id.clone(), normalized);
    let (outcome, cache_hit) = match inner.cache.get(&key) {
        Some(v) => (v, true),
        None => {
            let executed = ctx.corpus.db(sample).database.run_query(&pred.query);
            let v: Arc<ExecOutcome> = Arc::new(executed.map_err(|e| ExecFailureKind::of(&e)));
            inner.cache.insert(key, v.clone());
            (v, false)
        }
    };
    stages.executed = Some(Instant::now());

    let Score { ex, em, pred_work, exec_failure } =
        ctx.judge(p.sample_idx, &pred.query, outcome.as_ref().as_ref().map_err(|&k| k));
    let reply = QueryResponse {
        ex,
        em,
        pred_sql: pred.sql,
        pred_work,
        exec_failure,
        cache_hit,
        batch_size,
        latency: Duration::ZERO,
        trace_id: String::new(),
    };
    (Ok(reply), sql_hash, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use std::sync::OnceLock;

    fn corpus() -> &'static datagen::Corpus {
        static C: OnceLock<datagen::Corpus> = OnceLock::new();
        C.get_or_init(|| generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91)))
    }

    fn request(sample: &datagen::Sample, variant: usize, method: &str) -> QueryRequest {
        QueryRequest {
            method: method.to_string(),
            db_id: sample.db_id.clone(),
            question: sample.variants[variant].clone(),
            deadline: None,
            trace: None,
        }
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let ctx = EvalContext::new(corpus());
        Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
            let sample = &corpus().dev[0];
            let resp = handle.query(request(sample, 0, "C3SQL")).expect("served");
            assert!(!resp.pred_sql.is_empty());
            assert!(resp.batch_size >= 1);
            let m = handle.metrics();
            assert_eq!(m.completed, 1);
            assert_eq!(m.lost(), 0);
        });
    }

    #[test]
    fn unknown_method_and_question_answer_through_ticket() {
        let ctx = EvalContext::new(corpus());
        Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
            let sample = &corpus().dev[0];
            let mut req = request(sample, 0, "NoSuchMethod");
            assert!(matches!(
                handle.query(req.clone()),
                Err(QueryError::UnknownMethod(_))
            ));
            req.method = "C3SQL".into();
            req.question = "question nobody asked".into();
            assert!(matches!(handle.query(req), Err(QueryError::UnknownQuestion)));
            let m = handle.metrics();
            assert_eq!(m.failed, 2);
            assert_eq!(m.lost(), 0);
        });
    }

    #[test]
    fn repeated_questions_hit_the_cache() {
        let ctx = EvalContext::new(corpus());
        Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
            let sample = &corpus().dev[1];
            let first = handle.query(request(sample, 0, "C3SQL")).expect("served");
            let second = handle.query(request(sample, 0, "C3SQL")).expect("served");
            assert!(!first.cache_hit, "first execution must miss");
            assert!(second.cache_hit, "identical repeat must hit");
            // outcome-neutrality: hit and miss agree on everything
            assert_eq!(first.ex, second.ex);
            assert_eq!(first.em, second.em);
            assert_eq!(first.pred_sql, second.pred_sql);
            assert_eq!(first.pred_work, second.pred_work);
            assert!(handle.cache_len() >= 1);
        });
    }

    #[test]
    fn canonical_cache_key_raises_hit_rate_with_identical_outcomes() {
        // The loadgen dedup workload in miniature: every method answers the
        // same questions, and correct predictions differ from gold (and
        // each other) only by surface restyling — flipped comparisons,
        // expanded BETWEENs, qualified columns. The canonical key must
        // unify strictly more of those than the normalized-text key while
        // returning byte-identical outcomes per request.
        let ctx = EvalContext::new(corpus());
        let methods = ["C3SQL", "DINSQL", "DAILSQL", "SFT CodeS-7B", "RESDSQL-3B"];
        let mut plan = Vec::new();
        for i in 0..corpus().dev.len().min(40) {
            for m in &methods {
                plan.push((i, *m));
            }
        }
        let run = |canonical: bool| {
            let config = ServeConfig::builder()
                .workers(1)
                .canonical_cache_key(canonical)
                .build()
                .expect("valid config");
            let mut outcomes = Vec::new();
            let mut hits = 0usize;
            Service::run_with_methods(config, &ctx, &methods, |handle| {
                for &(i, m) in &plan {
                    let r = handle.query(request(&corpus().dev[i], 0, m)).expect("served");
                    hits += r.cache_hit as usize;
                    outcomes.push((r.ex, r.em, r.pred_sql, r.pred_work, r.exec_failure));
                }
            });
            (outcomes, hits)
        };
        let (base_outcomes, base_hits) = run(false);
        let (canon_outcomes, canon_hits) = run(true);
        assert_eq!(base_outcomes, canon_outcomes, "cache key must be outcome-neutral");
        assert!(
            canon_hits > base_hits,
            "canonical key must unify restyled predictions: {canon_hits} vs {base_hits}"
        );
    }

    #[test]
    fn builder_rejects_zero_sizes_at_construction() {
        assert_eq!(
            ServeConfig::builder().workers(0).build(),
            Err(ServeConfigError::ZeroWorkers)
        );
        assert_eq!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ServeConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            ServeConfig::builder().max_batch(0).build(),
            Err(ServeConfigError::ZeroMaxBatch)
        );
        assert_eq!(
            ServeConfig::builder().cache_shards(0).build(),
            Err(ServeConfigError::ZeroCacheShards)
        );
        assert_eq!(
            ServeConfig::builder().cache_capacity_per_shard(0).build(),
            Err(ServeConfigError::ZeroCacheCapacity)
        );
        assert_eq!(
            ServeConfig::builder().trace_process("").build(),
            Err(ServeConfigError::EmptyTraceProcess)
        );
        // the admin endpoint is unauthenticated plaintext — loopback only
        assert_eq!(
            ServeConfig::builder().admin_addr("192.0.2.1:9090".parse().unwrap()).build(),
            Err(ServeConfigError::NonLoopbackAdmin)
        );
        // errors explain themselves
        let msg = ServeConfig::builder().workers(0).build().unwrap_err().to_string();
        assert!(msg.contains("workers"), "{msg}");
    }

    #[test]
    fn builder_produces_a_validated_config() {
        let config = ServeConfig::builder()
            .workers(3)
            .queue_capacity(17)
            .max_batch(4)
            .cache_shards(2)
            .cache_capacity_per_shard(9)
            .admin_addr("127.0.0.1:0".parse().unwrap())
            .static_check(true)
            .canonical_cache_key(true)
            .request_tracing(true)
            .warehouse(true)
            .trace_process("w1")
            .build()
            .expect("all sizes nonzero");
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_capacity, 17);
        assert_eq!(config.max_batch, 4);
        assert_eq!(config.cache_shards, 2);
        assert_eq!(config.cache_capacity_per_shard, 9);
        assert_eq!(config.admin_addr, Some("127.0.0.1:0".parse().unwrap()));
        assert!(config.static_check);
        assert!(config.canonical_cache_key);
        assert!(config.request_tracing && config.warehouse);
        assert_eq!(config.trace_process, "w1");
        assert!(!ServeConfig::default().static_check, "static check must be opt-in");
        assert!(
            !ServeConfig::default().request_tracing && !ServeConfig::default().warehouse,
            "tracing and the warehouse must be opt-in"
        );
        assert!(config.validate().is_ok());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn run_panics_on_invalid_config_with_builder_hint() {
        let ctx = EvalContext::new(corpus());
        let bad = ServeConfig { workers: 0, ..ServeConfig::default() };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Service::run_with_methods(bad, &ctx, &["C3SQL"], |_| ())
        }))
        .expect_err("zero workers must be rejected");
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("ServeConfig::builder"), "{msg}");
    }

    #[test]
    fn responses_and_errors_round_trip_through_serde() {
        let resp = QueryResponse {
            ex: true,
            em: false,
            pred_sql: "SELECT 1".into(),
            pred_work: Some(42),
            exec_failure: None,
            cache_hit: true,
            batch_size: 3,
            latency: Duration::from_micros(1234),
            trace_id: "00000000000000ab".into(),
        };
        let json = serde_json::to_string(&resp).expect("serializes");
        let back: QueryResponse = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.pred_sql, resp.pred_sql);
        assert_eq!(back.pred_work, resp.pred_work);
        assert_eq!(back.latency, resp.latency);

        // a failing execution keeps its minidb error kind through serde
        let failed = QueryResponse {
            exec_failure: Some(ExecFailureKind::UnknownColumn),
            ex: false,
            pred_work: None,
            ..resp.clone()
        };
        let json = serde_json::to_string(&failed).expect("serializes");
        let back: QueryResponse = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.exec_failure, Some(ExecFailureKind::UnknownColumn));

        // logs written before exec_failure existed still parse (defaulted)
        let old = json.replace(",\"exec_failure\":\"UnknownColumn\"", "");
        assert!(!old.contains("exec_failure"), "field removal failed: {old}");
        let back: QueryResponse = serde_json::from_str(&old).expect("old log parses");
        assert_eq!(back.exec_failure, None);

        for err in [
            QueryError::Overloaded,
            QueryError::UnknownMethod("DINSQL".into()),
            QueryError::StaticRejected(vec!["unknown-column".into(), "function-arity".into()]),
            QueryError::Internal,
        ] {
            let json = serde_json::to_string(&err).expect("serializes");
            let back: QueryError = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, err);
        }
    }

    #[test]
    fn snapshot_splits_queue_wait_from_exec_time() {
        let ctx = EvalContext::new(corpus());
        Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
            for sample in corpus().dev.iter().take(8) {
                handle.query(request(sample, 0, "C3SQL")).expect("served");
            }
            let m = handle.metrics();
            assert!(m.queue_p50.is_some(), "queue-wait histogram must fill");
            assert!(m.exec_p50.is_some(), "exec-time histogram must fill");
            // total latency covers both phases, so its p99 can't undercut
            // the exec p50 by more than bucket resolution
            assert!(m.p99 >= m.exec_p50);
            assert!(m.exec_failures.iter().all(|&(_, n)| n > 0));
        });
    }

    #[test]
    fn static_check_rejects_invalid_sql_and_is_neutral_for_the_rest() {
        let ctx = EvalContext::new(corpus());
        let n = corpus().dev.len().min(60);
        // Baseline pass with the check off: every request gets a normal
        // response (simulated models never refuse on this corpus slice).
        let baseline: Vec<Result<QueryResponse, QueryError>> =
            Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
                corpus().dev.iter().take(n).map(|s| handle.query(request(s, 0, "C3SQL"))).collect()
            });
        let config = ServeConfig::builder().static_check(true).build().expect("valid config");
        let (checked, text) =
            Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
                let replies: Vec<Result<QueryResponse, QueryError>> = corpus()
                    .dev
                    .iter()
                    .take(n)
                    .map(|s| handle.query(request(s, 0, "C3SQL")))
                    .collect();
                let m = handle.metrics();
                assert_eq!(m.lost(), 0, "static rejections must still count as answered");
                assert!(m.static_rejected > 0, "corpus 91 simulated SQL must trip the check");
                assert_eq!(
                    m.static_rejected,
                    replies.iter().filter(|r| matches!(r, Err(QueryError::StaticRejected(_)))).count()
                        as u64,
                    "snapshot counter must match observed rejections"
                );
                (replies, handle.metrics_text())
            });
        assert!(
            text.contains("serve_static_rejects_total{rule="),
            "per-rule rejection counters must be scrapable:\n{text}"
        );
        let mut rejected = 0usize;
        let mut rejected_and_failed = 0usize;
        for (base, chk) in baseline.iter().zip(&checked) {
            match chk {
                Err(QueryError::StaticRejected(rules)) => {
                    rejected += 1;
                    assert!(!rules.is_empty(), "rejection must name the rules that fired");
                    assert!(
                        rules.iter().all(|r| sqlcheck::Rule::from_id(r).is_some()),
                        "rule ids must be registry-stable: {rules:?}"
                    );
                    // minidb evaluates row-at-a-time, so a bad column in
                    // SELECT is masked when the WHERE matches zero rows —
                    // some statically-certain errors "execute fine". They
                    // still never produce a correct answer.
                    let resp = base.as_ref().expect("baseline answered");
                    rejected_and_failed += resp.exec_failure.is_some() as usize;
                }
                Ok(resp) => {
                    // Neutrality: everything the check admits is
                    // byte-identical to the uncensored run.
                    let b = base.as_ref().expect("baseline answered");
                    assert_eq!(resp.ex, b.ex);
                    assert_eq!(resp.em, b.em);
                    assert_eq!(resp.pred_sql, b.pred_sql);
                    assert_eq!(resp.pred_work, b.pred_work);
                    assert_eq!(resp.exec_failure, b.exec_failure);
                }
                Err(e) => panic!("unexpected error with static_check on: {e}"),
            }
        }
        assert!(rejected > 0);
        assert!(
            rejected_and_failed > 0,
            "at least one rejection must line up with a baseline exec failure"
        );
    }

    #[test]
    fn drain_answers_every_admitted_request() {
        let ctx = EvalContext::new(corpus());
        let tickets = Service::run_with_methods(
            ServeConfig { workers: 2, ..ServeConfig::default() },
            &ctx,
            &["C3SQL", "DAILSQL"],
            |handle| {
                let mut tickets = Vec::new();
                for (i, sample) in corpus().dev.iter().enumerate().take(40) {
                    let method = if i % 2 == 0 { "C3SQL" } else { "DAILSQL" };
                    tickets.push(handle.submit(request(sample, 0, method)).expect("admitted"));
                }
                tickets
                // NOTE: closure returns with requests possibly still queued
            },
        );
        for t in tickets {
            assert!(t.wait().is_ok(), "drained request must still be answered");
        }
    }
}
