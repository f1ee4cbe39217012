//! The scheduler: client front door, membership, routing, and the reaper.
//!
//! One loopback TCP listener serves both audiences — the first frame on a
//! connection decides its role. A [`Register`] makes it a worker control
//! connection (heartbeats flow in, eviction closes it); a [`Submit`]
//! makes it a client connection (requests flow in, replies flow out,
//! matched by id).
//!
//! Routing: each request hashes to `key_hash(db_id, question)` and the
//! consistent-hash [`Ring`](crate::ring::Ring) over *ready* workers picks
//! the owner. Jobs queue per worker; a small pool of forwarder streams
//! per worker (serial request/reply each) drains the queue over TCP.
//! When no worker is ready, jobs wait in a scheduler-wide pending queue
//! and are re-dispatched the moment a worker registers or turns ready —
//! so clients may connect and submit before any worker exists.
//!
//! Exactly-once replies, structurally: every job the scheduler has
//! accepted lives in exactly one place — a worker queue, a forwarder's
//! in-flight slot (`Option<Job>`), the pending queue, or (terminally) its
//! reply channel. Success takes the job from its slot and answers it; an
//! eviction takes whatever the dead worker held and requeues it through
//! the same dispatch path with a bumped attempt count; bounded retries
//! end in an [`Internal`](QueryError::Internal) reply rather than
//! silence. Two takers can never both win a slot, so the client sees
//! exactly one reply per id no matter how the worker died.
//!
//! Failure detection is layered: a forward IO error or a control-
//! connection EOF evicts immediately (a SIGKILLed worker's sockets close
//! right away), and the reaper sweeps on heartbeat silence (strictly
//! `now - last_heartbeat > timeout`) for workers that wedge without
//! dying. The eviction log line carries the worker's last self-reported
//! `/readyz` reason, so "died while saturated" and "died while draining"
//! are distinguishable post-mortem.

use crate::admin;
use crate::ring::Ring;
use crossbeam::channel;
use obs::registry::{Counter, CounterVec, Gauge, HistogramVec, Registry};
use serde::Serialize;
use serve::proto::{read_frame, write_frame, Message};
use serve::trace::{format_trace_id, SpanRecord, TraceStore};
use serve::{hash, QueryError, QueryRequest, QueryReply, TraceContext};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler tunables; `Default` suits tests and the bin's defaults.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Client + worker-control listener (loopback; port 0 = ephemeral).
    pub listen: SocketAddr,
    /// Admin HTTP endpoint (`/metrics`, `/workers`, ...); `None` = none.
    pub admin_addr: Option<SocketAddr>,
    /// Evict a worker after this much heartbeat silence (strictly more).
    pub heartbeat_timeout: Duration,
    /// How often the reaper sweeps for silent workers.
    pub reap_interval: Duration,
    /// Total forward attempts per request (first try + retries) before
    /// the scheduler gives up with [`QueryError::Internal`].
    pub max_attempts: u32,
    /// Concurrent forwarder connections per worker; each carries one
    /// request at a time, so this bounds scheduler-side in-flight work
    /// per worker (and with it, the worst-case requeue burst).
    pub streams_per_worker: usize,
    /// Virtual nodes per worker on the routing ring.
    pub vnodes: usize,
    /// Read deadline for one forwarded request's reply; a worker that
    /// holds a stream longer is treated as failed on that stream.
    pub forward_timeout: Duration,
    /// Mint a `trace_id` per submitted request, record the scheduler's
    /// own routing spans (`sched.request`/`sched.forward`/`sched.requeue`),
    /// forward the context to workers, and merge the worker-side spans
    /// shipped back on `ExecuteResult` frames into one cross-process tree,
    /// served on the admin `GET /v1/traces/<id>`. Off by default.
    pub request_tracing: bool,
    /// Run the scheduler's telemetry warehouse: completed span trees into
    /// `trace_spans` and periodic cluster-metrics snapshots into
    /// `metrics_history`, queryable through the admin `POST /v1/sql` raw
    /// arm. Off by default.
    pub warehouse: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            listen: loopback_any(),
            admin_addr: None,
            heartbeat_timeout: Duration::from_secs(3),
            reap_interval: Duration::from_millis(250),
            max_attempts: 3,
            streams_per_worker: 2,
            vnodes: crate::ring::DEFAULT_VNODES,
            forward_timeout: Duration::from_secs(30),
            request_tracing: false,
            warehouse: false,
        }
    }
}

fn loopback_any() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback literal parses")
}

/// One routed request. A job is always owned by exactly one container
/// (worker queue / in-flight slot / pending queue) until it is answered.
struct Job {
    /// The client's id on its connection; echoed in the reply frame.
    client_id: u64,
    request: QueryRequest,
    /// `key_hash(db_id, question)` — computed once at admission.
    shard: u64,
    /// Forward attempts consumed so far.
    attempts: u32,
    /// Where the reply goes: the client connection's writer (TCP) or the
    /// embedded caller's channel.
    reply: channel::Sender<(u64, QueryReply)>,
    /// Trace id minted at admission; 0 when tracing is off.
    trace_id: u64,
    /// The `sched.request` root span every hop of this job parents to.
    root_span: u64,
    /// When the scheduler accepted the job (root span start).
    accepted: Instant,
}

struct WorkerQueueState {
    queue: VecDeque<Job>,
    /// One slot per forwarder stream; `Some` while that stream has a
    /// request on the wire.
    in_flight: Vec<Option<Job>>,
    /// Set by eviction; forwarders drain out and refuse new work.
    dead: bool,
}

struct WorkerQueue {
    state: Mutex<WorkerQueueState>,
    not_empty: Condvar,
}

impl WorkerQueue {
    fn new(streams: usize) -> Arc<WorkerQueue> {
        Arc::new(WorkerQueue {
            state: Mutex::new(WorkerQueueState {
                queue: VecDeque::new(),
                in_flight: (0..streams).map(|_| None).collect(),
                dead: false,
            }),
            not_empty: Condvar::new(),
        })
    }
}

struct Member {
    serve_addr: String,
    /// Monotonic incarnation number; a re-registration under the same
    /// worker id gets a new generation, and evictions/heartbeats against
    /// a stale generation are no-ops (the ABA guard for worker restarts).
    generation: u64,
    /// Milliseconds on the scheduler clock; registration counts as the
    /// first heartbeat.
    last_heartbeat_ms: u64,
    ready: bool,
    /// Last `/readyz` failure body the worker reported, kept after it
    /// turns ready again so eviction can say what the worker last
    /// complained about.
    last_reason: Option<String>,
    queue_depth: u64,
    completed: u64,
    methods: Vec<String>,
    queue: Arc<WorkerQueue>,
}

struct Routing {
    members: HashMap<String, Member>,
    /// Ring over ready members only.
    ring: Ring,
    /// Jobs with no ready owner yet.
    pending: VecDeque<Job>,
    shutdown: bool,
}

/// Labeled + aggregate metric families for the scheduler's own plane.
pub(crate) struct ClusterMetrics {
    pub registry: Registry,
    pub submitted: Counter,
    pub forwarded: CounterVec,
    pub forwarded_all: Counter,
    pub requeued: CounterVec,
    pub requeued_all: Counter,
    pub reaped: CounterVec,
    pub reaped_all: Counter,
    pub retries_exhausted: Counter,
    pub replied: CounterVec,
    pub forward_latency: HistogramVec,
    pub workers_ready: Gauge,
    pub workers_total: Gauge,
    pub pending_depth: Gauge,
}

impl ClusterMetrics {
    fn new() -> ClusterMetrics {
        let registry = Registry::new();
        let submitted = registry
            .counter_vec("cluster_submitted_total", "Requests accepted for routing.", &[])
            .with(&[]);
        let forwarded = registry.counter_vec(
            "cluster_forwarded_total",
            "Requests answered through a worker, by worker id.",
            &["worker"],
        );
        let forwarded_all = registry
            .counter_vec("cluster_forwarded_all_total", "Requests answered through any worker.", &[])
            .with(&[]);
        let requeued = registry.counter_vec(
            "cluster_requeued_total",
            "Jobs taken back from a failed worker and re-dispatched, by worker id.",
            &["worker"],
        );
        let requeued_all = registry
            .counter_vec("cluster_requeued_all_total", "Jobs requeued from any worker.", &[])
            .with(&[]);
        let reaped = registry.counter_vec(
            "cluster_reaped_workers_total",
            "Worker evictions (heartbeat timeout, IO failure, or control-connection loss), by worker id.",
            &["worker"],
        );
        let reaped_all = registry
            .counter_vec("cluster_reaped_workers_all_total", "Worker evictions, any worker.", &[])
            .with(&[]);
        let retries_exhausted = registry
            .counter_vec(
                "cluster_retries_exhausted_total",
                "Jobs answered Internal after exhausting forward attempts.",
                &[],
            )
            .with(&[]);
        let replied = registry.counter_vec(
            "cluster_replied_total",
            "Replies delivered to clients, by outcome.",
            &["outcome"],
        );
        let forward_latency = registry.histogram_vec(
            "cluster_forward_latency_us",
            "Submit-to-reply forward latency through a worker, microseconds, by worker id.",
            &["worker"],
        );
        let workers_ready =
            registry.gauge_vec("cluster_workers_ready", "Registered workers currently ready.", &[]).with(&[]);
        let workers_total =
            registry.gauge_vec("cluster_workers_total", "Registered workers.", &[]).with(&[]);
        let pending_depth = registry
            .gauge_vec("cluster_pending_depth", "Jobs waiting with no ready owner.", &[])
            .with(&[]);
        ClusterMetrics {
            registry,
            submitted,
            forwarded,
            forwarded_all,
            requeued,
            requeued_all,
            reaped,
            reaped_all,
            retries_exhausted,
            replied,
            forward_latency,
            workers_ready,
            workers_total,
            pending_depth,
        }
    }
}

pub(crate) struct Inner {
    config: SchedulerConfig,
    routing: Mutex<Routing>,
    started: Instant,
    next_generation: AtomicU64,
    pub(crate) metrics: ClusterMetrics,
    pub(crate) stop: AtomicBool,
    listen_addr: SocketAddr,
    pub(crate) admin_addr: Option<SocketAddr>,
    /// Span store for the scheduler's own hops plus merged worker spans;
    /// `Some` iff `config.request_tracing`.
    pub(crate) traces: Option<TraceStore>,
    /// The scheduler's telemetry warehouse; `Some` iff `config.warehouse`.
    pub(crate) warehouse: Option<Mutex<nl2sql360::EvalStore>>,
}

/// Point-in-time view of one member, for `/workers` and tests.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerSnapshot {
    /// Worker id as registered.
    pub worker_id: String,
    /// Where the scheduler forwards this worker's work.
    pub serve_addr: String,
    /// Incarnation number of the current registration.
    pub generation: u64,
    /// Whether the worker last reported ready.
    pub ready: bool,
    /// Last `/readyz` failure reason the worker ever reported.
    pub last_reason: Option<String>,
    /// Milliseconds since the last heartbeat, on the scheduler clock.
    pub heartbeat_age_ms: u64,
    /// Scheduler-side jobs queued for this worker.
    pub scheduler_queue: usize,
    /// Scheduler-side jobs currently on the wire to this worker.
    pub in_flight: usize,
    /// The worker's own admission-queue depth, as last reported.
    pub worker_queue_depth: u64,
    /// Requests the worker reports having completed.
    pub completed: u64,
    /// Methods the worker registered with.
    pub methods: Vec<String>,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Admit one request: hash, count, mint its trace, dispatch.
    pub(crate) fn submit_job(
        self: &Arc<Inner>,
        client_id: u64,
        reply: channel::Sender<(u64, QueryReply)>,
        request: QueryRequest,
    ) {
        let shard = hash::key_hash(&request.db_id, &request.question);
        self.metrics.submitted.inc();
        let (trace_id, root_span) = match &self.traces {
            Some(store) => {
                let id = store.mint(&request.db_id, &request.question, &request.method);
                (id, store.next_span_id())
            }
            None => (0, 0),
        };
        self.dispatch(Job {
            client_id,
            request,
            shard,
            attempts: 0,
            reply,
            trace_id,
            root_span,
            accepted: Instant::now(),
        });
    }

    /// Route a job to its ring owner's queue, or park it pending.
    fn dispatch(self: &Arc<Inner>, job: Job) {
        let mut routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        if routing.shutdown {
            self.answer(&job, Err(QueryError::Overloaded));
            return;
        }
        let owner = routing.ring.owner(job.shard).map(str::to_string);
        match owner.and_then(|id| routing.members.get(&id).map(|m| Arc::clone(&m.queue))) {
            Some(queue) => {
                let mut st = queue.state.lock().unwrap_or_else(|e| e.into_inner());
                if st.dead {
                    // lost a race with an eviction that has not rebuilt the
                    // ring yet; park the job, the next membership change
                    // re-dispatches it
                    drop(st);
                    routing.pending.push_back(job);
                } else {
                    st.queue.push_back(job);
                    drop(st);
                    queue.not_empty.notify_one();
                }
            }
            None => routing.pending.push_back(job),
        }
    }

    /// Deliver the terminal reply for a job, closing its root span first
    /// so a client holding the reply can already read the full trace.
    fn answer(&self, job: &Job, reply: QueryReply) {
        let outcome = if reply.is_ok() { "ok" } else { "error" };
        if let (Some(store), true) = (&self.traces, job.trace_id != 0) {
            let attrs = format!("outcome={outcome} attempts={}", job.attempts + 1);
            let root = job.accepted..Instant::now();
            let span = store.span(job.trace_id, job.root_span, 0, "sched.request", root, attrs);
            store.append(job.trace_id, vec![span], true);
        }
        self.metrics.replied.with(&[outcome]).inc();
        let _ = job.reply.send((job.client_id, reply));
    }

    /// Re-dispatch a job taken back from a failed worker; a job that has
    /// burned all its attempts is answered `Internal` instead of looping.
    fn requeue(self: &Arc<Inner>, mut job: Job) {
        job.attempts += 1;
        // the retry hop, visible in the trace as an instantaneous span
        if let (Some(store), true) = (&self.traces, job.trace_id != 0) {
            let now = Instant::now();
            let attrs = format!("attempt={}", job.attempts);
            let id = store.next_span_id();
            let span = store.span(job.trace_id, id, job.root_span, "sched.requeue", now..now, attrs);
            store.append(job.trace_id, vec![span], false);
        }
        if job.attempts >= self.config.max_attempts {
            self.metrics.retries_exhausted.inc();
            self.answer(&job, Err(QueryError::Internal));
            return;
        }
        self.dispatch(job);
    }

    /// Register (or re-register) a worker at an explicit clock reading.
    /// Returns the new generation. Public wrappers feed the real clock;
    /// tests feed edge-case timestamps.
    fn register_at(
        self: &Arc<Inner>,
        now_ms: u64,
        worker_id: &str,
        serve_addr: &str,
        methods: Vec<String>,
    ) -> u64 {
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
        let queue = WorkerQueue::new(self.config.streams_per_worker.max(1));
        let displaced = {
            let mut routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
            let member = Member {
                serve_addr: serve_addr.to_string(),
                generation,
                last_heartbeat_ms: now_ms,
                ready: true,
                last_reason: None,
                queue_depth: 0,
                completed: 0,
                methods,
                queue: Arc::clone(&queue),
            };
            let displaced = routing
                .members
                .insert(worker_id.to_string(), member)
                .map(|old| self.kill_queue(&old.queue));
            self.rebuild_ring(&mut routing);
            let pending: Vec<Job> = routing.pending.drain(..).collect();
            drop(routing);
            // re-dispatch parked work now that the ring changed
            for job in pending {
                self.dispatch(job);
            }
            displaced
        };
        // a replaced incarnation's leftovers retry elsewhere (often on the
        // new incarnation itself)
        if let Some(jobs) = displaced {
            for job in jobs {
                self.metrics.requeued.with(&[worker_id]).inc();
                self.metrics.requeued_all.inc();
                self.requeue(job);
            }
        }
        for slot in 0..self.config.streams_per_worker.max(1) {
            let inner = Arc::clone(self);
            let queue = Arc::clone(&queue);
            let worker_id = worker_id.to_string();
            let serve_addr = serve_addr.to_string();
            std::thread::spawn(move || {
                stream_loop(inner, worker_id, generation, serve_addr, queue, slot)
            });
        }
        generation
    }

    pub(crate) fn register(
        self: &Arc<Inner>,
        worker_id: &str,
        serve_addr: &str,
        methods: Vec<String>,
    ) -> u64 {
        self.register_at(self.now_ms(), worker_id, serve_addr, methods)
    }

    /// Apply a heartbeat at an explicit clock reading. Returns false when
    /// the (worker, generation) is no longer a member — the control
    /// connection should close so the worker re-registers.
    #[allow(clippy::too_many_arguments)]
    fn heartbeat_at(
        self: &Arc<Inner>,
        now_ms: u64,
        worker_id: &str,
        generation: u64,
        ready: bool,
        reason: Option<String>,
        queue_depth: u64,
        completed: u64,
    ) -> bool {
        let mut routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        let became_ready;
        match routing.members.get_mut(worker_id) {
            Some(m) if m.generation == generation => {
                m.last_heartbeat_ms = now_ms;
                became_ready = ready && !m.ready;
                let flipped = m.ready != ready;
                m.ready = ready;
                if let Some(r) = reason {
                    m.last_reason = Some(r);
                }
                m.queue_depth = queue_depth;
                m.completed = completed;
                if flipped {
                    self.rebuild_ring(&mut routing);
                }
            }
            _ => return false,
        }
        if became_ready {
            let pending: Vec<Job> = routing.pending.drain(..).collect();
            drop(routing);
            for job in pending {
                self.dispatch(job);
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn heartbeat(
        self: &Arc<Inner>,
        worker_id: &str,
        generation: u64,
        ready: bool,
        reason: Option<String>,
        queue_depth: u64,
        completed: u64,
    ) -> bool {
        self.heartbeat_at(self.now_ms(), worker_id, generation, ready, reason, queue_depth, completed)
    }

    /// Mark a queue dead and take every job it still holds (queued and
    /// in-flight). Caller must requeue the returned jobs *after*
    /// releasing the routing lock.
    fn kill_queue(&self, queue: &Arc<WorkerQueue>) -> Vec<Job> {
        let mut st = queue.state.lock().unwrap_or_else(|e| e.into_inner());
        st.dead = true;
        let mut jobs: Vec<Job> = st.queue.drain(..).collect();
        for slot in st.in_flight.iter_mut() {
            if let Some(job) = slot.take() {
                jobs.push(job);
            }
        }
        drop(st);
        queue.not_empty.notify_all();
        jobs
    }

    /// Remove a member (generation-guarded) and requeue everything it
    /// held. Returns the eviction log line when the eviction happened, so
    /// callers print it and tests can assert on it.
    pub(crate) fn evict(self: &Arc<Inner>, worker_id: &str, generation: u64, why: &str) -> Option<String> {
        let (jobs, line) = {
            let mut routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
            match routing.members.get(worker_id) {
                Some(m) if m.generation == generation => {}
                _ => return None,
            }
            let member = routing.members.remove(worker_id).expect("member checked above");
            self.rebuild_ring(&mut routing);
            let jobs = self.kill_queue(&member.queue);
            let line = format!(
                "evicting worker {worker_id} (gen {generation}): {why}; requeueing {} job(s); last reported readiness: {}",
                jobs.len(),
                member.last_reason.as_deref().unwrap_or("never unready"),
            );
            (jobs, line)
        };
        self.metrics.reaped.with(&[worker_id]).inc();
        self.metrics.reaped_all.inc();
        for job in jobs {
            self.metrics.requeued.with(&[worker_id]).inc();
            self.metrics.requeued_all.inc();
            self.requeue(job);
        }
        Some(line)
    }

    /// One reaper sweep at an explicit clock reading: evict every member
    /// whose heartbeat silence strictly exceeds the timeout. Returns the
    /// eviction log lines.
    fn reap_at(self: &Arc<Inner>, now_ms: u64) -> Vec<String> {
        let timeout_ms = self.config.heartbeat_timeout.as_millis() as u64;
        let stale: Vec<(String, u64, u64)> = {
            let routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
            routing
                .members
                .iter()
                .filter(|(_, m)| now_ms.saturating_sub(m.last_heartbeat_ms) > timeout_ms)
                .map(|(id, m)| (id.clone(), m.generation, now_ms.saturating_sub(m.last_heartbeat_ms)))
                .collect()
        };
        stale
            .into_iter()
            .filter_map(|(id, generation, silence)| {
                self.evict(&id, generation, &format!("heartbeat silence {silence}ms > {timeout_ms}ms"))
            })
            .collect()
    }

    /// Ring over ready members only; call with the routing lock held.
    fn rebuild_ring(&self, routing: &mut Routing) {
        let ready: Vec<&str> =
            routing.members.iter().filter(|(_, m)| m.ready).map(|(id, _)| id.as_str()).collect();
        routing.ring = Ring::build(&ready, self.config.vnodes);
    }

    pub(crate) fn refresh_gauges(&self) {
        let routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        self.metrics.workers_total.set(routing.members.len() as u64);
        self.metrics.workers_ready.set(routing.members.values().filter(|m| m.ready).count() as u64);
        self.metrics.pending_depth.set(routing.pending.len() as u64);
    }

    pub(crate) fn workers(&self) -> Vec<WorkerSnapshot> {
        let now = self.now_ms();
        let routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<WorkerSnapshot> = routing
            .members
            .iter()
            .map(|(id, m)| {
                let st = m.queue.state.lock().unwrap_or_else(|e| e.into_inner());
                WorkerSnapshot {
                    worker_id: id.clone(),
                    serve_addr: m.serve_addr.clone(),
                    generation: m.generation,
                    ready: m.ready,
                    last_reason: m.last_reason.clone(),
                    heartbeat_age_ms: now.saturating_sub(m.last_heartbeat_ms),
                    scheduler_queue: st.queue.len(),
                    in_flight: st.in_flight.iter().filter(|s| s.is_some()).count(),
                    worker_queue_depth: m.queue_depth,
                    completed: m.completed,
                    methods: m.methods.clone(),
                }
            })
            .collect();
        out.sort_by(|a, b| a.worker_id.cmp(&b.worker_id));
        out
    }

    pub(crate) fn ready_workers(&self) -> usize {
        let routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        routing.members.values().filter(|m| m.ready).count()
    }

    /// Begin shutdown: refuse new work, wake both acceptors, fail parked
    /// jobs, wake forwarders.
    fn shutdown(self: &Arc<Inner>) {
        self.stop.store(true, Ordering::SeqCst);
        serve::wake_listener(self.listen_addr);
        if let Some(addr) = self.admin_addr {
            serve::wake_listener(addr);
        }
        let (pending, queues): (Vec<Job>, Vec<Arc<WorkerQueue>>) = {
            let mut routing = self.routing.lock().unwrap_or_else(|e| e.into_inner());
            routing.shutdown = true;
            (
                routing.pending.drain(..).collect(),
                routing.members.values().map(|m| Arc::clone(&m.queue)).collect(),
            )
        };
        for job in pending {
            self.answer(&job, Err(QueryError::Overloaded));
        }
        // Notify under each queue's lock: a forwarder that read `stop ==
        // false` under it is then already waiting, and one that has not
        // read it yet will see `true`. Unlocked, the wake could land in
        // between and be lost.
        for queue in queues {
            let _st = queue.state.lock().unwrap_or_else(|e| e.into_inner());
            queue.not_empty.notify_all();
        }
    }
}

/// One forwarder stream: serially take a job, put it in this stream's
/// in-flight slot, push it over TCP, then race the evictor for the slot.
fn stream_loop(
    inner: Arc<Inner>,
    worker_id: String,
    generation: u64,
    serve_addr: String,
    queue: Arc<WorkerQueue>,
    slot: usize,
) {
    let mut conn: Option<TcpStream> = None;
    let mut next_id: u64 = 0;
    loop {
        let job = {
            let mut st = queue.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.dead {
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    // drained: nothing queued, nothing to wait for
                    return;
                }
                st = queue.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut request = job.request.clone();
        let client_id = job.client_id;
        // Thread the trace across the process boundary: the worker's root
        // span parents to this forward hop's span, minted before the wire.
        let trace = (job.trace_id != 0)
            .then(|| inner.traces.as_ref())
            .flatten()
            .map(|store| (job.trace_id, job.root_span, job.attempts, store.next_span_id()));
        if let Some((trace_id, _, _, forward_span)) = &trace {
            request.trace =
                Some(TraceContext { trace_id: format_trace_id(*trace_id), parent_span: *forward_span });
        }
        {
            let mut st = queue.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.dead {
                // eviction won the race between our pop and slot placement;
                // hand the job back through the normal retry path
                drop(st);
                inner.metrics.requeued.with(&[&worker_id]).inc();
                inner.metrics.requeued_all.inc();
                inner.requeue(job);
                return;
            }
            st.in_flight[slot] = Some(job);
        }
        let started = Instant::now();
        next_id += 1;
        let timeout = inner.config.forward_timeout;
        let mut result = forward(&mut conn, &serve_addr, timeout, next_id, &request);
        let ended = Instant::now();
        // a None slot means an eviction already took (and requeued) the
        // job: after a success the requeued run answers the client, so
        // this result is the duplicate and is dropped, its spans with it
        let taken = queue.state.lock().unwrap_or_else(|e| e.into_inner()).in_flight[slot].take();
        if let (Some(store), Some((trace_id, root_span, attempts, forward_span))) =
            (&inner.traces, trace)
        {
            // a failed hop lands in the trace too: this is what a retry
            // storm looks like when queried from the warehouse
            let worker_spans = match &mut result {
                Ok((_, spans)) => taken.is_some().then(|| std::mem::take(spans)),
                Err(_) => Some(Vec::new()),
            };
            if let Some(worker_spans) = worker_spans {
                let error = if result.is_err() { " error=1" } else { "" };
                let attrs = format!("worker={worker_id} attempt={}{error}", attempts + 1);
                let name = "sched.forward";
                let hop = store.span(trace_id, forward_span, root_span, name, started..ended, attrs);
                let mut spans = vec![hop];
                spans.extend(worker_spans);
                store.append(trace_id, spans, false);
            }
        }
        match result {
            Ok((reply, _)) => {
                if let Some(job) = taken {
                    inner.metrics.forwarded.with(&[&worker_id]).inc();
                    inner.metrics.forwarded_all.inc();
                    let latency = (ended - started).as_micros() as u64;
                    inner.metrics.forward_latency.with(&[&worker_id]).record(latency);
                    inner.answer(&job, reply);
                }
            }
            Err(e) => {
                // an IO failure on loopback means the worker is gone;
                // evict it (no-op if another stream already did)
                if let Some(line) = inner.evict(
                    &worker_id,
                    generation,
                    &format!("forward to {serve_addr} failed for client request {client_id}: {e}"),
                ) {
                    eprintln!("serve-scheduler: {line}");
                }
                if let Some(job) = taken {
                    inner.metrics.requeued.with(&[&worker_id]).inc();
                    inner.metrics.requeued_all.inc();
                    inner.requeue(job);
                }
                return;
            }
        }
    }
}

/// Send one `Execute` and block for its `ExecuteResult` (reply plus the
/// worker-side spans to merge), dialing the worker lazily on first use.
fn forward(
    conn: &mut Option<TcpStream>,
    serve_addr: &str,
    timeout: Duration,
    id: u64,
    request: &QueryRequest,
) -> io::Result<(QueryReply, Vec<SpanRecord>)> {
    if conn.is_none() {
        let parsed: SocketAddr = serve_addr
            .parse()
            .map_err(|e| io::Error::new(ErrorKind::InvalidInput, format!("{serve_addr}: {e}")))?;
        let stream = TcpStream::connect_timeout(&parsed, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        *conn = Some(stream);
    }
    let stream = conn.as_mut().expect("connection dialed above");
    write_frame(stream, &Message::Execute { id, request: request.clone() })?;
    match read_frame(stream)? {
        Message::ExecuteResult { id: got, reply, spans } if got == id => Ok((reply, spans)),
        other => Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected ExecuteResult {id}, got {other:?}"),
        )),
    }
}

/// Handle to a running scheduler, inside [`Scheduler::run`]'s closure.
pub struct SchedulerHandle {
    inner: Arc<Inner>,
}

impl SchedulerHandle {
    /// The bound client/control listener address.
    pub fn client_addr(&self) -> SocketAddr {
        self.inner.listen_addr
    }

    /// The bound admin endpoint, when configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.inner.admin_addr
    }

    /// Embedded closed-loop submit: route a request through the full
    /// scheduler path (ring, worker TCP, retries) and block for the
    /// reply. Tests use this to drive a cluster without a client socket.
    pub fn query(&self, request: QueryRequest) -> QueryReply {
        let (tx, rx) = channel::bounded(1);
        self.inner.submit_job(0, tx, request);
        match rx.recv() {
            Ok((_, reply)) => reply,
            Err(_) => Err(QueryError::Internal),
        }
    }

    /// Current member table.
    pub fn workers(&self) -> Vec<WorkerSnapshot> {
        self.inner.workers()
    }

    /// Registered workers currently ready.
    pub fn ready_workers(&self) -> usize {
        self.inner.ready_workers()
    }

    /// Total requests answered through any worker.
    pub fn forwarded_total(&self) -> u64 {
        self.inner.metrics.forwarded_all.get()
    }

    /// Total jobs taken back from failed workers and re-dispatched.
    pub fn requeued_total(&self) -> u64 {
        self.inner.metrics.requeued_all.get()
    }

    /// Total worker evictions.
    pub fn reaped_total(&self) -> u64 {
        self.inner.metrics.reaped_all.get()
    }

    /// The Prometheus text exposition `/metrics` would serve right now.
    pub fn metrics_text(&self) -> String {
        self.inner.refresh_gauges();
        self.inner.metrics.registry.render_prometheus()
    }

    /// All spans of one trace (external hex id) as held by the
    /// scheduler's store — its own hops plus the merged worker spans.
    /// `None` when tracing is off or the trace is unknown/evicted.
    pub fn trace_spans(&self, trace_id: &str) -> Option<Vec<SpanRecord>> {
        let store = self.inner.traces.as_ref()?;
        store.spans(serve::trace::parse_trace_id(trace_id)?)
    }

    /// Run raw SQL against the scheduler's telemetry warehouse; `None`
    /// when the warehouse is off.
    pub fn store_sql(&self, sql: &str) -> Option<Result<minidb::ResultSet, minidb::ExecError>> {
        self.inner
            .warehouse
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).sql(sql))
    }

    /// Force one warehouse flush right now (tests and scripts use this
    /// instead of sleeping out the flush interval).
    pub fn flush_warehouse(&self) {
        flush_warehouse_tick(&self.inner);
    }
}

/// The scheduler's scoped-run entry point, mirroring [`serve::Service`]:
/// bind, spawn the accept loop + reaper (+ admin), hand the closure a
/// [`SchedulerHandle`], and stop everything when the closure returns.
pub struct Scheduler;

impl Scheduler {
    /// Run a scheduler; returns the closure's result.
    ///
    /// # Panics
    /// Panics when a listener cannot bind.
    pub fn run<R>(config: SchedulerConfig, f: impl FnOnce(&SchedulerHandle) -> R) -> R {
        let listener = TcpListener::bind(config.listen)
            .unwrap_or_else(|e| panic!("bind scheduler listener {}: {e}", config.listen));
        let listen_addr = listener.local_addr().expect("scheduler listener has an addr");
        let admin_listener = config.admin_addr.map(|addr| {
            TcpListener::bind(addr).unwrap_or_else(|e| panic!("bind scheduler admin {addr}: {e}"))
        });
        let admin_addr =
            admin_listener.as_ref().map(|l| l.local_addr().expect("admin listener has an addr"));
        let started = Instant::now();
        let traces = config
            .request_tracing
            .then(|| TraceStore::new("sched", serve::trace::TRACE_CAPACITY, started));
        let warehouse = config.warehouse.then(|| Mutex::new(nl2sql360::EvalStore::new()));
        let inner = Arc::new(Inner {
            config,
            routing: Mutex::new(Routing {
                members: HashMap::new(),
                ring: Ring::default(),
                pending: VecDeque::new(),
                shutdown: false,
            }),
            started,
            next_generation: AtomicU64::new(0),
            metrics: ClusterMetrics::new(),
            stop: AtomicBool::new(false),
            listen_addr,
            admin_addr,
            traces,
            warehouse,
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(listener, inner))
        };
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || reaper_loop(inner))
        };
        let admin = admin_listener.map(|listener| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || admin::run(listener, inner))
        });
        let flusher = inner.warehouse.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                serve::flush_periodically(
                    || inner.stop.load(Ordering::SeqCst),
                    || flush_warehouse_tick(&inner),
                )
            })
        });
        let handle = SchedulerHandle { inner: Arc::clone(&inner) };
        let out = f(&handle);
        inner.shutdown();
        let _ = accept.join();
        let _ = reaper.join();
        if let Some(admin) = admin {
            let _ = admin.join();
        }
        if let Some(flusher) = flusher {
            let _ = flusher.join();
        }
        out
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    serve::accept_until(
        &listener,
        || inner.stop.load(Ordering::SeqCst),
        |stream| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, inner);
            });
        },
    );
}

/// The scheduler's warehouse flush, run by [`serve::flush_periodically`]
/// like the serve engine's and through the same [`serve::flush_warehouse`]:
/// completed cross-process span trees, then the cluster metric families.
fn flush_warehouse_tick(inner: &Arc<Inner>) {
    let Some(warehouse) = &inner.warehouse else { return };
    inner.refresh_gauges();
    let m = &inner.metrics;
    let values = [
        ("submitted", m.submitted.get() as i64),
        ("forwarded", m.forwarded_all.get() as i64),
        ("requeued", m.requeued_all.get() as i64),
        ("reaped_workers", m.reaped_all.get() as i64),
        ("retries_exhausted", m.retries_exhausted.get() as i64),
        ("workers_ready", m.workers_ready.get() as i64),
        ("workers_total", m.workers_total.get() as i64),
        ("pending_depth", m.pending_depth.get() as i64),
    ];
    let mut store = warehouse.lock().unwrap_or_else(|e| e.into_inner());
    let errors = ("cluster.warehouse.trace_insert_error", "cluster.warehouse.metrics_insert_error");
    serve::flush_warehouse(&mut store, inner.traces.as_ref(), inner.started, &values, errors);
}

fn reaper_loop(inner: Arc<Inner>) {
    while serve::sleep_unless(inner.config.reap_interval, || inner.stop.load(Ordering::SeqCst)) {
        for line in inner.reap_at(inner.now_ms()) {
            eprintln!("serve-scheduler: reaper: {line}");
        }
    }
}

/// The first frame decides whether a connection is a worker control
/// channel or a client channel.
fn serve_connection(mut stream: TcpStream, inner: Arc<Inner>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    match read_frame(&mut stream)? {
        Message::Register { worker_id, serve_addr, methods } => {
            control_connection(stream, inner, worker_id, serve_addr, methods)
        }
        Message::Submit { id, request } => client_connection(stream, inner, id, request),
        other => Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected Register or Submit as first frame, got {other:?}"),
        )),
    }
}

/// Worker control channel: heartbeats in; closing it (either side) means
/// the incarnation is over.
fn control_connection(
    mut stream: TcpStream,
    inner: Arc<Inner>,
    worker_id: String,
    serve_addr: String,
    methods: Vec<String>,
) -> io::Result<()> {
    let generation = inner.register(&worker_id, &serve_addr, methods);
    loop {
        match read_frame(&mut stream) {
            Ok(Message::Heartbeat { worker_id: hb_id, ready, reason, queue_depth, completed }) => {
                if hb_id != worker_id
                    || !inner.heartbeat(&worker_id, generation, ready, reason, queue_depth, completed)
                {
                    // stale generation (a newer incarnation registered):
                    // close so the worker reconnects fresh
                    return Ok(());
                }
            }
            Ok(other) => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("expected Heartbeat on control connection, got {other:?}"),
                ));
            }
            Err(e) => {
                // a SIGKILLed worker's control socket closes immediately —
                // evict now instead of waiting out the heartbeat timeout
                if !inner.stop.load(Ordering::SeqCst) {
                    if let Some(line) =
                        inner.evict(&worker_id, generation, &format!("control connection lost: {e}"))
                    {
                        eprintln!("serve-scheduler: {line}");
                    }
                }
                return Ok(());
            }
        }
    }
}

/// Client channel: submits in on this thread, replies out on a writer
/// thread (replies complete out of order; jobs hold the writer's sender).
fn client_connection(
    mut stream: TcpStream,
    inner: Arc<Inner>,
    first_id: u64,
    first_request: QueryRequest,
) -> io::Result<()> {
    let (tx, rx) = channel::unbounded::<(u64, QueryReply)>();
    let mut write_half = stream.try_clone()?;
    let writer = std::thread::spawn(move || {
        while let Ok((id, reply)) = rx.recv() {
            if write_frame(&mut write_half, &Message::SubmitResult { id, reply }).is_err() {
                break;
            }
        }
    });
    inner.submit_job(first_id, tx.clone(), first_request);
    loop {
        match read_frame(&mut stream) {
            Ok(Message::Submit { id, request }) => inner.submit_job(id, tx.clone(), request),
            Ok(other) => {
                drop(tx);
                let _ = writer.join();
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("expected Submit on client connection, got {other:?}"),
                ));
            }
            Err(_) => {
                // client done (or gone); the writer drains outstanding
                // replies and exits once the last job's sender drops
                drop(tx);
                let _ = writer.join();
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An Inner with no sockets: register/heartbeat/reap driven by
    /// explicit clock readings. Forwarder threads spawn but idle on empty
    /// queues and die with the queue, so no TCP is ever dialed.
    fn test_inner(heartbeat_timeout_ms: u64) -> Arc<Inner> {
        Arc::new(Inner {
            config: SchedulerConfig {
                heartbeat_timeout: Duration::from_millis(heartbeat_timeout_ms),
                streams_per_worker: 1,
                ..SchedulerConfig::default()
            },
            routing: Mutex::new(Routing {
                members: HashMap::new(),
                ring: Ring::default(),
                pending: VecDeque::new(),
                shutdown: false,
            }),
            started: Instant::now(),
            next_generation: AtomicU64::new(0),
            metrics: ClusterMetrics::new(),
            stop: AtomicBool::new(false),
            listen_addr: "127.0.0.1:1".parse().unwrap(),
            admin_addr: None,
            traces: None,
            warehouse: None,
        })
    }

    fn hb(inner: &Arc<Inner>, now: u64, id: &str, generation: u64, ready: bool, reason: Option<&str>) -> bool {
        inner.heartbeat_at(now, id, generation, ready, reason.map(str::to_string), 0, 0)
    }

    #[test]
    fn reaper_is_strict_at_the_timeout_boundary() {
        let inner = test_inner(400);
        inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        // silence == timeout: not stale yet
        assert!(inner.reap_at(400).is_empty());
        assert_eq!(inner.workers().len(), 1);
        // one past the boundary: reaped
        let lines = inner.reap_at(401);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("heartbeat silence 401ms > 400ms"), "{}", lines[0]);
        assert!(inner.workers().is_empty());
        assert_eq!(inner.metrics.reaped_all.get(), 1);
    }

    #[test]
    fn registration_counts_as_a_heartbeat() {
        let inner = test_inner(400);
        inner.register_at(1000, "w0", "127.0.0.1:1", vec![]);
        // the silence window starts at registration, not at zero
        assert!(inner.reap_at(1400).is_empty());
        assert_eq!(inner.reap_at(1401).len(), 1);
    }

    #[test]
    fn heartbeats_reset_the_silence_window() {
        let inner = test_inner(400);
        let generation = inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        assert!(hb(&inner, 300, "w0", generation, true, None));
        // 0-based silence would be 401 here; the heartbeat moved the clock
        assert!(inner.reap_at(401).is_empty());
        assert!(inner.reap_at(700).is_empty());
        assert_eq!(inner.reap_at(701).len(), 1);
    }

    #[test]
    fn only_stale_members_are_reaped() {
        let inner = test_inner(400);
        let g0 = inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        let g1 = inner.register_at(0, "w1", "127.0.0.1:2", vec![]);
        assert!(hb(&inner, 500, "w1", g1, true, None));
        let lines = inner.reap_at(600);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("w0"), "{}", lines[0]);
        let left = inner.workers();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].worker_id, "w1");
        let _ = g0;
    }

    #[test]
    fn reregistration_replaces_the_incarnation() {
        let inner = test_inner(400);
        let g1 = inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        let g2 = inner.register_at(10, "w0", "127.0.0.1:9", vec![]);
        assert!(g2 > g1);
        // the old incarnation's heartbeats and evictions are no-ops
        assert!(!hb(&inner, 20, "w0", g1, true, None));
        assert!(inner.evict("w0", g1, "stale").is_none());
        let members = inner.workers();
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].generation, g2);
        assert_eq!(members[0].serve_addr, "127.0.0.1:9");
        // the new incarnation still works
        assert!(hb(&inner, 30, "w0", g2, true, None));
    }

    #[test]
    fn eviction_reports_the_workers_last_reason() {
        let inner = test_inner(400);
        let generation = inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        assert!(hb(&inner, 10, "w0", generation, false, Some("saturated: queue 9/10 >= 90% threshold")));
        // turning ready again keeps the last complaint for the post-mortem
        assert!(hb(&inner, 20, "w0", generation, true, None));
        let lines = inner.reap_at(421);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("last reported readiness: saturated: queue 9/10 >= 90% threshold"),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn unready_workers_leave_the_ring_but_stay_members() {
        let inner = test_inner(400);
        let g0 = inner.register_at(0, "w0", "127.0.0.1:1", vec![]);
        inner.register_at(0, "w1", "127.0.0.1:2", vec![]);
        assert!(hb(&inner, 10, "w0", g0, false, Some("draining: shutdown in progress, 3 request(s) still queued")));
        assert_eq!(inner.workers().len(), 2);
        assert_eq!(inner.ready_workers(), 1);
        let routing = inner.routing.lock().unwrap();
        // every key lands on the one ready worker
        for i in 0..50u64 {
            assert_eq!(routing.ring.owner(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some("w1"));
        }
    }

    #[test]
    fn retries_are_bounded_and_end_in_internal() {
        let inner = test_inner(400);
        // no members at all: dispatch parks the job pending; requeue burns
        // attempts until the bound answers Internal
        let (tx, rx) = channel::bounded(1);
        let request = QueryRequest {
            method: "C3SQL".into(),
            db_id: "db".into(),
            question: "q".into(),
            deadline: None,
            trace: None,
        };
        let job = Job {
            client_id: 7,
            request,
            shard: 42,
            attempts: inner.config.max_attempts - 1,
            reply: tx,
            trace_id: 0,
            root_span: 0,
            accepted: Instant::now(),
        };
        inner.requeue(job);
        let (id, reply) = rx.recv().expect("terminal reply");
        assert_eq!(id, 7);
        assert_eq!(reply, Err(QueryError::Internal));
        assert_eq!(inner.metrics.retries_exhausted.get(), 1);
    }
}
