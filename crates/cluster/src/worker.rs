//! The worker: the unmodified in-process serve engine behind a TCP face.
//!
//! [`Worker::run`] regenerates the corpus from its seed (generation is
//! deterministic, so every worker started with the same seed serves the
//! same question set), starts [`serve::Service`] with the registry's
//! simulated models, and [`Worker::attach`]es it to the cluster — two
//! things layered on top inside the service scope:
//!
//! * an **Execute listener**: each scheduler forward stream gets a
//!   thread that reads [`Execute`](Message::Execute) frames and answers
//!   them through the same [`ServiceHandle::query`] an in-process caller
//!   uses — which is the whole byte-identical-outcomes argument: there is
//!   no second serving path to diverge;
//! * a **registration/heartbeat loop**: dial the scheduler, send
//!   [`Register`](Message::Register), then report
//!   [`ServiceHandle::readiness`] (ready flag + `/readyz` failure body),
//!   queue depth, and completed count every interval. A dropped control
//!   connection (scheduler restart, or eviction closing it) triggers
//!   re-registration after a backoff.
//!
//! Everything runs in the service's thread scope, so a worker shuts down
//! exactly like the in-process service: stop flag, drain, join.

use serve::proto::{read_frame_interruptible, write_frame, Message};
use serve::{QueryReply, ServeConfig, Service, ServiceHandle};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Worker tunables.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Stable identity; re-registering under the same id replaces the
    /// previous incarnation at the scheduler.
    pub worker_id: String,
    /// The scheduler's client/control address to register with.
    pub scheduler: String,
    /// Where to accept Execute connections (loopback; port 0 works).
    pub listen: SocketAddr,
    /// Corpus generation seed — must match the clients' corpus, or every
    /// question is [`UnknownQuestion`](serve::QueryError::UnknownQuestion).
    pub corpus_seed: u64,
    /// Corpus family to generate.
    pub corpus_kind: datagen::CorpusKind,
    /// Override the tiny preset's dev-split size (`None` keeps the
    /// preset). Benchmarks use this to stretch the request stream into a
    /// timing window long enough for stable overhead ratios.
    pub corpus_dev_samples: Option<usize>,
    /// Methods to serve (modelzoo registry names).
    pub methods: Vec<String>,
    /// The embedded in-process engine's config.
    pub serve: ServeConfig,
    /// Heartbeat interval.
    pub heartbeat: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker_id: "w0".to_string(),
            scheduler: "127.0.0.1:4800".to_string(),
            listen: "127.0.0.1:0".parse().expect("loopback literal parses"),
            corpus_seed: 7,
            corpus_kind: datagen::CorpusKind::Spider,
            corpus_dev_samples: None,
            methods: vec![
                "C3SQL".to_string(),
                "DINSQL".to_string(),
                "DAILSQL(SC)".to_string(),
                "SuperSQL".to_string(),
            ],
            serve: ServeConfig::default(),
            heartbeat: Duration::from_millis(500),
        }
    }
}

/// What the run closure sees about its worker.
pub struct WorkerRuntime<'a> {
    /// Bound Execute-listener address (the `serve_addr` sent in Register).
    pub serve_addr: SocketAddr,
    /// The embedded engine's admin endpoint, when configured.
    pub admin_addr: Option<SocketAddr>,
    stop: &'a AtomicBool,
}

impl WorkerRuntime<'_> {
    /// Ask the worker's loops (listener, heartbeat) to wind down without
    /// waiting for the closure to return.
    pub fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        serve::wake_listener(self.serve_addr);
    }
}

/// The worker's scoped-run entry point.
pub struct Worker;

impl Worker {
    /// Run a worker; returns the closure's result. The closure returning
    /// stops the listener and heartbeat, then drains the embedded
    /// service.
    ///
    /// # Panics
    /// Panics when the Execute listener cannot bind, or on an invalid
    /// embedded serve config / unknown method (like [`Service::run`]).
    pub fn run<R>(config: WorkerConfig, f: impl FnOnce(&WorkerRuntime<'_>) -> R) -> R {
        let mut corpus_config = datagen::CorpusConfig::tiny(config.corpus_seed);
        if let Some(n) = config.corpus_dev_samples {
            corpus_config.dev_samples = n;
        }
        let corpus = datagen::generate_corpus(config.corpus_kind, &corpus_config);
        let ctx = nl2sql360::EvalContext::new(&corpus);
        let methods: Vec<&str> = config.methods.iter().map(String::as_str).collect();
        let mut serve_config = config.serve.clone();
        // Spans should say *which* worker executed, and distinct labels
        // keep two workers' span-id ranges disjoint within one trace; only
        // an explicit override beats the worker id.
        if serve_config.trace_process == "serve" {
            serve_config.trace_process = config.worker_id.clone();
        }
        Service::run_with_methods(serve_config, &ctx, &methods, |handle| {
            Self::attach(&config, handle, f)
        })
    }

    /// Put a running engine on the cluster: bind the Execute listener,
    /// register and heartbeat with the scheduler, run `f`, then stop both
    /// and join their threads. [`Worker::run`] is this around the engine it
    /// builds from `config`; a caller that needs a particular engine (a test
    /// holding a model behind a gate) starts its own and attaches it. Uses
    /// `config`'s identity, addresses, method list and heartbeat only.
    ///
    /// # Panics
    /// Panics when the Execute listener cannot bind.
    pub fn attach<R>(
        config: &WorkerConfig,
        handle: &ServiceHandle<'_>,
        f: impl FnOnce(&WorkerRuntime<'_>) -> R,
    ) -> R {
        let listener = TcpListener::bind(config.listen)
            .unwrap_or_else(|e| panic!("bind worker listener {}: {e}", config.listen));
        let serve_addr = listener.local_addr().expect("worker listener has an addr");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop_ref = &stop;
            scope.spawn(move || {
                // one scoped thread per scheduler forward stream,
                // all joined before the service drains
                serve::accept_until(
                    &listener,
                    || stop_ref.load(Ordering::SeqCst),
                    |stream| {
                        scope.spawn(move || execute_connection(stream, handle, stop_ref));
                    },
                );
            });
            scope.spawn(move || heartbeat_loop(config, handle, serve_addr, stop_ref));
            let runtime = WorkerRuntime {
                serve_addr,
                admin_addr: handle.admin_addr(),
                stop: stop_ref,
            };
            let out = f(&runtime);
            runtime.begin_stop();
            out
        })
    }
}

/// Granularity at which blocked reads re-check the stop flag; a timeout
/// mid-frame keeps the bytes read so far.
const READ_POLL: Duration = Duration::from_millis(100);

/// One scheduler forward stream: serial Execute → query → ExecuteResult.
fn execute_connection(mut stream: TcpStream, handle: &ServiceHandle<'_>, stop: &AtomicBool) {
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_frame_interruptible(&mut stream, &mut buf, || stop.load(Ordering::SeqCst)) {
            Ok(Some(Message::Execute { id, request })) => {
                // The forwarded trace context names the trace this worker's
                // engine adopted; query() completes the trace before
                // replying, so its spans are readable here and ship back on
                // the result frame for the scheduler to merge.
                let trace_hex = request.trace.as_ref().map(|t| t.trace_id.clone());
                let reply: QueryReply = handle.query(request);
                let spans = trace_hex
                    .and_then(|hex| handle.trace_spans(&hex))
                    .unwrap_or_default();
                if write_frame(&mut stream, &Message::ExecuteResult { id, reply, spans }).is_err() {
                    return;
                }
            }
            // wrong frame kind, peer gone, or stop requested: drop the
            // connection; the scheduler treats that as this worker failing
            // and requeues, so never answer garbage with garbage
            Ok(Some(_)) | Ok(None) | Err(_) => return,
        }
    }
}

/// Register, then heartbeat until stopped; reconnect (and re-register)
/// with a backoff when the control connection drops.
fn heartbeat_loop(
    config: &WorkerConfig,
    handle: &ServiceHandle<'_>,
    serve_addr: SocketAddr,
    stop: &AtomicBool,
) {
    let stopping = || stop.load(Ordering::SeqCst);
    while !stopping() {
        match register(config, serve_addr) {
            Ok(mut stream) => {
                loop {
                    if !serve::sleep_unless(config.heartbeat, stopping) {
                        return;
                    }
                    let (ready, reason) = match handle.readiness() {
                        Ok(()) => (true, None),
                        Err(why) => (false, Some(why)),
                    };
                    let beat = Message::Heartbeat {
                        worker_id: config.worker_id.clone(),
                        ready,
                        reason,
                        queue_depth: handle.in_flight() as u64,
                        completed: handle.completed(),
                    };
                    if write_frame(&mut stream, &beat).is_err() {
                        // evicted or scheduler restarted: register afresh
                        break;
                    }
                }
            }
            Err(_) => {
                // scheduler not up (yet): retry after one interval
                if !serve::sleep_unless(config.heartbeat, stopping) {
                    return;
                }
            }
        }
    }
}

fn register(config: &WorkerConfig, serve_addr: SocketAddr) -> io::Result<TcpStream> {
    let parsed: SocketAddr = config
        .scheduler
        .parse()
        .map_err(|e| io::Error::new(ErrorKind::InvalidInput, format!("{}: {e}", config.scheduler)))?;
    let mut stream = TcpStream::connect_timeout(&parsed, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Message::Register {
            worker_id: config.worker_id.clone(),
            serve_addr: serve_addr.to_string(),
            methods: config.methods.clone(),
        },
    )?;
    Ok(stream)
}

/// Block until a condition holds or a deadline passes; a test helper for
/// "worker registered", "N replies arrived" style waits.
pub fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let started = std::time::Instant::now();
    while started.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}
