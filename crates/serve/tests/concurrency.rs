//! Concurrency guarantees of the serve subsystem:
//!
//! * outcome determinism — EX/EM/pred_sql per request are identical
//!   whether one thread or several call `query` (scheduling, dispatch and
//!   cache timing never leak into outcomes);
//! * admission control — with `queue_capacity` requests in flight the next
//!   one is refused `Overloaded` at once, never blocked, and a freed slot
//!   admits again;
//! * deadlines — an HTTP request that waits for a handler past its budget
//!   is dropped with `DeadlineExceeded`, one within it is served;
//! * caller-runs — `query` serves on its caller's thread, so it is answered
//!   while another request is parked in the pipeline, and it is refused
//!   `Overloaded` at capacity and while draining;
//! * panic isolation — a request whose pipeline panics reads `Internal`,
//!   in process and over HTTP, and the thread that served it goes on.

use datagen::{generate_corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use nl2sql360::EvalContext;
use serve::http::http_post;
use serve::{QueryError, QueryReply, QueryRequest, ServeConfig, Service};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn request(sample: &Sample, variant: usize, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[variant].clone(),
        deadline: None,
        trace: None,
    }
}

/// (ex, em, pred_sql) per request — the outcome fields that must not
/// depend on concurrency. Errors map to their variant name.
type Outcome = Result<(bool, bool, String), String>;

fn outcome(reply: QueryReply) -> Outcome {
    match reply {
        Ok(resp) => Ok((resp.ex, resp.em, resp.pred_sql)),
        Err(e) => Err(format!("{e}")),
    }
}

/// Every request of the corpus, `query`d from `threads` threads, thread
/// `t` asking every request whose index is `t` modulo the thread count.
fn run_fleet(corpus: &datagen::Corpus, threads: usize) -> Vec<Outcome> {
    let ctx = EvalContext::new(corpus);
    let methods = ["C3SQL", "DAILSQL", "SuperSQL"];
    Service::run_with_methods(ServeConfig::default(), &ctx, &methods, |handle| {
        let mut requests = Vec::new();
        for (i, sample) in corpus.dev.iter().enumerate() {
            for variant in 0..sample.variants.len() {
                let method = methods[(i + variant) % methods.len()];
                requests.push(request(sample, variant, method));
            }
        }
        let mut answered: Vec<(usize, Outcome)> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..threads)
                .map(|t| {
                    let requests = &requests;
                    s.spawn(move || {
                        let mine = requests.iter().enumerate().skip(t).step_by(threads);
                        mine.map(|(i, r)| (i, outcome(handle.query(r.clone())))).collect::<Vec<_>>()
                    })
                })
                .collect();
            callers.into_iter().flat_map(|c| c.join().expect("caller thread")).collect()
        });
        answered.sort_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, o)| o).collect()
    })
}

#[test]
fn outcomes_identical_for_one_and_many_callers() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let serial = run_fleet(&corpus, 1);
    assert!(!serial.is_empty());
    for threads in [4, 2] {
        let other = run_fleet(&corpus, threads);
        assert_eq!(serial.len(), other.len(), "{threads} callers");
        for (i, (a, b)) in serial.iter().zip(&other).enumerate() {
            assert_eq!(a, b, "request {i} diverged between 1 caller and {threads}");
        }
    }
    // and re-running the same config reproduces itself exactly
    assert_eq!(serial, run_fleet(&corpus, 1));
}

/// A model whose `translate` blocks until released — lets tests park
/// requests in the pipeline and observe admission deterministically.
struct GateModel {
    started: Mutex<mpsc::Sender<()>>,
    gate: Mutex<usize>,
    released: Condvar,
}

impl GateModel {
    fn new(started: mpsc::Sender<()>) -> Self {
        GateModel { started: Mutex::new(started), gate: Mutex::new(0), released: Condvar::new() }
    }

    /// Allow `n` further `translate` calls to proceed.
    fn release(&self, n: usize) {
        *self.gate.lock().unwrap() += n;
        self.released.notify_all();
    }
}

impl Nl2SqlModel for GateModel {
    fn name(&self) -> &str {
        "Gate"
    }

    fn translate(&self, _task: &TranslationTask<'_>) -> Option<Prediction> {
        let _ = self.started.lock().unwrap().send(());
        let mut permits = self.gate.lock().unwrap();
        while *permits == 0 {
            permits = self.released.wait(permits).unwrap();
        }
        *permits -= 1;
        None // refuse: the tests only care about admission
    }
}

/// Opens the gate wide when dropped. Made first thing inside a thread
/// scope, it is dropped before the scope joins, so a failed assertion
/// fails the test instead of leaving parked callers to wait on forever.
struct OpenOnDrop<'g>(&'g GateModel);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release(1_000);
    }
}

/// A [`GateModel`] the test keeps a handle on while the service owns it.
struct SharedGate(Arc<GateModel>);

impl Nl2SqlModel for SharedGate {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
        self.0.translate(task)
    }
}

fn c3sql() -> Box<dyn Nl2SqlModel> {
    Box::new(modelzoo::SimulatedModel::new(modelzoo::method_by_name("C3SQL").unwrap()))
}

/// A gate and the models of a service behind it: the gate, then C3SQL.
fn gated() -> (Arc<GateModel>, mpsc::Receiver<()>, Vec<Box<dyn Nl2SqlModel>>) {
    let (started_tx, started_rx) = mpsc::channel();
    let gate = Arc::new(GateModel::new(started_tx));
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(SharedGate(gate.clone())), c3sql()];
    (gate, started_rx, models)
}

/// Wait until `n` gated requests have reached translation.
fn parked(started: &mpsc::Receiver<()>, n: usize) {
    for _ in 0..n {
        started.recv_timeout(Duration::from_secs(5)).expect("a gated request reached the model");
    }
}

#[test]
fn saturated_queue_rejects_overloaded_without_blocking() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (gate, started, models) = gated();
    let config = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            // two gated callers take both in-flight slots...
            let callers: Vec<_> =
                (0..2).map(|_| s.spawn(|| handle.query(request(sample, 0, "Gate")))).collect();
            parked(&started, 2);
            assert_eq!(handle.in_flight(), 2);
            // ...so the next caller is refused at once, not served and not
            // blocked, although it would never wait at the gate
            assert_eq!(handle.query(request(sample, 1, "C3SQL")), Err(QueryError::Overloaded));
            assert_eq!(handle.metrics().rejected_overloaded, 1);

            // release everything; all admitted requests resolve
            gate.release(2);
            for c in callers {
                assert_eq!(c.join().expect("caller"), Err(QueryError::TranslationRefused));
            }
        });
        // the answered requests gave their slots back
        assert_eq!(handle.in_flight(), 0);
        assert!(handle.query(request(sample, 1, "C3SQL")).is_ok());
        let m = handle.metrics();
        assert_eq!((m.submitted, m.completed, m.failed), (3, 1, 2));
        assert_eq!(m.lost(), 0);
    });
}

/// `n` connections that send nothing: each holds one of the HTTP
/// endpoint's four handlers until its read timeout (500 ms) passes.
fn hold_handlers(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n).map(|_| TcpStream::connect(addr).expect("connect")).collect()
}

fn nl_body(sample: &Sample, variant: usize, method: &str, deadline_ms: u64) -> String {
    let text = |s: &str| serde::Value::Str(s.to_string());
    serde_json::to_string(&serde::Value::Map(vec![
        ("question".to_string(), text(&sample.variants[variant])),
        ("db_id".to_string(), text(&sample.db_id)),
        ("method".to_string(), text(method)),
        ("deadline_ms".to_string(), serde::Value::Int(deadline_ms as i64)),
    ]))
    .unwrap()
}

#[test]
fn queued_requests_past_their_deadline_are_dropped() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let config = ServeConfig::builder().admin_addr("127.0.0.1:0".parse().unwrap()).build().unwrap();
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];
        // every handler is held, so both requests below wait for one; the
        // wait counts from the accepted connection
        let _held = hold_handlers(addr, 4);
        let (doomed, patient) = std::thread::scope(|s| {
            let doomed = s.spawn(|| http_post(addr, "/v1/sql", &nl_body(sample, 0, "C3SQL", 1)));
            let patient =
                s.spawn(|| http_post(addr, "/v1/sql", &nl_body(sample, 1, "C3SQL", 60_000)));
            (doomed.join().expect("doomed"), patient.join().expect("patient"))
        });
        let (status, reply) = doomed.expect("post");
        assert_eq!(status, 504, "a 1 ms budget expires while waiting for a handler: {reply}");
        let (status, reply) = patient.expect("post");
        assert_eq!(status, 200, "an in-budget request must be served: {reply}");
        let m = handle.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.completed, 1);
        assert!(m.queue_p99 >= Some(Duration::from_millis(100)), "they waited: {m:?}");
        assert_eq!(m.lost(), 0);
    });
}

#[test]
fn query_is_served_on_its_caller_while_another_is_parked() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (gate, started, models) = gated();
    let config = ServeConfig { queue_capacity: 16, ..ServeConfig::default() };
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        let (answered, parked_reply) = std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            let gated = s.spawn(|| handle.query(request(sample, 0, "Gate")));
            parked(&started, 1);
            let (tx, rx) = mpsc::channel();
            s.spawn(move || tx.send(handle.query(request(sample, 1, "C3SQL"))));
            let answered = rx.recv_timeout(Duration::from_secs(5));
            // release before judging, so the scope can join the gated caller
            gate.release(1);
            (answered, gated.join().expect("gated caller"))
        });
        let reply = answered.expect("query answered while another was parked").expect("served");
        assert_eq!(reply.batch_size, 1, "every request is served alone");
        assert_eq!(parked_reply, Err(QueryError::TranslationRefused));
        let m = handle.metrics();
        assert_eq!((m.submitted, m.completed, m.failed, m.lost()), (2, 1, 1, 0));
    });
}

#[test]
fn query_is_refused_overloaded_at_capacity_and_while_draining() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (gate, started, models) = gated();
    let config = ServeConfig { queue_capacity: 1, ..ServeConfig::default() };
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            let gated = s.spawn(|| handle.query(request(sample, 0, "Gate")));
            parked(&started, 1);
            // the one slot is taken: a caller-run request is refused
            assert_eq!(handle.query(request(sample, 1, "C3SQL")), Err(QueryError::Overloaded));
            assert_eq!(handle.metrics().rejected_overloaded, 1);
            gate.release(1);
            assert_eq!(gated.join().expect("gated caller"), Err(QueryError::TranslationRefused));
        });

        let served = handle.query(request(sample, 1, "C3SQL")).expect("the slot is free again");
        assert_eq!(served.batch_size, 1);
        handle.begin_drain();
        assert_eq!(handle.query(request(sample, 1, "C3SQL")), Err(QueryError::Overloaded));
        let m = handle.metrics();
        assert_eq!(m.rejected_overloaded, 2);
        // the two refusals were never admitted; the gated and the served were
        assert_eq!((m.submitted, m.completed, m.lost()), (2, 1, 0));
    });
}

/// C3SQL, except that translating one question panics.
struct Poisoned {
    inner: Box<dyn Nl2SqlModel>,
    question: String,
}

impl Nl2SqlModel for Poisoned {
    fn name(&self) -> &str {
        "Poisoned"
    }
    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
        assert_ne!(task.sample.variants[task.variant], self.question, "poisoned question");
        self.inner.translate(task)
    }
}

#[test]
fn a_panicking_request_answers_internal_and_the_next_is_served() {
    let (reply_tx, reply_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    // The service runs on a thread of its own: where a panic kills the
    // thread that serves it, the next request is never answered, and the
    // timeouts below fail the test instead of hanging it.
    std::thread::spawn(move || {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
        let ctx = EvalContext::new(&corpus);
        let (bad, good) = (&corpus.dev[0], &corpus.dev[1]);
        assert_ne!(bad.variants[0], good.variants[0]);
        let poisoned = Poisoned { inner: c3sql(), question: bad.variants[0].clone() };
        let config =
            ServeConfig::builder().admin_addr("127.0.0.1:0".parse().unwrap()).build().unwrap();
        let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(poisoned)];
        let metrics = Service::run(config, &ctx, models, |handle| {
            for _ in 0..2 {
                for sample in [bad, good] {
                    let _ = reply_tx.send(handle.query(request(sample, 0, "Poisoned")).map(|_| ()));
                }
            }
            // over HTTP the handler thread serves it: 500, then 200
            let addr = handle.admin_addr().expect("admin endpoint configured");
            for _ in 0..2 {
                for sample in [bad, good] {
                    let body = nl_body(sample, 0, "Poisoned", 60_000);
                    let reply = match http_post(addr, "/v1/sql", &body).expect("post") {
                        (200, _) => Ok(()),
                        (500, _) => Err(QueryError::Internal),
                        (status, body) => panic!("unexpected {status}: {body}"),
                    };
                    let _ = reply_tx.send(reply);
                }
            }
            handle.metrics()
        });
        let _ = done_tx.send(metrics);
    });
    let next = || reply_rx.recv_timeout(Duration::from_secs(30)).expect("reply within 30 s");
    for dispatch in ["query", "query", "http", "http"] {
        assert_eq!(next(), Err(QueryError::Internal), "{dispatch}: the panicking request");
        assert!(next().is_ok(), "{dispatch}: the request after the panic");
    }
    let m = done_rx.recv_timeout(Duration::from_secs(30)).expect("Service::run returns");
    assert_eq!((m.submitted, m.completed, m.failed, m.lost()), (8, 4, 4, 0));
}
