//! Concurrency guarantees of the serve subsystem:
//!
//! * outcome determinism — EX/EM/pred_sql per request are identical under
//!   1 worker and N workers, queued or run on 2 calling threads
//!   (scheduling, batching, dispatch and cache timing never leak into
//!   outcomes);
//! * admission control — a saturated queue rejects deterministically with
//!   `Overloaded` and never blocks the submitter;
//! * deadlines — a request stuck behind a slow one is dropped with
//!   `DeadlineExceeded` once its budget passes;
//! * drain — releasing a wedged service answers every admitted request;
//! * caller-runs — `query` serves on its caller's thread, so it is answered
//!   while every worker is wedged, yet it is admitted exactly like a queued
//!   request (`Overloaded` at capacity and while draining);
//! * panic isolation — a request whose pipeline panics reads `Internal`,
//!   through either dispatcher, and the thread that served it goes on.

use datagen::{generate_corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use nl2sql360::EvalContext;
use serve::{QueryError, QueryReply, QueryRequest, ServeConfig, Service};
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

/// How a fleet reaches the service.
#[derive(Clone, Copy)]
enum Dispatch {
    /// `submit` every request, then wait on the tickets.
    Queued,
    /// `query` from this many threads, thread `t` asking every request
    /// whose index is `t` modulo the thread count.
    CallerRun(usize),
}

fn run_fleet(corpus: &datagen::Corpus, workers: usize, dispatch: Dispatch) -> Vec<Outcome> {
    let ctx = EvalContext::new(corpus);
    let config = ServeConfig {
        workers,
        queue_capacity: 4096, // no admission rejects: all requests admitted
        ..ServeConfig::default()
    };
    Service::run_with_methods(config, &ctx, &["C3SQL", "DAILSQL", "SuperSQL"], |handle| {
        let methods = ["C3SQL", "DAILSQL", "SuperSQL"];
        let mut requests = Vec::new();
        for (i, sample) in corpus.dev.iter().enumerate() {
            for variant in 0..sample.variants.len() {
                let method = methods[(i + variant) % methods.len()];
                requests.push(request(sample, variant, method));
            }
        }
        let threads = match dispatch {
            Dispatch::Queued => {
                let tickets: Vec<_> = requests
                    .into_iter()
                    .map(|r| handle.submit(r).expect("queue never full"))
                    .collect();
                return tickets.into_iter().map(|t| outcome(t.wait())).collect();
            }
            Dispatch::CallerRun(threads) => threads,
        };
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
fn outcomes_identical_for_one_and_many_workers() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let serial = run_fleet(&corpus, 1, Dispatch::Queued);
    assert!(!serial.is_empty());
    for (what, other) in [
        ("4 workers", run_fleet(&corpus, 4, Dispatch::Queued)),
        ("query from 2 threads", run_fleet(&corpus, 1, Dispatch::CallerRun(2))),
    ] {
        assert_eq!(serial.len(), other.len(), "{what}");
        for (i, (a, b)) in serial.iter().zip(&other).enumerate() {
            assert_eq!(a, b, "request {i} diverged between 1 worker and {what}");
        }
    }
    // and re-running the same config reproduces itself exactly
    assert_eq!(serial, run_fleet(&corpus, 1, Dispatch::Queued));
}

/// A model whose `translate` blocks until released — lets tests wedge the
/// single worker and observe queue behavior deterministically.
struct GateModel {
    started: mpsc::SyncSender<()>,
    gate: Mutex<usize>,
    released: Condvar,
}

impl GateModel {
    fn new(started: mpsc::SyncSender<()>) -> Self {
        GateModel { started, gate: Mutex::new(0), released: Condvar::new() }
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
        let _ = self.started.send(());
        let mut permits = self.gate.lock().unwrap();
        while *permits == 0 {
            permits = self.released.wait(permits).unwrap();
        }
        *permits -= 1;
        None // refuse: the test only cares about queue mechanics
    }
}

#[test]
fn saturated_queue_rejects_overloaded_without_blocking() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = std::sync::Arc::new(GateModel::new(started_tx));
    struct Shared(std::sync::Arc<GateModel>);
    impl Nl2SqlModel for Shared {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
            self.0.translate(task)
        }
    }
    let config = ServeConfig { workers: 1, queue_capacity: 2, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(Shared(gate.clone()))];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        // first request occupies the single worker...
        let t1 = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker picked up request");
        // ...two more fill the queue to capacity...
        let t2 = handle.submit(request(sample, 0, "Gate")).expect("fits in queue");
        let t3 = handle.submit(request(sample, 0, "Gate")).expect("fits in queue");
        assert_eq!(handle.queue_len(), 2);
        // ...so the next submit is rejected immediately, not blocked.
        match handle.submit(request(sample, 0, "Gate")) {
            Err(QueryError::Overloaded) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| "ticket")),
        }
        assert_eq!(handle.metrics().rejected_overloaded, 1);

        // release everything; all admitted requests resolve.
        gate.release(3);
        for t in [t1, t2, t3] {
            assert!(matches!(t.wait(), Err(QueryError::TranslationRefused)));
        }
        let m = handle.metrics();
        assert_eq!(m.submitted, 3);
        assert_eq!(m.failed, 3);
        assert_eq!(m.lost(), 0);
    });
}

#[test]
fn queued_requests_past_their_deadline_are_dropped() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = std::sync::Arc::new(GateModel::new(started_tx));
    struct Shared(std::sync::Arc<GateModel>);
    impl Nl2SqlModel for Shared {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
            self.0.translate(task)
        }
    }
    let config = ServeConfig { workers: 1, queue_capacity: 16, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> =
        vec![Box::new(Shared(gate.clone())), Box::new(modelzoo::SimulatedModel::new(
            modelzoo::method_by_name("C3SQL").unwrap(),
        ))];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        // wedge the worker
        let blocker = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");
        // a zero-budget request queued behind it must expire, a generous
        // one must survive
        let mut doomed = request(sample, 0, "C3SQL");
        doomed.deadline = Some(Duration::ZERO);
        let doomed = handle.submit(doomed).expect("admitted");
        let mut patient = request(sample, 1, "C3SQL");
        patient.deadline = Some(Duration::from_secs(60));
        let patient = handle.submit(patient).expect("admitted");

        gate.release(1);
        assert!(matches!(blocker.wait(), Err(QueryError::TranslationRefused)));
        assert!(matches!(doomed.wait(), Err(QueryError::DeadlineExceeded)));
        assert!(patient.wait().is_ok(), "in-budget request must be served");
        let m = handle.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.lost(), 0);
    });
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

#[test]
fn query_is_served_on_its_caller_while_the_only_worker_is_wedged() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = Arc::new(GateModel::new(started_tx));
    let config = ServeConfig { workers: 1, queue_capacity: 16, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(SharedGate(gate.clone())), c3sql()];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        let wedged = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");
        let answered = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            s.spawn(move || tx.send(handle.query(request(sample, 1, "C3SQL"))));
            let answered = rx.recv_timeout(Duration::from_secs(5));
            // unwedge before judging, so a query stuck in the queue gets
            // served and the scope can join its thread
            gate.release(1);
            answered
        });
        let reply = answered.expect("query answered while the worker was wedged").expect("served");
        assert_eq!(reply.batch_size, 1, "a caller-run request is served alone");
        assert!(matches!(wedged.wait(), Err(QueryError::TranslationRefused)));
        let m = handle.metrics();
        assert_eq!((m.submitted, m.completed, m.failed, m.lost()), (2, 1, 1, 0));
    });
}

#[test]
fn query_is_refused_overloaded_at_capacity_and_while_draining() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = Arc::new(GateModel::new(started_tx));
    let config = ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(SharedGate(gate.clone())), c3sql()];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        let wedged = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");
        let queued = handle.submit(request(sample, 0, "C3SQL")).expect("fits in queue");
        // the queue is at capacity: a caller-run request is refused too,
        // although it would never have taken the slot
        assert_eq!(handle.query(request(sample, 1, "C3SQL")), Err(QueryError::Overloaded));
        assert_eq!(handle.metrics().rejected_overloaded, 1);
        gate.release(1);
        assert!(matches!(wedged.wait(), Err(QueryError::TranslationRefused)));
        assert!(queued.wait().is_ok());

        let served = handle.query(request(sample, 1, "C3SQL")).expect("queue has room");
        assert_eq!(served.batch_size, 1);
        handle.begin_drain();
        assert_eq!(handle.query(request(sample, 1, "C3SQL")), Err(QueryError::Overloaded));
        let m = handle.metrics();
        assert_eq!(m.rejected_overloaded, 2);
        // the two refusals were never admitted; the caller-run one was
        assert_eq!((m.submitted, m.completed, m.lost()), (3, 2, 0));
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
        let (bad, good) =
            (request(&corpus.dev[0], 0, "Poisoned"), request(&corpus.dev[1], 0, "Poisoned"));
        assert_ne!(bad.question, good.question);
        let poisoned = Poisoned { inner: c3sql(), question: bad.question.clone() };
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(poisoned)];
        let metrics = Service::run(config, &ctx, models, |handle| {
            for _ in 0..2 {
                let _ = reply_tx.send(handle.query(bad.clone()));
                let _ = reply_tx.send(handle.query(good.clone()));
            }
            for _ in 0..2 {
                let _ = reply_tx.send(handle.submit(bad.clone()).expect("admitted").wait());
                let _ = reply_tx.send(handle.submit(good.clone()).expect("admitted").wait());
            }
            handle.metrics()
        });
        let _ = done_tx.send(metrics);
    });
    let next = || reply_rx.recv_timeout(Duration::from_secs(30)).expect("reply within 30 s");
    for dispatch in ["query", "query", "submit", "submit"] {
        assert_eq!(next(), Err(QueryError::Internal), "{dispatch}: the panicking request");
        assert!(next().is_ok(), "{dispatch}: the request after the panic");
    }
    let m = done_rx.recv_timeout(Duration::from_secs(30)).expect("Service::run returns");
    assert_eq!((m.submitted, m.completed, m.failed, m.lost()), (8, 4, 4, 0));
}
