//! Behavioral guarantees of the live telemetry plane:
//!
//! * the slow-query log stays bounded at its configured K under load;
//! * windowed reports agree with the cumulative counters;
//! * drain ordering — a caller refused with `Overloaded` because of a
//!   drain can never observe the service as still ready;
//! * `MetricsSnapshot::lost()` never goes negative under concurrent
//!   recording (the clamped torn-read race);
//! * request outcomes and persisted eval rows are identical with request
//!   tracing and the warehouse on and off — both are strictly passive.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use nl2sql360::EvalContext;
use serve::{QueryError, QueryRequest, ServeConfig, Service, SlowLog, SlowQueryEntry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
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

fn corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91))
}

#[test]
fn slow_log_is_bounded_at_k() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    // The service's log is a `SlowLog` of the constant `SLOW_LOG_K`; feed a
    // small one the entries a real run produced, in completion order, and
    // the bound must hold however many more arrive.
    let served = Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
        for sample in corpus.dev.iter().take(20) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
        let mut entries = handle.slow_queries();
        assert_eq!(entries.len(), 20, "20 requests fit under SLOW_LOG_K unevicted");
        assert!(entries.windows(2).all(|w| w[0].latency_us >= w[1].latency_us));
        entries.sort_by_key(|e| e.at_ms);
        entries
    });
    let log = SlowLog::new(4, 1_000_000);
    let offer = |e: &SlowQueryEntry| {
        // every entry carries the queue-wait vs exec split
        assert!(e.latency_us >= e.exec_us, "{e:?}");
        assert_eq!(e.method, "C3SQL");
        log.offer(e.at_ms, e.clone());
    };
    served[..12].iter().for_each(offer);
    let kept = log.entries();
    assert_eq!(kept.len(), 4, "log must hold exactly K once K requests finished");
    assert!(kept.windows(2).all(|w| w[0].latency_us >= w[1].latency_us));
    // keep serving: the bound holds under continued load
    served[12..].iter().for_each(offer);
    assert_eq!(log.entries().len(), 4);
}

#[test]
fn window_report_agrees_with_cumulative_counters() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
        for sample in corpus.dev.iter().take(10) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
        // everything just happened, so the widest window saw all of it
        let r = handle.window_report(Duration::from_secs(60));
        let m = handle.metrics();
        assert_eq!(r.requests, m.completed);
        assert!(r.qps > 0.0);
        assert!(r.p50.is_some() && r.p99.is_some());
        assert!(r.p50 <= r.p99);
    });
}

/// A model whose `translate` blocks until released. The start signal is
/// an unbounded channel: this test funnels thousands of requests through
/// the gate, and a bounded channel would wedge the worker on `send`.
struct GateModel {
    started: mpsc::Sender<()>,
    gate: Mutex<usize>,
    released: Condvar,
}

impl GateModel {
    fn new(started: mpsc::Sender<()>) -> Self {
        GateModel { started, gate: Mutex::new(0), released: Condvar::new() }
    }

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
        None
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

/// Pin for the readiness-before-refusal ordering: a concurrent caller
/// that gets `Overloaded` from a *drain* (nowhere near `queue_capacity` in
/// flight) must already see `ready() == false` — readiness and admission
/// read one flag, and drain flips it.
#[test]
fn drain_refusals_are_never_observed_while_ready() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::channel();
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
    let c3sql = modelzoo::SimulatedModel::new(modelzoo::method_by_name("C3SQL").unwrap());
    // capacity far larger than the test will fill: the only possible
    // Overloaded is the drain-induced one
    let config = ServeConfig::builder().queue_capacity(100_000).build().unwrap();
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(Shared(gate.clone())), Box::new(c3sql)];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        let asking = AtomicBool::new(false);
        let (served, ready_at_refusal, parked) = std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            // one request parked in the pipeline across the drain
            let parked = s.spawn(|| handle.query(request(sample, 0, "Gate")));
            started_rx.recv_timeout(Duration::from_secs(5)).expect("request parked");
            let caller = s.spawn(|| {
                let mut served = 0usize;
                loop {
                    match handle.query(request(sample, 0, "C3SQL")) {
                        Ok(_) => served += 1,
                        Err(QueryError::Overloaded) => {
                            // read readiness immediately after the refusal
                            return (served, handle.ready());
                        }
                        Err(e) => panic!("unexpected query error: {e}"),
                    }
                    asking.store(true, Ordering::Release);
                }
            });
            // wait until the caller demonstrably runs, then drain
            while !asking.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            handle.begin_drain();
            let (served, ready) = caller.join().expect("caller thread");
            // everything admitted before the drain is still answered
            gate.release(1);
            (served, ready, parked.join().expect("parked caller"))
        });
        assert!(
            !ready_at_refusal,
            "a drain-caused Overloaded was observed while /readyz still said ready"
        );
        assert!(served > 0);
        assert_eq!(parked, Err(QueryError::TranslationRefused));
        assert_eq!(handle.metrics().lost(), 0);
    });
}

/// Two client threads drive requests to completion (each is admitted
/// strictly before it completes) while a third snapshots: the counters are
/// loaded one by one, so the raw difference can be read torn (completed
/// ahead of submitted), but `lost()` must never report that transient as a
/// negative count — and once the clients are done nothing is lost.
#[test]
fn lost_never_goes_negative_under_concurrent_snapshots() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    const PER_THREAD: u64 = 2_000;
    let config = ServeConfig::default();
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let sample = &corpus.dev[0];
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        handle.query(request(sample, 0, "C3SQL")).expect("served");
                    }
                });
            }
            s.spawn(|| loop {
                let snap = handle.metrics();
                assert!(snap.lost() >= 0, "lost() leaked a torn read: {snap:?}");
                if snap.completed == 2 * PER_THREAD {
                    return;
                }
                std::thread::yield_now();
            });
        });
        let end = handle.metrics();
        assert_eq!(end.submitted, 2 * PER_THREAD);
        assert_eq!(end.lost(), 0);
    });
}

/// The tracing + warehouse plane is strictly passive too: serve outcomes
/// AND a full eval run's persisted `EvalLog` rows are byte-identical with
/// both on and both off. The eval run races the serve traffic in each
/// configuration, so the pin also covers plane interference.
#[test]
fn outcomes_and_eval_logs_identical_with_tracing_and_warehouse_on_and_off() {
    let corpus = corpus();
    let run = |traced: bool| {
        let ctx = EvalContext::new(&corpus);
        let config = ServeConfig::builder()
            .request_tracing(traced)
            .warehouse(traced)
            .admin_addr("127.0.0.1:0".parse().expect("loopback addr"))
            .build()
            .unwrap();
        Service::run_with_methods(config, &ctx, &["C3SQL", "DAILSQL"], |handle| {
            let admin = handle.admin_addr().expect("admin bound");
            let (status, body) = serve::http::http_post(
                admin,
                "/v1/evals/spider",
                "{\"method\":\"C3SQL\",\"subset\":8}",
            )
            .expect("eval submits");
            assert_eq!(status, 202, "{body}");
            let outcomes: Vec<_> = corpus
                .dev
                .iter()
                .enumerate()
                .take(20)
                .map(|(i, sample)| {
                    let method = if i % 2 == 0 { "C3SQL" } else { "DAILSQL" };
                    match handle.query(request(sample, 0, method)) {
                        Ok(r) => Ok((r.ex, r.em, r.pred_sql, r.pred_work, r.exec_failure)),
                        Err(e) => Err(format!("{e}")),
                    }
                })
                .collect();
            // wait for the racing eval run to persist its log
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            let completed = loop {
                let (status, body) =
                    serve::http::http_get(admin, "/v1/evals/1").expect("eval status");
                assert_eq!(status, 200, "{body}");
                if body.contains("\"status\":\"completed\"") {
                    break true;
                }
                if body.contains("\"status\":\"failed\"") || std::time::Instant::now() > deadline
                {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert!(completed, "eval run never completed");
            // the persisted EvalLog, rendered byte-for-byte
            let rows = handle
                .store_sql(
                    "SELECT run_id, sample_id, variant, db_id, ex, em, pred_sql, \
                     exec_failure_label FROM eval_results ORDER BY sample_id, variant",
                )
                .expect("eval_results query");
            let rendered =
                serde_json::to_string(&serve::http::result_set_json(&rows)).expect("renders");
            let m = handle.metrics();
            (outcomes, rendered, m.submitted, m.completed, m.failed)
        })
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "tracing + warehouse must be strictly passive");
}
