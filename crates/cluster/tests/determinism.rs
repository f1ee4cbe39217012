//! The cluster's correctness pin: outcomes are byte-identical between
//! the in-process service, a 1-worker cluster, and a 3-worker cluster —
//! and still identical when a worker leaves mid-run and its work is
//! requeued.
//!
//! "Outcome" is the reply with scheduling-dependent fields (latency,
//! cache_hit, batch_size) zeroed; everything the evaluator cares about —
//! ex, em, pred_sql, pred_work, exec_failure — must match byte for byte
//! as serialized JSON.

use cluster::{Scheduler, SchedulerConfig, Worker, WorkerConfig};
use std::sync::mpsc;
use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, Prediction, SimulatedModel, TranslationTask};
use serve::proto::ClusterClient;
use serve::{QueryReply, QueryRequest, ServeConfig, Service};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

const CORPUS_SEED: u64 = 11;
const METHODS: [&str; 2] = ["C3SQL", "DINSQL"];

fn requests() -> Vec<QueryRequest> {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(CORPUS_SEED));
    let mut out = Vec::new();
    for method in METHODS {
        for sample in &corpus.dev {
            for question in &sample.variants {
                out.push(QueryRequest {
                    method: method.to_string(),
                    db_id: sample.db_id.clone(),
                    question: question.clone(),
                    deadline: None,
                    trace: None,
                });
            }
        }
    }
    out
}

/// Zero the fields that legitimately vary with scheduling or telemetry
/// (latency, cache_hit, batch_size, trace_id), serialize the rest; byte
/// equality of these strings is the test's definition of "identical
/// outcome".
fn normalize(reply: QueryReply) -> String {
    let reply = reply.map(|mut r| {
        r.latency = Duration::ZERO;
        r.cache_hit = false;
        r.batch_size = 0;
        r.trace_id = String::new();
        r
    });
    serde_json::to_string(&reply).expect("reply serializes")
}

fn engine_config(traced: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        admin_addr: None,
        request_tracing: traced,
        ..ServeConfig::default()
    }
}

/// In-process ground truth: the plain serve engine, closed loop.
fn inprocess_outcomes(reqs: &[QueryRequest]) -> Vec<String> {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(CORPUS_SEED));
    let ctx = nl2sql360::EvalContext::new(&corpus);
    Service::run_with_methods(engine_config(false), &ctx, &METHODS, |handle| {
        reqs.iter().map(|r| normalize(handle.query(r.clone()))).collect()
    })
}

struct EmbeddedWorker {
    stop: mpsc::SyncSender<()>,
    join: thread::JoinHandle<()>,
}

fn worker_config(worker_id: &str, scheduler: SocketAddr, traced: bool) -> WorkerConfig {
    WorkerConfig {
        worker_id: worker_id.to_string(),
        scheduler: scheduler.to_string(),
        corpus_seed: CORPUS_SEED,
        methods: METHODS.iter().map(|m| m.to_string()).collect(),
        serve: engine_config(traced),
        heartbeat: Duration::from_millis(100),
        ..WorkerConfig::default()
    }
}

fn spawn_worker(worker_id: &str, scheduler: SocketAddr, traced: bool) -> EmbeddedWorker {
    let (stop, stop_rx) = mpsc::sync_channel::<()>(1);
    let config = worker_config(worker_id, scheduler, traced);
    let join = thread::spawn(move || {
        Worker::run(config, |_| {
            let _ = stop_rx.recv();
        })
    });
    EmbeddedWorker { stop, join }
}

/// Lets the first [`Gate::FREE`] translations through, then holds every
/// later one until opened. A worker behind it answers a few requests and
/// then sits on in-flight work for as long as the test needs — no matter
/// how fast the box is.
struct Gate {
    /// (translations let through so far, opened)
    state: Mutex<(usize, bool)>,
    opened: Condvar,
}

impl Gate {
    const FREE: usize = 4;

    fn pass(&self) {
        let mut st = self.state.lock().expect("gate lock");
        while !st.1 && st.0 >= Self::FREE {
            st = self.opened.wait(st).expect("gate lock");
        }
        st.0 += 1;
    }

    fn open(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.opened.notify_all();
    }
}

/// A registry model whose translations queue at a [`Gate`]; outcomes are
/// the wrapped model's, so the byte-identity pin is untouched.
struct Gated {
    inner: SimulatedModel,
    gate: Arc<Gate>,
}

impl Nl2SqlModel for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
        self.gate.pass();
        self.inner.translate(task)
    }
}

/// [`spawn_worker`] with every model behind `gate`: the same engine
/// `Worker::run` would build, attached to the cluster the same way.
fn spawn_gated_worker(
    worker_id: &str,
    scheduler: SocketAddr,
    traced: bool,
    gate: Arc<Gate>,
) -> EmbeddedWorker {
    let (stop, stop_rx) = mpsc::sync_channel::<()>(1);
    let config = worker_config(worker_id, scheduler, traced);
    let join = thread::spawn(move || {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(CORPUS_SEED));
        let ctx = nl2sql360::EvalContext::new(&corpus);
        let models: Vec<Box<dyn Nl2SqlModel>> = METHODS
            .iter()
            .map(|m| {
                let inner = SimulatedModel::new(method_by_name(m).expect("registered"));
                Box::new(Gated { inner, gate: Arc::clone(&gate) }) as Box<dyn Nl2SqlModel>
            })
            .collect();
        Service::run(config.serve.clone(), &ctx, models, |handle| {
            Worker::attach(&config, handle, |_| {
                let _ = stop_rx.recv();
            })
        })
    });
    EmbeddedWorker { stop, join }
}

fn stop_worker(w: EmbeddedWorker) {
    drop(w.stop);
    w.join.join().expect("worker thread exits cleanly");
}

struct ClusterStats {
    forwarded: u64,
    requeued: u64,
    reaped: u64,
}

/// Drive `reqs` through an embedded cluster with `n_workers`, open loop.
/// When `kill_after` is set, worker 0 is stopped after that many replies
/// have been read, mid-burst: it runs behind a [`Gate`], so by then it has
/// answered [`Gate::FREE`] requests and is holding the rest of its shard,
/// and the gate only opens once the scheduler has evicted it. Returns
/// outcomes in request order plus the scheduler's counters.
fn cluster_outcomes(
    reqs: &[QueryRequest],
    n_workers: usize,
    kill_after: Option<usize>,
    traced: bool,
) -> (Vec<String>, ClusterStats) {
    let (addr_tx, addr_rx) = mpsc::sync_channel(1);
    let (stop_tx, stop_rx) = mpsc::sync_channel::<()>(1);
    let scheduler = thread::spawn(move || {
        let config = SchedulerConfig {
            admin_addr: Some("127.0.0.1:0".parse().expect("loopback literal parses")),
            heartbeat_timeout: Duration::from_secs(2),
            reap_interval: Duration::from_millis(100),
            request_tracing: traced,
            warehouse: traced,
            ..SchedulerConfig::default()
        };
        Scheduler::run(config, |handle| {
            addr_tx
                .send((handle.client_addr(), handle.admin_addr().expect("admin configured")))
                .expect("test thread is waiting");
            let _ = stop_rx.recv();
            ClusterStats {
                forwarded: handle.forwarded_total(),
                requeued: handle.requeued_total(),
                reaped: handle.reaped_total(),
            }
        })
    });
    let (scheduler_addr, admin_addr) = addr_rx.recv().expect("scheduler binds");
    let gate = Arc::new(Gate { state: Mutex::new((0, false)), opened: Condvar::new() });
    let mut workers: Vec<EmbeddedWorker> = (0..n_workers)
        .map(|i| match (i, kill_after) {
            (0, Some(_)) => spawn_gated_worker("w0", scheduler_addr, traced, Arc::clone(&gate)),
            _ => spawn_worker(&format!("w{i}"), scheduler_addr, traced),
        })
        .collect();
    let registered = |n: usize| match serve::http::http_get(admin_addr, "/workers") {
        Ok((200, body)) => body.matches("\"worker_id\"").count() == n,
        _ => false,
    };
    // the burst only means anything once every worker owns ring arcs:
    // wait until all n registered (registration implies ready)
    let all_ready = cluster::worker::wait_for(Duration::from_secs(30), || registered(n_workers));
    assert!(all_ready, "{n_workers} worker(s) never all registered");

    let mut client = ClusterClient::connect(&scheduler_addr.to_string(), Duration::from_secs(5))
        .expect("client connects");
    client.set_reply_timeout(Some(Duration::from_secs(60))).expect("timeout set");
    // submit everything before reading anything: jobs queue on workers
    // (or pend while registration is still in flight), which is exactly
    // the state a mid-burst worker death has to requeue out of
    let mut ids = Vec::with_capacity(reqs.len());
    for req in reqs {
        ids.push(client.submit(req.clone()).expect("submit"));
    }
    let mut by_id: BTreeMap<u64, String> = BTreeMap::new();
    while by_id.len() < reqs.len() {
        let (id, reply) = client.next_reply().expect("reply within timeout");
        let duplicate = by_id.insert(id, normalize(reply));
        assert!(duplicate.is_none(), "request {id} answered twice");
        if let Some(n) = kill_after {
            if by_id.len() == n {
                // take down worker 0 with most of the burst outstanding:
                // ask it to stop, see the scheduler evict it (and requeue
                // what it held), and only then let its held work finish so
                // its threads can be joined
                let w0 = workers.remove(0);
                drop(w0.stop);
                let evicted = cluster::worker::wait_for(Duration::from_secs(30), || {
                    registered(n_workers - 1)
                });
                assert!(evicted, "the scheduler never noticed worker 0 leaving");
                gate.open();
                w0.join.join().expect("worker thread exits cleanly");
            }
        }
    }
    let outcomes =
        ids.iter().map(|id| by_id.remove(id).expect("every id answered")).collect();
    // stop the scheduler before the workers: a graceful worker departure
    // is an eviction (control connection closes), which would make the
    // run's reaped/requeued counters reflect the teardown, not the burst
    drop(stop_tx);
    let stats = scheduler.join().expect("scheduler exits cleanly");
    for w in workers {
        stop_worker(w);
    }
    (outcomes, stats)
}

#[test]
fn one_process_and_n_processes_agree_byte_for_byte() {
    let reqs = requests();
    assert!(reqs.len() >= 150, "corpus too small to be interesting: {}", reqs.len());
    let baseline = inprocess_outcomes(&reqs);
    // nothing in the baseline failed, so any Internal/Overloaded leaking
    // out of the cluster path shows up as a diff, not a silent match
    for (r, o) in reqs.iter().zip(&baseline) {
        assert!(o.starts_with("{\"Ok\""), "baseline failure for {r:?}: {o}");
    }

    let (one, stats_one) = cluster_outcomes(&reqs, 1, None, false);
    assert_eq!(baseline, one, "1-worker cluster diverged from in-process serve");
    assert_eq!(stats_one.forwarded, reqs.len() as u64);
    assert_eq!(stats_one.reaped, 0);

    let (three, _stats_three) = cluster_outcomes(&reqs, 3, None, false);
    assert_eq!(baseline, three, "3-worker cluster diverged from in-process serve");
}

/// Tracing + warehouse passivity across process counts: with the
/// scheduler minting trace ids, workers shipping span subtrees on every
/// reply, and the warehouse flusher persisting both, outcomes are still
/// byte-identical to the untraced in-process baseline — for one worker
/// and for two.
#[test]
fn outcomes_identical_with_tracing_and_warehouse_on() {
    let reqs = requests();
    let baseline = inprocess_outcomes(&reqs);
    let (one, _) = cluster_outcomes(&reqs, 1, None, true);
    assert_eq!(baseline, one, "traced 1-worker cluster diverged from untraced baseline");
    let (two, _) = cluster_outcomes(&reqs, 2, None, true);
    assert_eq!(baseline, two, "traced 2-worker cluster diverged from untraced baseline");
}

#[test]
fn outcomes_survive_a_worker_leaving_mid_burst() {
    let reqs = requests();
    let baseline = inprocess_outcomes(&reqs);
    // stop w0 after ~10% of replies: its shard (roughly half the keys) is
    // mostly still queued or in flight and must be requeued to w1
    let kill_after = reqs.len() / 10;
    let (outcomes, stats) = cluster_outcomes(&reqs, 2, Some(kill_after), false);
    assert_eq!(
        baseline, outcomes,
        "outcomes changed after a worker left mid-burst and its work was requeued"
    );
    assert!(stats.reaped >= 1, "the departed worker was never evicted");
    assert!(
        stats.requeued >= 1,
        "eviction requeued nothing — the kill happened too late to mean anything"
    );
}
