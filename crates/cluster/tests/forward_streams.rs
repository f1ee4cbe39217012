//! What the scheduler's forward streams promise a client connection: the
//! thread that reads a connection's `Submit`s writes each `Execute` itself
//! and never waits for a worker's reply, so one connection's requests run
//! concurrently and their replies come back in completion order; and a
//! dial or write that fails at that write site evicts the worker and
//! retries the job elsewhere, answering every request exactly once.

use cluster::{Ring, Scheduler, SchedulerConfig, Worker, WorkerConfig};
use std::sync::mpsc;
use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, Prediction, SimulatedModel, TranslationTask};
use serve::proto::{read_frame, write_frame, ClusterClient, Message};
use serve::{QueryError, QueryRequest, ServeConfig, Service};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const CORPUS_SEED: u64 = 11;
const METHOD: &str = "C3SQL";

fn requests() -> Vec<QueryRequest> {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(CORPUS_SEED));
    corpus
        .dev
        .iter()
        .flat_map(|sample| {
            sample.variants.iter().map(|question| QueryRequest {
                method: METHOD.to_string(),
                db_id: sample.db_id.clone(),
                question: question.clone(),
                deadline: None,
                trace: None,
            })
        })
        .collect()
}

/// The member that owns `request` on a ring of `members`, as the
/// scheduler routes it.
fn owner<'a>(ring: &'a Ring, request: &QueryRequest) -> &'a str {
    ring.owner(serve::hash::key_hash(&request.db_id, &request.question)).expect("ring has members")
}

/// Holds every translation until opened, as `determinism.rs`'s gate does
/// after its free passes.
#[derive(Default)]
struct Gate {
    opened: Mutex<bool>,
    wake: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut opened = self.opened.lock().expect("gate lock");
        while !*opened {
            opened = self.wake.wait(opened).expect("gate lock");
        }
    }

    fn open(&self) {
        *self.opened.lock().expect("gate lock") = true;
        self.wake.notify_all();
    }
}

/// A registry model whose translations wait at a [`Gate`].
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

struct EmbeddedWorker {
    stop: mpsc::SyncSender<()>,
    join: thread::JoinHandle<()>,
}

impl EmbeddedWorker {
    /// A worker on the same engine `Worker::run` builds; with a gate, its
    /// model waits there.
    fn spawn(worker_id: &str, scheduler: SocketAddr, gate: Option<Arc<Gate>>) -> EmbeddedWorker {
        let (stop, stop_rx) = mpsc::sync_channel::<()>(1);
        let config = WorkerConfig {
            worker_id: worker_id.to_string(),
            scheduler: scheduler.to_string(),
            corpus_seed: CORPUS_SEED,
            methods: vec![METHOD.to_string()],
            heartbeat: Duration::from_millis(100),
            ..WorkerConfig::default()
        };
        let join = thread::spawn(move || {
            let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(CORPUS_SEED));
            let ctx = nl2sql360::EvalContext::new(&corpus);
            let inner = SimulatedModel::new(method_by_name(METHOD).expect("registered"));
            let model: Box<dyn Nl2SqlModel> = match gate {
                Some(gate) => Box::new(Gated { inner, gate }),
                None => Box::new(inner),
            };
            Service::run(ServeConfig::default(), &ctx, vec![model], |handle| {
                Worker::attach(&config, handle, |_| {
                    let _ = stop_rx.recv();
                })
            })
        });
        EmbeddedWorker { stop, join }
    }

    fn stop(self) {
        drop(self.stop);
        self.join.join().expect("worker thread exits cleanly");
    }
}

/// Register a member at `serve_addr` over a control connection that the
/// caller holds open.
fn register(scheduler: SocketAddr, worker_id: &str, serve_addr: &str) -> TcpStream {
    let mut control = TcpStream::connect(scheduler).expect("connect");
    let register = Message::Register {
        worker_id: worker_id.to_string(),
        serve_addr: serve_addr.to_string(),
        methods: vec![METHOD.to_string()],
    };
    write_frame(&mut control, &register).expect("register");
    control
}

/// A scheduler whose reaper never evicts the stand-ins [`register`] adds,
/// which send no heartbeats: only their forward streams can fail them.
fn quiet_stand_ins() -> SchedulerConfig {
    SchedulerConfig { heartbeat_timeout: Duration::from_secs(600), ..SchedulerConfig::default() }
}

fn connect(scheduler: SocketAddr) -> ClusterClient {
    let mut client =
        ClusterClient::connect(&scheduler.to_string(), Duration::from_secs(5)).expect("connects");
    client.set_reply_timeout(Some(Duration::from_secs(30))).expect("timeout set");
    client
}

/// One connection, two workers, the first behind a closed gate: a request
/// owned by the open worker and submitted after one parked at the gate is
/// answered first. A connection that waited on each reply before reading
/// the next request would time out here instead.
#[test]
fn a_pipelined_connection_is_not_serialized() {
    let reqs = requests();
    let ring = Ring::build(&["w0", "w1"], cluster::ring::DEFAULT_VNODES);
    let parked = reqs.iter().find(|r| owner(&ring, r) == "w0").expect("w0 owns a request");
    let free = reqs.iter().find(|r| owner(&ring, r) == "w1").expect("w1 owns a request");
    Scheduler::run(SchedulerConfig::default(), |sched| {
        let gate = Arc::new(Gate::default());
        let w0 = EmbeddedWorker::spawn("w0", sched.client_addr(), Some(Arc::clone(&gate)));
        let w1 = EmbeddedWorker::spawn("w1", sched.client_addr(), None);
        let ready = cluster::worker::wait_for(Duration::from_secs(30), || sched.ready_workers() == 2);
        assert!(ready, "both workers never registered");

        let mut client = connect(sched.client_addr());
        // one round trip first, so that the two below are not the
        // connection's first frame
        assert!(client.query(free.clone()).expect("round trip").is_ok());
        let first = client.submit(parked.clone()).expect("submit");
        let second = client.submit(free.clone()).expect("submit");
        let (id, reply) = client.next_reply().expect("the ungated request is answered");
        assert_eq!(id, second, "the later request waited behind the parked one");
        assert!(reply.is_ok(), "{reply:?}");
        gate.open();
        let (id, reply) = client.next_reply().expect("the parked request is answered");
        assert_eq!(id, first);
        assert!(reply.is_ok(), "{reply:?}");
        w0.stop();
        w1.stop();
    });
}

/// A member registered at an address that refuses connections, beside a
/// real worker: the first request routed to it fails at the dial, which
/// evicts it and retries the request on the real worker. A burst over one
/// connection is answered exactly once, all of it by the real worker.
#[test]
fn a_refused_dial_evicts_and_the_job_retries_on_a_live_worker() {
    let reqs = requests();
    let ring = Ring::build(&["refuser", "w1"], cluster::ring::DEFAULT_VNODES);
    assert!(reqs.iter().any(|r| owner(&ring, r) == "refuser"), "the refuser owns no request");
    Scheduler::run(quiet_stand_ins(), |sched| {
        let w1 = EmbeddedWorker::spawn("w1", sched.client_addr(), None);
        let registered =
            cluster::worker::wait_for(Duration::from_secs(30), || sched.ready_workers() == 1);
        assert!(registered, "w1 never registered");
        let control = register(sched.client_addr(), "refuser", "127.0.0.1:9");
        let both = cluster::worker::wait_for(Duration::from_secs(5), || sched.ready_workers() == 2);
        assert!(both, "the refuser never registered");

        let mut client = connect(sched.client_addr());
        let mut ids = BTreeSet::new();
        for req in &reqs {
            assert!(ids.insert(client.submit(req.clone()).expect("submit")));
        }
        for _ in 0..reqs.len() {
            let (id, reply) = client.next_reply().expect("reply within timeout");
            assert!(ids.remove(&id), "request {id} answered twice or never submitted");
            assert!(reply.is_ok(), "request {id}: {reply:?}");
        }
        assert!(ids.is_empty());

        let members: Vec<String> = sched.workers().into_iter().map(|w| w.worker_id).collect();
        assert_eq!(members, ["w1"], "the refuser was never evicted");
        assert!(sched.reaped_total() >= 1);
        let metrics = sched.metrics_text();
        let requeued = metrics
            .lines()
            .find_map(|l| l.strip_prefix("cluster_requeued_all_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("requeued family");
        assert!(requeued >= 1, "the refused job was never requeued:\n{metrics}");
        let by_w1 = format!("cluster_forwarded_total{{worker=\"w1\"}} {}", reqs.len());
        assert!(metrics.contains(&by_w1), "not every reply came through w1:\n{metrics}");
        drop(control);
        w1.stop();
    });
}

/// A worker stand-in: every `Execute` is answered `Overloaded` after
/// `delay`, or never when `delay` is `None`. Returns where it listens.
fn stand_in(delay: Option<Duration>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for mut stream in listener.incoming().map_while(Result::ok) {
            thread::spawn(move || {
                while let Ok(Message::Execute { id, .. }) = read_frame(&mut stream) {
                    let Some(delay) = delay else { continue };
                    thread::sleep(delay);
                    let reply = Err(QueryError::Overloaded);
                    let result = Message::ExecuteResult { id, reply, spans: vec![] };
                    if write_frame(&mut stream, &result).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// `forward_timeout` is also an idle stream's read timeout, so it can fire
/// while a job written just before it is on the wire. Timeline, with the
/// worker answering 200 ms after each `Execute` and a 600 ms timeout: the
/// first reply lands at 200 ms, the second request is written at 700 ms,
/// the stream's read times out at 800 ms with that job 100 ms old — not
/// overdue — and its reply lands at 900 ms. A job the worker never answers
/// fails the stream a timeout later, and the worker is evicted.
#[test]
fn a_reply_is_overdue_only_forward_timeout_after_its_write() {
    let forward_timeout = Duration::from_millis(600);
    let config = SchedulerConfig { forward_timeout, ..quiet_stand_ins() };
    let reqs = requests();
    Scheduler::run(config.clone(), |sched| {
        let slow = stand_in(Some(Duration::from_millis(200))).to_string();
        let control = register(sched.client_addr(), "slow", &slow);
        assert!(cluster::worker::wait_for(Duration::from_secs(5), || sched.ready_workers() == 1));
        let mut client = connect(sched.client_addr());
        let first = client.query(reqs[0].clone()).expect("first reply");
        thread::sleep(Duration::from_millis(500));
        let second = client.query(reqs[1].clone()).expect("second reply");
        assert_eq!((first, second), (Err(QueryError::Overloaded), Err(QueryError::Overloaded)));
        assert_eq!(sched.reaped_total(), 0, "a job younger than forward_timeout failed its stream");
        drop(control);
    });
    Scheduler::run(config, |sched| {
        let mute = stand_in(None).to_string();
        let control = register(sched.client_addr(), "mute", &mute);
        assert!(cluster::worker::wait_for(Duration::from_secs(5), || sched.ready_workers() == 1));
        let mut client = connect(sched.client_addr());
        let sent = Instant::now();
        client.submit(reqs[0].clone()).expect("submit");
        assert!(cluster::worker::wait_for(Duration::from_secs(5), || sched.reaped_total() == 1));
        assert!(sent.elapsed() >= forward_timeout, "evicted after {:?}", sent.elapsed());
        assert_eq!(sched.requeued_total(), 1);
        drop(control);
    });
}
