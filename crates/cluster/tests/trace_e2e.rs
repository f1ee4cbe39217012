//! Cross-process span-tree assembly pins: one request through a
//! 1-scheduler / 2-worker cluster produces ONE trace spanning all three
//! participants —
//!
//! * the scheduler's `sched.request` root and `sched.forward` hop;
//! * the executing worker's `request` subtree (queue → execute →
//!   compare), parented under the forward hop and labeled with the
//!   worker's id;
//! * the same tree from `GET /v1/traces/<id>` over admin HTTP, and the
//!   same span count from `SELECT count(*) FROM trace_spans` over the
//!   scheduler's warehouse — live store, HTTP view, and SQL view agree.
//!
//! Assembly is also deterministic: the same request traced twice yields
//! the same tree shape (names, processes, parent edges).

use cluster::{Scheduler, SchedulerConfig, Worker, WorkerConfig};
use crossbeam::channel;
use minidb::Value;
use serve::trace::SpanRecord;
use serve::{QueryRequest, ServeConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

const CORPUS_SEED: u64 = 11;
const METHOD: &str = "C3SQL";

/// Everything the test needs to inspect one trace, gathered inside the
/// scheduler's run closure where the handle lives.
struct Inspection {
    spans: Option<Vec<SpanRecord>>,
    sql_count: i64,
    trace_http: (u16, String),
}

enum Cmd {
    Query { request: QueryRequest, reply: channel::Sender<serve::QueryReply> },
    Inspect { trace_id: String, reply: channel::Sender<Inspection> },
}

fn spawn_worker(worker_id: &str, scheduler: SocketAddr) -> (channel::Sender<()>, thread::JoinHandle<()>) {
    let (stop, stop_rx) = channel::bounded::<()>(1);
    let config = WorkerConfig {
        worker_id: worker_id.to_string(),
        scheduler: scheduler.to_string(),
        corpus_seed: CORPUS_SEED,
        methods: vec![METHOD.to_string()],
        serve: ServeConfig {
            workers: 2,
            admin_addr: None,
            request_tracing: true,
            ..ServeConfig::default()
        },
        heartbeat: Duration::from_millis(100),
        ..WorkerConfig::default()
    };
    let join = thread::spawn(move || {
        Worker::run(config, |_| {
            let _ = stop_rx.recv();
        })
    });
    (stop, join)
}

/// Boot a traced 2-worker cluster, run `f` against a command channel into
/// the scheduler's closure, then tear everything down.
fn with_traced_cluster(f: impl FnOnce(&channel::Sender<Cmd>)) {
    let (addr_tx, addr_rx) = channel::bounded(1);
    let (cmd_tx, cmd_rx) = channel::unbounded::<Cmd>();
    let scheduler = thread::spawn(move || {
        let config = SchedulerConfig {
            admin_addr: Some("127.0.0.1:0".parse().expect("loopback literal parses")),
            request_tracing: true,
            warehouse: true,
            ..SchedulerConfig::default()
        };
        Scheduler::run(config, |handle| {
            let admin = handle.admin_addr().expect("admin configured");
            addr_tx.send((handle.client_addr(), admin)).expect("test thread is waiting");
            while let Ok(cmd) = cmd_rx.recv() {
                match cmd {
                    Cmd::Query { request, reply } => {
                        let _ = reply.send(handle.query(request));
                    }
                    Cmd::Inspect { trace_id, reply } => {
                        // force the flush tests would otherwise sleep for
                        handle.flush_warehouse();
                        let sql_count = match handle.store_sql(&format!(
                            "SELECT COUNT(*) FROM trace_spans WHERE trace_id = '{trace_id}'"
                        )) {
                            Some(Ok(rs)) => match rs.rows.first().and_then(|r| r.first()) {
                                Some(Value::Int(n)) => *n,
                                other => panic!("expected integer count, got {other:?}"),
                            },
                            other => panic!("warehouse query failed: {other:?}"),
                        };
                        let trace_http =
                            serve::http::http_get(admin, &format!("/v1/traces/{trace_id}"))
                                .expect("trace fetch");
                        let _ = reply.send(Inspection {
                            spans: handle.trace_spans(&trace_id),
                            sql_count,
                            trace_http,
                        });
                    }
                }
            }
        })
    });
    let (scheduler_addr, admin_addr) = addr_rx.recv().expect("scheduler binds");
    let workers: Vec<_> =
        (0..2).map(|i| spawn_worker(&format!("w{i}"), scheduler_addr)).collect();
    let both_ready = cluster::worker::wait_for(Duration::from_secs(30), || {
        match serve::http::http_get(admin_addr, "/workers") {
            Ok((200, body)) => body.matches("\"worker_id\"").count() == 2,
            _ => false,
        }
    });
    assert!(both_ready, "both workers never registered");

    f(&cmd_tx);

    drop(cmd_tx);
    scheduler.join().expect("scheduler exits cleanly");
    for (stop, join) in workers {
        drop(stop);
        join.join().expect("worker thread exits cleanly");
    }
}

fn query(cmd_tx: &channel::Sender<Cmd>, request: QueryRequest) -> serve::QueryResponse {
    let (tx, rx) = channel::bounded(1);
    assert!(cmd_tx.send(Cmd::Query { request, reply: tx }).is_ok(), "scheduler alive");
    rx.recv().expect("reply").expect("request served")
}

fn inspect(cmd_tx: &channel::Sender<Cmd>, trace_id: &str) -> Inspection {
    let (tx, rx) = channel::bounded(1);
    assert!(
        cmd_tx.send(Cmd::Inspect { trace_id: trace_id.to_string(), reply: tx }).is_ok(),
        "scheduler alive"
    );
    rx.recv().expect("inspection")
}

/// The tree shape that must be stable run to run: (name, process,
/// parent-name) edges, sorted.
fn shape(spans: &[SpanRecord]) -> Vec<(String, String, String)> {
    let name_of = |id: u64| {
        spans
            .iter()
            .find(|s| s.span_id == id)
            .map_or_else(|| "<root>".to_string(), |s| s.name.clone())
    };
    let mut out: Vec<_> = spans
        .iter()
        .map(|s| (s.name.clone(), s.process.clone(), name_of(s.parent_id)))
        .collect();
    out.sort();
    out
}

#[test]
fn one_request_assembles_one_tree_across_three_processes() {
    let corpus = datagen::generate_corpus(
        datagen::CorpusKind::Spider,
        &datagen::CorpusConfig::tiny(CORPUS_SEED),
    );
    let sample = &corpus.dev[0];
    let request = QueryRequest {
        method: METHOD.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[0].clone(),
        deadline: None,
        trace: None,
    };
    with_traced_cluster(|cmd_tx| {
        let resp = query(cmd_tx, request.clone());
        assert_eq!(resp.trace_id.len(), 16, "reply must carry the minted trace id");
        let inspection = inspect(cmd_tx, &resp.trace_id);
        let spans = inspection.spans.expect("trace assembled on the scheduler");

        // one root: the scheduler's request span
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1, "exactly one root: {spans:?}");
        assert_eq!(roots[0].name, "sched.request");
        assert_eq!(roots[0].process, "sched");

        // the forward hop parents the worker's whole subtree
        let forward = spans
            .iter()
            .find(|s| s.name == "sched.forward")
            .expect("forward hop recorded");
        assert_eq!(forward.parent_id, roots[0].span_id);
        let worker_root = spans
            .iter()
            .find(|s| s.name == "request")
            .expect("worker subtree merged");
        assert_eq!(worker_root.parent_id, forward.span_id);
        assert!(
            worker_root.process.starts_with('w'),
            "worker spans must carry the worker id, got {:?}",
            worker_root.process
        );

        // three distinct participants, connected into one tree
        let processes: BTreeSet<&str> = spans.iter().map(|s| s.process.as_str()).collect();
        assert_eq!(processes.len(), 2, "sched + exactly one worker: {processes:?}");
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert!(
                s.parent_id == 0 || ids.contains(&s.parent_id),
                "span {s:?} parents outside the tree"
            );
        }
        for stage in ["queue", "execute", "compare"] {
            assert!(
                spans.iter().any(|s| s.name == stage),
                "worker stage {stage:?} missing from {spans:?}"
            );
        }

        // HTTP view and SQL view agree with the live store
        let (status, body) = inspection.trace_http;
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"span_count\":{}", spans.len())), "{body}");
        assert_eq!(inspection.sql_count as usize, spans.len());

        // determinism: the same request traced again yields the same
        // tree shape (ids and timings differ; structure must not)
        let resp2 = query(cmd_tx, request.clone());
        assert_ne!(resp2.trace_id, resp.trace_id, "each request gets its own trace");
        let spans2 = inspect(cmd_tx, &resp2.trace_id).spans.expect("second trace assembled");
        assert_eq!(shape(&spans), shape(&spans2), "span-tree assembly must be deterministic");
    });
}
