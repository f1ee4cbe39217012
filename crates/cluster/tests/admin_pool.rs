//! What the shared accept loop and `serve::http`'s handler pool promise on
//! the cluster's side (the engine's twin is `serve/tests/api_http.rs`): the
//! scheduler's admin probes answer while an NL request is parked in a
//! handler, and neither `Scheduler::run` nor `Worker::attach` waits for a
//! client — or for a poll — to return once its closure has, registered
//! workers or not.

use cluster::{Scheduler, SchedulerConfig, Worker, WorkerConfig};
use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use serve::http::{http_get, http_post};
use serve::proto::{write_frame, Message};
use serve::{ServeConfig, Service};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn loopback_any() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback literal parses")
}

/// `attempt` comes in under `limit`. Up to three tries, so that a
/// scheduling hiccup on a loaded box is not a failure; something that
/// waits fails every one.
fn assert_within(limit: Duration, what: &str, mut attempt: impl FnMut() -> Duration) {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        best = best.min(attempt());
        if best < limit {
            return;
        }
    }
    panic!("{what} took {best:?} at best, limit {limit:?}");
}

/// With no worker registered an NL request parks in the scheduler — and
/// with it the admin handler that forwarded it — until shutdown refuses
/// it. The probes are answered by the other handlers meanwhile, and the
/// parked handler does not hold up `Scheduler::run`'s return.
#[test]
fn scheduler_probes_answer_while_an_nl_request_is_parked() {
    let config = SchedulerConfig { admin_addr: Some(loopback_any()), ..SchedulerConfig::default() };
    let (poster, returned) = Scheduler::run(config, |handle| {
        let admin = handle.admin_addr().expect("admin configured");
        let body = r#"{"question": "how many?", "db_id": "nowhere", "method": "C3SQL"}"#;
        let poster = std::thread::spawn(move || http_post(admin, "/v1/sql", body));
        let parked = cluster::worker::wait_for(Duration::from_secs(5), || {
            handle.metrics_text().contains("cluster_pending_depth 1")
        });
        assert!(parked, "NL request never parked:\n{}", handle.metrics_text());
        for (path, expected) in [("/healthz", 200), ("/readyz", 503), ("/metrics", 200), ("/workers", 200)] {
            assert_within(Duration::from_millis(50), path, || {
                let started = Instant::now();
                let (status, body) = http_get(admin, path).expect("probe");
                assert_eq!(status, expected, "{path}: {body}");
                started.elapsed()
            });
        }
        (poster, Instant::now())
    });
    let shutdown = returned.elapsed();
    let (status, reply) = poster.join().expect("poster thread").expect("post");
    assert_eq!(status, 503, "shutdown refuses what it could not place: {reply}");
    assert!(shutdown < Duration::from_millis(500), "shutdown with a parked handler took {shutdown:?}");
}

#[test]
fn scheduler_with_idle_listeners_shuts_down_at_once() {
    assert_within(Duration::from_millis(100), "Scheduler::run after its closure", || {
        let config =
            SchedulerConfig { admin_addr: Some(loopback_any()), ..SchedulerConfig::default() };
        Scheduler::run(config, |_| Instant::now()).elapsed()
    });
}

/// A registered worker with nothing to do has no forward stream and no
/// stream thread — a stream is dialed, and its reader started, only when a
/// request first needs it — so nothing waits on a poll, and
/// `Scheduler::run` still returns at once. Twenty rounds: shutdown paths
/// race, and one lucky run proves little.
#[test]
fn scheduler_with_an_idle_registered_worker_shuts_down_at_once() {
    for round in 0..20 {
        let (control, returned) = Scheduler::run(SchedulerConfig::default(), |handle| {
            // a worker's control connection: registration starts no
            // stream; one is dialed only once work arrives
            let mut control = TcpStream::connect(handle.client_addr()).expect("connect");
            let register = Message::Register {
                worker_id: "idle".to_string(),
                serve_addr: "127.0.0.1:9".to_string(),
                methods: vec!["C3SQL".to_string()],
            };
            write_frame(&mut control, &register).expect("register");
            let registered =
                cluster::worker::wait_for(Duration::from_secs(5), || handle.ready_workers() == 1);
            assert!(registered, "round {round}: the worker never registered");
            (control, Instant::now())
        });
        let took = returned.elapsed();
        assert!(took < Duration::from_millis(100), "round {round}: shutdown took {took:?}");
        drop(control);
    }
}

#[test]
fn worker_with_an_idle_listener_shuts_down_at_once() {
    // a scheduler address nobody listens on: registration is refused at
    // once and the heartbeat loop sits in its retry sleep
    let nobody = TcpListener::bind(loopback_any()).expect("bind").local_addr().expect("addr");
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(11));
    let ctx = nl2sql360::EvalContext::new(&corpus);
    let config = WorkerConfig {
        scheduler: nobody.to_string(),
        methods: vec!["C3SQL".to_string()],
        ..WorkerConfig::default()
    };
    Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
        assert_within(Duration::from_millis(100), "Worker::attach after its closure", || {
            Worker::attach(&config, handle, |_| Instant::now()).elapsed()
        });
    });
}

/// Raw SQL nested past the parser's budget is a malformed request on the
/// scheduler's warehouse exactly as on an engine (`serve/tests/api_http.rs`):
/// `400` in the uniform error shape, where an ordinary syntax error stays
/// the engine's `422`.
#[test]
fn scheduler_warehouse_refuses_over_nested_sql_like_an_engine() {
    let config = SchedulerConfig {
        admin_addr: Some(loopback_any()),
        warehouse: true,
        ..SchedulerConfig::default()
    };
    Scheduler::run(config, |handle| {
        let admin = handle.admin_addr().expect("admin configured");
        let deep = format!("SELECT {}1{} FROM t", "(".repeat(10_000), ")".repeat(10_000));
        let body = format!(r#"{{"sql": "{deep}"}}"#);
        assert!(body.len() < serve::http::MAX_BODY_BYTES);
        let (status, reply) = http_post(admin, "/v1/sql", &body).expect("deep sql");
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("nesting deeper than"), "{reply}");
        let (status, reply) =
            http_post(admin, "/v1/sql", r#"{"sql": "SELECT FROM"}"#).expect("syntax error");
        assert_eq!(status, 422, "{reply}");
        let (status, _) = http_get(admin, "/healthz").expect("scheduler survived");
        assert_eq!(status, 200);
    });
}
