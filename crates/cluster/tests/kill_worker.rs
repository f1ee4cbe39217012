//! The hard version of the requeue pin: real processes, a real SIGKILL.
//!
//! Boots `serve-scheduler` and two `serve-worker` processes, floods the
//! scheduler with a burst, SIGKILLs one worker mid-burst, and requires
//! that every request is answered exactly once anyway — the killed
//! worker's queued and in-flight work requeues to the survivor through
//! eviction (control-connection loss and forward IO errors both fire
//! within milliseconds of the kill; the heartbeat reaper is the backstop).

use serve::http::{http_get, http_post};
use serve::proto::ClusterClient;
use serve::QueryRequest;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CORPUS_SEED: u64 = 11;
const METHODS: [&str; 2] = ["C3SQL", "DINSQL"];

/// Kills the child on drop so a failing assert never leaks processes.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn a binary, read its first stdout line (the "listening" line).
fn spawn_with_banner(mut cmd: Command) -> (Proc, String) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("banner line");
    (Proc(child), line.trim().to_string())
}

/// Pull `key=value` out of a banner line.
fn banner_field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in banner {line:?}"))
        .to_string()
}

fn requests() -> Vec<QueryRequest> {
    let corpus =
        datagen::generate_corpus(datagen::CorpusKind::Spider, &datagen::CorpusConfig::tiny(CORPUS_SEED));
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

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    cond()
}

/// Extract a counter's value from a Prometheus exposition.
fn metric_value(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[test]
fn sigkilled_workers_requeue_and_every_request_answers_exactly_once() {
    // scheduler first; tight reaper timings keep the heartbeat backstop
    // relevant inside the test budget
    let mut sched_cmd = Command::new(env!("CARGO_BIN_EXE_serve-scheduler"));
    sched_cmd.args([
        "--listen", "127.0.0.1:0",
        "--admin", "127.0.0.1:0",
        "--heartbeat-timeout-ms", "800",
        "--reap-interval-ms", "100",
        // tracing + warehouse on: the SIGKILL pin below reads the
        // requeue hop back out of the scheduler's own trace tables
        "--warehouse",
    ]);
    let (_sched, sched_banner) = spawn_with_banner(sched_cmd);
    let client_addr = banner_field(&sched_banner, "client");
    let admin_addr: SocketAddr =
        banner_field(&sched_banner, "admin").parse().expect("admin addr parses");

    let spawn_worker = |id: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve-worker"));
        cmd.args([
            "--scheduler", &client_addr,
            "--id", id,
            "--corpus-seed", &CORPUS_SEED.to_string(),
            "--methods", &METHODS.join(","),
            "--queue", "1024",
            "--heartbeat-ms", "150",
            "--trace",
        ]);
        spawn_with_banner(cmd)
    };
    let (_w1, w1_banner) = spawn_worker("w1");
    let (w2, w2_banner) = spawn_worker("w2");
    assert!(w1_banner.contains("serve-worker w1"), "{w1_banner}");
    assert!(w2_banner.contains("serve-worker w2"), "{w2_banner}");

    // both workers on the ring before the burst, so both own arcs
    let both_registered = wait_for(Duration::from_secs(30), || {
        matches!(http_get(admin_addr, "/workers"),
            Ok((200, body)) if body.matches("\"worker_id\"").count() == 2)
    });
    assert!(both_registered, "both workers never registered");

    let reqs = requests();
    let mut client =
        ClusterClient::connect(&client_addr, Duration::from_secs(5)).expect("client connects");
    client.set_reply_timeout(Some(Duration::from_secs(60))).expect("timeout set");
    let mut ids = Vec::with_capacity(reqs.len());
    for req in &reqs {
        ids.push(client.submit(req.clone()).expect("submit"));
    }

    // read a sliver of the burst, then SIGKILL w2 with most of its shard
    // still queued or on the wire
    let kill_after = reqs.len() / 10;
    let mut by_id: BTreeMap<u64, bool> = BTreeMap::new();
    let mut victim = Some(w2);
    while by_id.len() < reqs.len() {
        let (id, reply) = client.next_reply().expect("reply within timeout");
        assert!(
            by_id.insert(id, reply.is_ok()).is_none(),
            "request {id} answered twice"
        );
        if by_id.len() >= kill_after {
            if let Some(mut w2) = victim.take() {
                w2.0.kill().expect("SIGKILL w2");
                let _ = w2.0.wait();
            }
        }
    }
    assert!(victim.is_none(), "the kill never happened");
    for id in &ids {
        assert_eq!(by_id.get(id), Some(&true), "request {id} missing or failed");
    }

    // the scheduler noticed: w2 evicted, its work requeued, one member left
    let (status, exposition) = http_get(admin_addr, "/metrics").expect("metrics scrape");
    assert_eq!(status, 200);
    let requeued = metric_value(&exposition, "cluster_requeued_all_total").expect("requeued family");
    let reaped = metric_value(&exposition, "cluster_reaped_workers_all_total").expect("reaped family");
    assert!(requeued >= 1, "SIGKILL requeued nothing:\n{exposition}");
    assert!(reaped >= 1, "w2 was never evicted:\n{exposition}");
    let (status, members) = http_get(admin_addr, "/workers").expect("workers scrape");
    assert_eq!(status, 200);
    assert_eq!(
        members.matches("\"worker_id\"").count(),
        1,
        "member table should hold only the survivor: {members}"
    );
    assert!(members.contains("\"w1\""), "{members}");

    // The requeued requests left a paper trail. Wait out the warehouse
    // flusher, then pull one requeued trace id back out over SQL.
    let sql = |query: &str| -> serde::Value {
        let body = format!("{{\"sql\":\"{query}\"}}");
        let (status, reply) = http_post(admin_addr, "/v1/sql", &body).expect("warehouse query");
        assert_eq!(status, 200, "{reply}");
        serde_json::from_str(&reply).expect("warehouse reply parses")
    };
    let first_cell = |v: &serde::Value| -> Option<serde::Value> {
        match v.get("rows") {
            Some(serde::Value::Array(rows)) => match rows.first() {
                Some(serde::Value::Array(cells)) => cells.first().cloned(),
                _ => None,
            },
            _ => None,
        }
    };
    let mut requeued_trace = None;
    wait_for(Duration::from_secs(10), || {
        let v = sql("SELECT trace_id FROM trace_spans WHERE name = 'sched.requeue'");
        match first_cell(&v) {
            Some(serde::Value::Str(hex)) => {
                requeued_trace = Some(hex);
                true
            }
            _ => false,
        }
    });
    let hex = requeued_trace.expect("no requeued trace reached the warehouse");

    // Exactly ONE complete trace: one scheduler root, one successful
    // worker execution subtree — the killed worker's partial attempt
    // died with its connection and never merged.
    let count_where = |cond: &str| -> i64 {
        let v = sql(&format!(
            "SELECT COUNT(*) FROM trace_spans WHERE trace_id = '{hex}' AND {cond}"
        ));
        match first_cell(&v) {
            Some(serde::Value::Int(n)) => n,
            other => panic!("expected a count, got {other:?}"),
        }
    };
    assert_eq!(count_where("name = 'sched.request'"), 1, "one root for trace {hex}");
    assert_eq!(count_where("name = 'request'"), 1, "one worker subtree for trace {hex}");
    assert!(count_where("name = 'sched.requeue'") >= 1, "retry hop missing from {hex}");
    assert_eq!(
        count_where("name = 'request' AND process = 'w1'"),
        1,
        "the surviving worker must own the execution subtree of {hex}"
    );

    // and the assembled tree is served back over the trace endpoint
    let (status, tree) =
        http_get(admin_addr, &format!("/v1/traces/{hex}")).expect("trace fetch");
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains("sched.requeue"), "retry hop missing from the tree: {tree}");

    // Hostile input last, at the two processes still standing. A JSON body
    // or a wire frame nested 30 000 deep (60 KB, inside both size bounds)
    // used to overflow the reading thread's stack and abort the process.
    // Now the body is the uniform 400, the frame costs its sender the
    // connection, and both processes go on answering.
    let deep = format!("{}{}", "[".repeat(30_000), "]".repeat(30_000));
    let (status, reply) = http_post(admin_addr, "/v1/sql", &deep).expect("deep body");
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");
    for addr in [client_addr.as_str(), banner_field(&w1_banner, "serve").as_str()] {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
        stream.write_all(&(deep.len() as u32).to_be_bytes()).expect("length prefix");
        stream.write_all(deep.as_bytes()).expect("deep frame");
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply); // closed, or reset with the frame unread
        assert!(reply.is_empty(), "{addr} answered a frame it cannot decode");
    }
    let (status, _) = http_get(admin_addr, "/healthz").expect("scheduler survived");
    assert_eq!(status, 200);
    let id = client.submit(reqs[0].clone()).expect("submit after the deep frames");
    let (got, reply) = client.next_reply().expect("w1 survived and answers");
    assert_eq!((got, reply.is_ok()), (id, true));
}
