//! End-to-end exercise of the `/v1` API over real TCP: raw SQL and NL
//! translation through `POST /v1/sql`, background eval runs through
//! `POST /v1/evals/<corpus>` persisted as queryable `minidb` tables, the
//! refusal surface (malformed JSON, oversized bodies, wrong methods,
//! deadline expiry), the isolation pin — an eval run executing while
//! serve traffic flows must leave both outcomes byte-identical to solo
//! executions — and what `serve::http`'s handler pool promises: probes
//! answer while a request is parked or a client is silent, concurrent
//! exchanges read like serial ones, back-pressure loses nobody, shutdown
//! does not wait.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{method_by_name, Nl2SqlModel, Prediction, SimulatedModel, TranslationTask};
use nl2sql360::{EvalContext, EvalOptions, Filter};
use serve::http::{http_get, http_post};
use serve::{QueryRequest, ServeConfig, Service};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

fn corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91))
}

fn api_config() -> ServeConfig {
    ServeConfig::builder()
        .workers(2)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid api config")
}

fn request(sample: &Sample, variant: usize, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[variant].clone(),
        deadline: None,
        trace: None,
    }
}

fn get_str<'v>(v: &'v serde::Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(serde::Value::Str(s)) => s,
        other => panic!("expected string at {key}, got {other:?}"),
    }
}

/// Poll `GET /v1/evals/<id>` until the run reaches a terminal status.
fn wait_for_run(addr: SocketAddr, id: i64) -> serde::Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http_get(addr, &format!("/v1/evals/{id}")).expect("status poll");
        assert_eq!(status, 200, "{body}");
        let v: serde::Value = serde_json::from_str(&body).expect("status JSON");
        match get_str(&v, "status") {
            "completed" | "failed" => return v,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "eval run {id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected status: {other}"),
        }
    }
}

#[test]
fn sql_endpoint_serves_raw_sql_and_nl_translation() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];

        // raw SQL against a corpus database matches direct execution
        let db = &corpus.databases[&sample.db_id].database;
        let direct = db.run(&sample.sql).expect("gold SQL executes");
        let body = serde_json::to_string(&serde::Value::Map(vec![
            ("sql".to_string(), serde::Value::Str(sample.sql.clone())),
            ("db".to_string(), serde::Value::Str(sample.db_id.clone())),
        ]))
        .unwrap();
        let (status, reply) = http_post(addr, "/v1/sql", &body).expect("raw sql");
        assert_eq!(status, 200, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("result JSON");
        assert_eq!(v.get("row_count"), Some(&serde::Value::Int(direct.rows.len() as i64)));
        let Some(serde::Value::Array(cols)) = v.get("columns") else {
            panic!("columns missing: {reply}");
        };
        assert_eq!(cols.len(), direct.columns.len());

        // unknown database → 404 with a JSON error body
        let (status, reply) =
            http_post(addr, "/v1/sql", r#"{"sql": "SELECT 1", "db": "nope"}"#).expect("bad db");
        assert_eq!(status, 404);
        let v: serde::Value = serde_json::from_str(&reply).expect("error JSON");
        assert!(get_str(v.get("error").expect("error"), "message").contains("nope"));

        // a broken query is a 422 carrying the engine's error text
        let (status, reply) = http_post(
            addr,
            "/v1/sql",
            &format!(r#"{{"sql": "SELECT nonsense_column FROM nonsense_table", "db": "{}"}}"#, sample.db_id),
        )
        .expect("broken sql");
        assert_eq!(status, 422, "{reply}");

        // NL translation through the worker pool agrees with the
        // in-process path on every outcome field
        let in_process = handle.query(request(sample, 0, "C3SQL")).expect("served");
        let body = serde_json::to_string(&serde::Value::Map(vec![
            ("question".to_string(), serde::Value::Str(sample.variants[0].clone())),
            ("db_id".to_string(), serde::Value::Str(sample.db_id.clone())),
            ("method".to_string(), serde::Value::Str("C3SQL".to_string())),
        ]))
        .unwrap();
        let (status, reply) = http_post(addr, "/v1/sql", &body).expect("nl query");
        assert_eq!(status, 200, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("NL JSON");
        assert_eq!(v.get("ex"), Some(&serde::Value::Bool(in_process.ex)));
        assert_eq!(v.get("em"), Some(&serde::Value::Bool(in_process.em)));
        assert_eq!(get_str(&v, "pred_sql"), in_process.pred_sql);
        if in_process.exec_failure.is_none() {
            let result = v.get("result").expect("result key");
            assert!(matches!(result.get("rows"), Some(serde::Value::Array(_))), "{reply}");
        }

        // unknown method and unknown question speak proper statuses
        let (status, _) = http_post(
            addr,
            "/v1/sql",
            &format!(
                r#"{{"question": "{}", "db_id": "{}", "method": "NoSuchMethod"}}"#,
                sample.variants[0], sample.db_id
            ),
        )
        .expect("unknown method");
        assert_eq!(status, 400);
        let (status, _) = http_post(
            addr,
            "/v1/sql",
            &format!(r#"{{"question": "question nobody asked", "db_id": "{}", "method": "C3SQL"}}"#, sample.db_id),
        )
        .expect("unknown question");
        assert_eq!(status, 404);
    });
}

#[test]
fn eval_runs_persist_and_are_queryable_through_sql() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    // the reference: the same evaluation executed directly
    let model = SimulatedModel::new(method_by_name("C3SQL").expect("registered"));
    let reference =
        ctx.evaluate_with(&model, &EvalOptions::new().subset(24)).expect("reference eval");
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");

        // corpus label is case-insensitive; an unknown one is a 404
        let (status, _) = http_post(addr, "/v1/evals/bird", r#"{"method": "C3SQL"}"#)
            .expect("wrong corpus");
        assert_eq!(status, 404);
        let (status, reply) =
            http_post(addr, "/v1/evals/spider", r#"{"method": "C3SQL", "subset": 24}"#)
                .expect("launch eval");
        assert_eq!(status, 202, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("202 JSON");
        assert_eq!(v.get("id"), Some(&serde::Value::Int(1)));
        assert_eq!(get_str(&v, "status"), "queued");

        let done = wait_for_run(addr, 1);
        assert_eq!(get_str(&done, "status"), "completed", "{done:?}");
        assert_eq!(done.get("samples"), Some(&serde::Value::Int(24)));

        // the persisted summary row, read back over POST /v1/sql, matches
        // the metrics module over the reference log
        let (status, reply) = http_post(
            addr,
            "/v1/sql",
            r#"{"sql": "SELECT method, corpus, samples, ex, em FROM eval_runs"}"#,
        )
        .expect("query runs");
        assert_eq!(status, 200, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("rows JSON");
        let Some(serde::Value::Array(rows)) = v.get("rows") else { panic!("{reply}") };
        assert_eq!(rows.len(), 1);
        let Some(serde::Value::Array(row)) = rows.first() else { panic!("{reply}") };
        assert_eq!(row[0], serde::Value::Str("C3SQL".to_string()));
        assert_eq!(row[1], serde::Value::Str("spider".to_string()));
        assert_eq!(row[2], serde::Value::Int(24));
        let filter = Filter::all();
        assert_eq!(
            row[3],
            serde::Value::Float(nl2sql360::metrics::ex(&reference, &filter).expect("ex"))
        );
        assert_eq!(
            row[4],
            serde::Value::Float(nl2sql360::metrics::em(&reference, &filter).expect("em"))
        );

        // a leaderboard-style aggregate over per-sample rows reproduces
        // the summary EX exactly — the same float expression
        let (status, reply) = http_post(
            addr,
            "/v1/sql",
            r#"{"sql": "SELECT AVG(ex) * 100 FROM eval_results WHERE run_id = 1 AND variant = 0"}"#,
        )
        .expect("aggregate");
        assert_eq!(status, 200, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("agg JSON");
        let Some(serde::Value::Array(rows)) = v.get("rows") else { panic!("{reply}") };
        let Some(serde::Value::Array(row)) = rows.first() else { panic!("{reply}") };
        assert_eq!(
            row[0],
            serde::Value::Float(nl2sql360::metrics::ex(&reference, &filter).expect("ex"))
        );

        // the diagnose cross-tab as plain SQL: failure-kind counts agree
        // with a direct walk of the reference log
        let legacy = nl2sql360::exec_failure_profile(&reference);
        let (status, reply) = http_post(
            addr,
            "/v1/sql",
            r#"{"sql": "SELECT exec_failure_label, COUNT(*) FROM eval_results WHERE run_id = 1 AND exec_failure IS NOT NULL GROUP BY exec_failure_label, exec_failure ORDER BY exec_failure"}"#,
        )
        .expect("cross-tab");
        assert_eq!(status, 200, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("cross-tab JSON");
        let Some(serde::Value::Array(rows)) = v.get("rows") else { panic!("{reply}") };
        assert_eq!(rows.len(), legacy.len());
        for (row, (kind, n)) in rows.iter().zip(&legacy) {
            let serde::Value::Array(cells) = row else { panic!("{reply}") };
            assert_eq!(cells[0], serde::Value::Str(kind.label().to_string()));
            assert_eq!(cells[1], serde::Value::Int(*n as i64));
        }

        // the run registry lists it
        let (status, reply) = http_get(addr, "/v1/evals").expect("list");
        assert_eq!(status, 200);
        let v: serde::Value = serde_json::from_str(&reply).expect("list JSON");
        assert!(matches!(v, serde::Value::Array(ref runs) if runs.len() == 1), "{reply}");
    });
}

#[test]
fn refusal_surface_speaks_json_and_proper_statuses() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let config = ServeConfig::builder()
        .workers(1)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid config");
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");

        // malformed JSON body → 400 with the uniform error shape
        let (status, reply) = http_post(addr, "/v1/sql", "this is not json").expect("bad json");
        assert_eq!(status, 400);
        let v: serde::Value = serde_json::from_str(&reply).expect("error body is JSON");
        let err = v.get("error").expect("error key");
        assert_eq!(err.get("status"), Some(&serde::Value::Int(400)));
        assert!(get_str(err, "message").contains("malformed JSON"));

        // empty body → 400
        let (status, _) = http_post(addr, "/v1/sql", "").expect("empty body");
        assert_eq!(status, 400);

        // a body one byte past MAX_BODY_BYTES → 413 before any parsing
        let oversized = "x".repeat(serve::http::MAX_BODY_BYTES + 1);
        let (status, reply) = http_post(addr, "/v1/sql", &oversized).expect("oversized");
        assert_eq!(status, 413, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("413 is JSON too");
        assert_eq!(
            v.get("error").and_then(|e| e.get("status")),
            Some(&serde::Value::Int(413))
        );

        // SQL nested past the parser's budget — 10 000 parentheses, 20 KB,
        // well under MAX_BODY_BYTES — used to overflow the handler's stack
        // and abort the process; it is a 400 in the uniform shape, for a
        // corpus database and for the eval store alike, and the server
        // keeps answering
        let deep = format!("SELECT {}1{} FROM t", "(".repeat(10_000), ")".repeat(10_000));
        let db_id = &corpus.dev[0].db_id;
        for body in [
            format!(r#"{{"sql": "{deep}", "db": "{db_id}"}}"#),
            format!(r#"{{"sql": "{deep}"}}"#),
        ] {
            assert!(body.len() < serve::http::MAX_BODY_BYTES);
            let (status, reply) = http_post(addr, "/v1/sql", &body).expect("deep sql");
            assert_eq!(status, 400, "{reply}");
            let v: serde::Value = serde_json::from_str(&reply).expect("error body is JSON");
            let err = v.get("error").expect("error key");
            assert_eq!(err.get("status"), Some(&serde::Value::Int(400)));
            assert!(get_str(err, "message").contains("nesting deeper than"), "{reply}");
        }
        // and the JSON around it: 30 000 brackets, 60 KB, overflowed the
        // same stack one layer earlier, on every endpoint that reads a body
        let deep = format!("{}{}", "[".repeat(30_000), "]".repeat(30_000));
        assert!(deep.len() < serve::http::MAX_BODY_BYTES);
        for path in ["/v1/sql", "/v1/evals/spider"] {
            let (status, reply) = http_post(addr, path, &deep).expect("deep json");
            assert_eq!(status, 400, "{reply}");
            let v: serde::Value = serde_json::from_str(&reply).expect("error body is JSON");
            let err = v.get("error").expect("error key");
            assert_eq!(err.get("status"), Some(&serde::Value::Int(400)));
            assert!(get_str(err, "message").contains("nesting deeper than"), "{reply}");
        }
        let (status, _) = http_get(addr, "/healthz").expect("server survived");
        assert_eq!(status, 200);
        // an ordinary syntax error is still the engine's 422
        let (status, reply) =
            http_post(addr, "/v1/sql", r#"{"sql": "SELECT FROM"}"#).expect("syntax error");
        assert_eq!(status, 422, "{reply}");

        // wrong method on a known path → 405 naming the allowed methods
        let (status, reply) = http_get(addr, "/v1/sql").expect("GET on POST route");
        assert_eq!(status, 405);
        let v: serde::Value = serde_json::from_str(&reply).expect("405 JSON");
        assert!(get_str(v.get("error").expect("error"), "message").contains("POST"));

        // unknown path → 404 JSON (the admin text endpoints still pin
        // their classic text bodies in admin_http.rs)
        let (status, reply) = http_get(addr, "/no-such-path").expect("404");
        assert_eq!(status, 404);
        assert!(serde_json::from_str::<serde::Value>(&reply).is_ok(), "{reply}");

        // eval launch refusals: unknown method, bad id lookups
        let (status, _) = http_post(addr, "/v1/evals/spider", r#"{"method": "NoSuch"}"#)
            .expect("unknown eval method");
        assert_eq!(status, 400);
        let (status, _) = http_get(addr, "/v1/evals/999").expect("unknown run id");
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/v1/evals/abc").expect("non-numeric run id");
        assert_eq!(status, 404);
    });
}

/// Hostile SQL against a server *without* the static check: minidb binds
/// names before it reads a row, so 40 bytes naming a missing column over
/// the three largest tables of a BIRD database (a cross join of millions of
/// rows, which the lazy contract materialized — seconds and gigabytes —
/// before the projection tripped) is a typed `422` in milliseconds, and so
/// is the deepest chain of scalar subqueries the parser admits with the bad
/// name innermost. The process answers `/healthz` afterwards. (That no work
/// unit is charged is `minidb/tests/obs_work.rs`'s assertion.)
#[test]
fn unknown_names_are_refused_before_any_row_is_read() {
    let corpus = generate_corpus(CorpusKind::Bird, &CorpusConfig::tiny(91));
    let ctx = EvalContext::new(&corpus);
    // the database whose three largest tables multiply furthest
    let (db_id, tables, pairs) = corpus
        .databases
        .iter()
        .map(|(id, g)| {
            let mut sizes: Vec<(usize, &str)> =
                g.database.tables().map(|t| (t.n_rows(), t.schema.name.as_str())).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let top = &sizes[..3];
            let names: Vec<&str> = top.iter().map(|(_, name)| *name).collect();
            (id, names.join(", "), top.iter().map(|(n, _)| n).product::<usize>())
        })
        .max_by_key(|(_, _, pairs)| *pairs)
        .expect("corpus has databases");
    assert!(pairs > 1_000_000, "{db_id}: {tables} is only {pairs} rows");
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let refused = |sql: &str| {
            let started = Instant::now();
            let body = format!(r#"{{"sql": "{sql}", "db": "{db_id}"}}"#);
            let (status, reply) = http_post(addr, "/v1/sql", &body).expect("hostile sql");
            let took = started.elapsed();
            assert_eq!(status, 422, "{reply}");
            let v: serde::Value = serde_json::from_str(&reply).expect("error body is JSON");
            let message = get_str(v.get("error").expect("error key"), "message");
            assert_eq!(message, "unknown column: nosuch", "{sql}");
            assert!(took < Duration::from_millis(500), "`{sql}` took {took:?}");
        };
        refused(&format!("SELECT nosuch FROM {tables}"));
        let chain = |n: usize| {
            format!("SELECT {}nosuch{} FROM {tables}", "(SELECT ".repeat(n), ")".repeat(n))
        };
        let deepest = (1..=sqlkit::MAX_NESTING)
            .rev()
            .find(|&n| sqlkit::parse_query(&chain(n)).is_ok())
            .expect("some depth parses");
        assert!(deepest >= sqlkit::MAX_NESTING / 4, "chain depth {deepest}");
        refused(&chain(deepest));
        let (status, _) = http_get(addr, "/healthz").expect("server survived");
        assert_eq!(status, 200);
    });
}

/// A model whose `translate` blocks until released, to wedge the worker
/// while a deadlined request waits in the queue.
struct GateModel {
    started: mpsc::SyncSender<()>,
    gate: Mutex<usize>,
    released: Condvar,
}

impl GateModel {
    fn new(started: mpsc::SyncSender<()>) -> Self {
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

/// The service owns its models; the test keeps the gate through this.
struct Shared(std::sync::Arc<GateModel>);

impl Nl2SqlModel for Shared {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
        self.0.translate(task)
    }
}

#[test]
fn deadline_expiry_mid_queue_returns_504() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = std::sync::Arc::new(GateModel::new(started_tx));
    let config = ServeConfig::builder()
        .workers(1)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid config");
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(Shared(gate.clone()))];
    Service::run(config, &ctx, models, |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];
        // wedge the single worker so the HTTP request's deadline expires
        // while it waits in the queue
        let wedged = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");

        let body = serde_json::to_string(&serde::Value::Map(vec![
            ("question".to_string(), serde::Value::Str(sample.variants[0].clone())),
            ("db_id".to_string(), serde::Value::Str(sample.db_id.clone())),
            ("method".to_string(), serde::Value::Str("Gate".to_string())),
            ("deadline_ms".to_string(), serde::Value::Int(1)),
        ]))
        .unwrap();
        let poster = std::thread::spawn(move || http_post(addr, "/v1/sql", &body));

        // wait until the deadlined request is queued, then let the worker
        // finish the wedged one and reach it — past its 1ms deadline
        let waited = Instant::now() + Duration::from_secs(5);
        while handle.queue_len() == 0 {
            assert!(Instant::now() < waited, "deadlined request never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        // let the 1ms deadline lapse while the request is still queued;
        // releasing too early would serve it in time and wedge the gate
        std::thread::sleep(Duration::from_millis(20));
        gate.release(1);
        assert!(wedged.wait().is_err(), "gate model always refuses");

        let (status, reply) = poster.join().expect("poster thread").expect("post");
        assert_eq!(status, 504, "{reply}");
        let v: serde::Value = serde_json::from_str(&reply).expect("504 JSON");
        assert_eq!(
            v.get("error").and_then(|e| e.get("status")),
            Some(&serde::Value::Int(504))
        );
    });
}

/// The isolation pin: an eval run executing while serve traffic flows must
/// not perturb either side. The persisted eval tables are compared
/// byte-for-byte against a run with no concurrent traffic, and the traffic
/// outcomes against a run with no concurrent eval.
#[test]
fn concurrent_eval_and_serve_traffic_are_byte_identical_to_solo_runs() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let n_traffic = corpus.dev.len().min(40);
    let dump_sql = r#"{"sql": "SELECT * FROM eval_results"}"#;
    let runs_sql = r#"{"sql": "SELECT * FROM eval_runs"}"#;

    let launch = |addr: SocketAddr| {
        let (status, reply) =
            http_post(addr, "/v1/evals/spider", r#"{"method": "SuperSQL", "workers": 2}"#)
                .expect("launch eval");
        assert_eq!(status, 202, "{reply}");
    };
    let dump = |addr: SocketAddr| {
        let (status, results) = http_post(addr, "/v1/sql", dump_sql).expect("dump results");
        assert_eq!(status, 200);
        let (status, runs) = http_post(addr, "/v1/sql", runs_sql).expect("dump runs");
        assert_eq!(status, 200);
        format!("{runs}\n{results}")
    };
    // outcome projection of one traffic reply: everything except timing
    let outcome = |r: Result<serve::QueryResponse, serve::QueryError>| match r {
        Ok(resp) => format!(
            "ok ex={} em={} sql={} work={:?} fail={:?}",
            resp.ex, resp.em, resp.pred_sql, resp.pred_work, resp.exec_failure
        ),
        Err(e) => format!("err {e}"),
    };

    // solo eval, no traffic
    let eval_alone = Service::run_with_methods(api_config(), &ctx, &["SuperSQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        launch(addr);
        let done = wait_for_run(addr, 1);
        assert_eq!(get_str(&done, "status"), "completed", "{done:?}");
        dump(addr)
    });

    // solo traffic, no eval
    let traffic_alone: Vec<String> =
        Service::run_with_methods(api_config(), &ctx, &["SuperSQL"], |handle| {
            corpus
                .dev
                .iter()
                .take(n_traffic)
                .map(|s| outcome(handle.query(request(s, 0, "SuperSQL"))))
                .collect()
        });

    // both at once: launch the eval, immediately drive the same traffic
    let (eval_mixed, traffic_mixed) =
        Service::run_with_methods(api_config(), &ctx, &["SuperSQL"], |handle| {
            let addr = handle.admin_addr().expect("admin endpoint configured");
            launch(addr);
            let traffic: Vec<String> = corpus
                .dev
                .iter()
                .take(n_traffic)
                .map(|s| outcome(handle.query(request(s, 0, "SuperSQL"))))
                .collect();
            let done = wait_for_run(addr, 1);
            assert_eq!(get_str(&done, "status"), "completed", "{done:?}");
            (dump(addr), traffic)
        });

    assert_eq!(
        eval_alone, eval_mixed,
        "persisted eval tables diverged under concurrent serve traffic"
    );
    assert_eq!(
        traffic_alone, traffic_mixed,
        "serve outcomes diverged under a concurrent eval run"
    );
}

/// Send `raw` bytes as one request and read the reply to EOF.
fn raw_exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    (status, reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

/// An unparsable `Content-Length` used to be read as 0: the body was
/// dropped, an oversized one dodged the `413`, and the caller was told
/// "missing JSON body". Each is a typed `400` now, as are two headers that
/// disagree; two that agree are one header, and the next connection is
/// answered as if nothing happened.
#[test]
fn malformed_content_length_is_a_typed_400() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let body = r#"{"sql": "SELECT COUNT(*) FROM eval_runs"}"#;
        let post = |headers: &str| {
            raw_exchange(addr, &format!("POST /v1/sql HTTP/1.0\r\n{headers}\r\n\r\n{body}"))
        };
        for headers in [
            "Content-Length: abc".to_string(),
            "Content-Length: -1".to_string(),
            "Content-Length: 99999999999999999999".to_string(),
            "Content-Length:".to_string(),
            format!("Content-Length: {}\r\nContent-Length: {}", body.len(), body.len() + 1),
        ] {
            let (status, reply) = post(&headers);
            assert_eq!(status, 400, "{headers}: {reply}");
            let v: serde::Value = serde_json::from_str(&reply).expect("error body is JSON");
            let message = get_str(v.get("error").expect("error key"), "message");
            assert_eq!(message, "malformed Content-Length", "{headers}");
        }
        let agreeing = format!("Content-Length: {0}\r\ncontent-length: {0}", body.len());
        let (status, reply) = post(&agreeing);
        assert_eq!(status, 200, "{reply}");
        let (status, reply) = http_post(addr, "/v1/sql", body).expect("well-formed follow-up");
        assert_eq!(status, 200, "{reply}");
    });
}

/// Time one `GET path`, which must answer 200.
fn probe(addr: SocketAddr, path: &str) -> Duration {
    let started = Instant::now();
    let (status, body) = http_get(addr, path).expect("probe");
    assert_eq!(status, 200, "{path}: {body}");
    started.elapsed()
}

/// `attempt` comes in under `limit`. Up to three tries, so that a
/// scheduling hiccup on a loaded box is not a failure; an endpoint that
/// waits for something fails every one.
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

/// One NL request parked in its handler (the worker is held at the gate):
/// the probes are answered by the other handlers, not after it.
#[test]
fn probes_answer_while_an_nl_request_is_parked() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let config = ServeConfig::builder()
        .workers(1)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid config");
    let gate = std::sync::Arc::new(GateModel::new(started_tx));
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(Shared(gate.clone()))];
    Service::run(config, &ctx, models, |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];
        let body = serde_json::to_string(&serde::Value::Map(vec![
            ("question".to_string(), serde::Value::Str(sample.variants[0].clone())),
            ("db_id".to_string(), serde::Value::Str(sample.db_id.clone())),
            ("method".to_string(), serde::Value::Str("Gate".to_string())),
        ]))
        .unwrap();
        let poster = std::thread::spawn(move || http_post(addr, "/v1/sql", &body));
        started_rx.recv_timeout(Duration::from_secs(5)).expect("NL request reached the worker");
        // opened on the way out of a failed probe too, or the drain that
        // follows the panic would wait at the gate forever
        struct Open(std::sync::Arc<GateModel>);
        impl Drop for Open {
            fn drop(&mut self) {
                self.0.release(1);
            }
        }
        let open = Open(gate.clone());
        for path in ["/healthz", "/readyz", "/metrics"] {
            assert_within(Duration::from_millis(50), path, || probe(addr, path));
        }
        drop(open);
        let (status, reply) = poster.join().expect("poster thread").expect("post");
        assert_ne!(status, 200, "the gate model refuses: {reply}");
    });
}

/// Connections that hold a handler without asking anything — one that
/// never sends a byte (its handler waits out the read timeout) and one that
/// announces a body past the limit, takes its `413` and then neither sends
/// the body nor closes (its handler sits in the discard) — cost that
/// handler, not the endpoint.
#[test]
fn silent_and_refused_clients_do_not_delay_probes() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        // both are armed anew for each try: they only hold for one timeout
        assert_within(Duration::from_millis(50), "/healthz beside held handlers", || {
            let _silent = TcpStream::connect(addr).expect("connect");
            let mut refused = TcpStream::connect(addr).expect("connect");
            refused.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
            let oversized = serve::http::MAX_BODY_BYTES + 1;
            let head = format!("POST /v1/sql HTTP/1.0\r\nContent-Length: {oversized}\r\n\r\n");
            refused.write_all(head.as_bytes()).expect("send head");
            let mut reply = String::new();
            refused.read_to_string(&mut reply).expect("server half-closes after the refusal");
            assert!(reply.starts_with("HTTP/1.0 413"), "{reply}");
            probe(addr, "/healthz")
        });
    });
}

/// Eight clients at once read what one client reads: every exchange of a
/// mixed list (probe, raw SQL, NL translation, unknown path, malformed
/// body) gets the body the same exchange got when issued alone, byte for
/// byte — NL replies minus the fields that report scheduling.
#[test]
fn concurrent_exchanges_are_byte_identical_to_serial_ones() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let exchanges: Vec<(Option<String>, String)> = (0..50)
        .map(|i| {
            let sample = &corpus.dev[i % corpus.dev.len()];
            let text = |s: &str| serde::Value::Str(s.to_string());
            let json = |fields: Vec<(&str, serde::Value)>| {
                let map = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
                serde_json::to_string(&serde::Value::Map(map)).unwrap()
            };
            match i % 5 {
                0 => (None, "/healthz".to_string()),
                1 => (
                    Some(json(vec![("sql", text(&sample.sql)), ("db", text(&sample.db_id))])),
                    "/v1/sql".to_string(),
                ),
                2 => (
                    Some(json(vec![
                        ("question", text(&sample.variants[0])),
                        ("db_id", text(&sample.db_id)),
                        ("method", text("C3SQL")),
                    ])),
                    "/v1/sql".to_string(),
                ),
                3 => (None, format!("/no-such-path/{i}")),
                _ => (Some(format!("not json {i}")), "/v1/sql".to_string()),
            }
        })
        .collect();
    let run = |addr: SocketAddr, (body, path): &(Option<String>, String)| {
        let (status, reply) = match body {
            Some(body) => http_post(addr, path, body),
            None => http_get(addr, path),
        }
        .expect("exchange");
        let scheduling = ["cache_hit", "batch_size", "latency_us", "trace_id"];
        match serde_json::from_str::<serde::Value>(&reply) {
            Ok(serde::Value::Map(fields)) if fields.iter().any(|(k, _)| k == "pred_sql") => {
                let kept = fields.into_iter().filter(|(k, _)| !scheduling.contains(&k.as_str()));
                let kept = serde::Value::Map(kept.collect());
                format!("{status} {}", serde_json::to_string(&kept).unwrap())
            }
            _ => format!("{status} {reply}"),
        }
    };
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let serial: Vec<String> = exchanges.iter().map(|e| run(addr, e)).collect();
        assert!(serial.iter().filter(|r| r.starts_with("200 ")).count() >= 20, "{serial:?}");
        std::thread::scope(|scope| {
            for client in 0..8 {
                let (exchanges, serial, run) = (&exchanges, &serial, &run);
                scope.spawn(move || {
                    // each client starts somewhere else in the list, so
                    // different kinds of exchange overlap
                    for step in 0..exchanges.len() {
                        let i = (step + client * 7) % exchanges.len();
                        assert_eq!(run(addr, &exchanges[i]), serial[i], "exchange {i}");
                    }
                });
            }
        });
    });
}

/// `Service::run` returns when its closure does: the acceptor is woken out
/// of `accept`, not waited for, and nothing on the start or stop path
/// sleeps out a poll.
#[test]
fn service_with_an_idle_listener_shuts_down_at_once() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    assert_within(Duration::from_millis(100), "Service::run after its closure", || {
        Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |_| Instant::now()).elapsed()
    });
}

/// More simultaneous connections than handlers plus queue slots (4 + 64):
/// the acceptor blocks, the rest wait in the kernel backlog, and every one
/// is answered — back-pressure, nobody reset.
#[test]
fn connections_past_the_queue_wait_and_are_all_answered() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            serve::http::serve_loop(
                listener,
                || stop.load(Ordering::SeqCst),
                |req| {
                    std::thread::sleep(Duration::from_millis(2));
                    serve::http::Response::text(200, req.path.clone())
                },
            )
        });
        let mut clients: Vec<TcpStream> = (0..100)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(format!("GET /{i} HTTP/1.0\r\n\r\n").as_bytes()).expect("send");
                stream
            })
            .collect();
        for (i, stream) in clients.iter_mut().enumerate() {
            let mut reply = String::new();
            stream.read_to_string(&mut reply).expect("read reply");
            assert!(reply.starts_with("HTTP/1.0 200"), "client {i}: {reply}");
            assert!(reply.ends_with(&format!("\r\n\r\n/{i}")), "client {i}: {reply}");
        }
        stop.store(true, Ordering::SeqCst);
        serve::wake_listener(addr);
    });
}

/// The absolute gate on the transport floor, armed on any core count: a
/// probe that does no work answers in well under the 10 ms the accept poll
/// used to cost every exchange.
#[test]
fn healthz_median_is_under_half_the_old_poll() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(api_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let mut took: Vec<Duration> = (0..50).map(|_| probe(addr, "/healthz")).collect();
        took.sort_unstable();
        assert!(took[25] < Duration::from_millis(5), "median /healthz {:?}", took[25]);
    });
}
