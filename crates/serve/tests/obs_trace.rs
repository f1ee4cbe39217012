//! Serve ↔ obs ↔ minidb reconciliation: with the obs recorder enabled
//! around a service run, minidb's dispatch accounting must agree with the
//! service's own cache metrics — an execution-cache miss is one `run_query`
//! dispatch exactly when nothing has run its prediction yet (it is not the
//! gold query and translation handed over no outcome), every hit is zero —
//! over HTTP too, where the NL reply's rows add no execution of their own.
//! Runs in its own test binary because the obs recorder is global.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, SimulatedModel};
use nl2sql360::EvalContext;
use serve::{QueryRequest, ServeConfig, Service};
use std::sync::Mutex;

/// Tests in this binary share the global recorder; serialize them.
static GLOBAL: Mutex<()> = Mutex::new(());

fn request(sample: &datagen::Sample, variant: usize, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[variant].clone(),
        deadline: None,
        trace: None,
    }
}

fn dispatched(s: &obs::Snapshot) -> u64 {
    s.counter("minidb.dispatch.compiled") + s.counter("minidb.dispatch.interpreter")
}

#[test]
fn trace_counters_reconcile_cache_with_minidb_dispatch() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91));
    // Gold results execute eagerly here, BEFORE tracing starts, so the
    // dispatch counts seen below belong to served requests alone.
    let ctx = EvalContext::new(&corpus);
    // The round-1 misses a worker must execute: predictions that are not
    // the gold query and carry no outcome, found by translating the same
    // requests here, before the recorder is on.
    let model = SimulatedModel::new(method_by_name("C3SQL").expect("registered"));
    let unran = corpus
        .dev
        .iter()
        .take(10)
        .filter(|s| {
            let pred = model.translate(&ctx.task(s, 0)).expect("C3SQL runs on Spider");
            pred.executed.is_none() && pred.query != s.query
        })
        .count() as u64;
    assert!(0 < unran && unran < 10, "{unran} of 10 misses execute: pin both kinds");
    obs::reset();

    let config = ServeConfig::default();
    // Recorder on for the service's lifetime, restored when the guard drops.
    let recording = obs::enable();
    let (metrics, mid) = Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        // round 1: distinct questions — all execution-cache misses
        for sample in corpus.dev.iter().take(10) {
            let resp = handle.query(request(sample, 0, "C3SQL")).expect("served");
            assert!(!resp.cache_hit, "first sighting must miss");
        }
        let mid = obs::snapshot();
        // round 2: identical requests — all hits, no serve-side execution
        for sample in corpus.dev.iter().take(10) {
            let resp = handle.query(request(sample, 0, "C3SQL")).expect("served");
            assert!(resp.cache_hit, "second round must hit");
        }
        (handle.metrics(), mid)
    });

    drop(recording);

    let snap = obs::snapshot();
    assert_eq!(metrics.cache_hits, 10);
    assert_eq!(metrics.cache_misses, 10);

    // Reconcile cache behavior with minidb's dispatch accounting. The
    // simulated translator itself executes verification queries (the
    // corruption engine), and translation is deterministic per request —
    // so two identical rounds differ in dispatch count by *exactly* the
    // executions the cache saved: round 1's misses that had no outcome in
    // hand. A gold-identical miss takes gold's cached result and a
    // corrupted one the outcome its corruption check ran.
    let round1 = dispatched(&mid);
    let round2 = dispatched(&snap) - round1;
    assert_eq!(
        round1 - round2,
        unran,
        "dispatch delta between identical rounds must equal the misses nothing had run \
         (round1={round1}, round2={round2})"
    );

    // one request span per served request
    let request_spans = snap.events.iter().filter(|e| e.name == "serve.request").count();
    assert_eq!(request_spans as u64, metrics.completed);
    assert_eq!(metrics.completed, 20);

    // per-operator work charged during serving flows through too
    assert!(snap.counter("minidb.work.total") > 0);

    obs::reset();
}

#[test]
fn a_service_executes_each_query_once_at_most() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91));
    let ctx = EvalContext::new(&corpus);
    obs::reset();
    let recording = obs::enable();
    let config = ServeConfig::default();
    let methods = ["C3SQL", "RESDSQL-3B"];
    let served = Service::run_with_methods(config, &ctx, &methods, |handle| {
        // one after another, so no two misses of one key race each other
        for sample in &corpus.dev {
            for method in methods {
                handle.query(request(sample, 0, method)).expect("served");
            }
        }
        handle.metrics()
    });
    drop(recording);
    assert_eq!((served.completed, served.cache_misses), (120, 86));
    // Translation's corruption checks plus the misses nothing had run.
    // Before a miss took gold's result or the handed-over outcome, the
    // same requests dispatched 105 executions.
    assert_eq!(dispatched(&obs::snapshot()), 40, "120 requests");
    obs::reset();
}

#[test]
fn untraced_service_records_no_obs_data() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(92));
    let ctx = EvalContext::new(&corpus);
    obs::reset();
    Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
        for sample in corpus.dev.iter().take(5) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
    });
    let snap = obs::snapshot();
    assert!(snap.events.is_empty(), "a disabled recorder must record nothing");
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

/// `POST /v1/sql` with `fields` as its JSON body; the status and the
/// parsed reply.
fn post_json(addr: std::net::SocketAddr, fields: &[(&str, &str)]) -> (u16, serde::Value) {
    let map = fields.iter().map(|(k, v)| (k.to_string(), serde::Value::Str(v.to_string())));
    let body = serde_json::to_string(&serde::Value::Map(map.collect())).expect("renders");
    let (status, reply) = serve::http::http_post(addr, "/v1/sql", &body).expect("post");
    (status, serde_json::from_str(&reply).expect("JSON reply"))
}

/// An HTTP NL reply's rows are the outcome the pipeline scored: they equal
/// a raw `/v1/sql` of the same `pred_sql`, and the request dispatches what
/// translation dispatches plus one execution on a miss nothing had run —
/// none on a hit, none to produce the rows.
#[test]
fn an_http_nl_request_executes_its_prediction_at_most_once() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91));
    let ctx = EvalContext::new(&corpus);
    let model = SimulatedModel::new(method_by_name("C3SQL").expect("registered"));
    // per sample: whether C3SQL's prediction fails to execute, and how
    // many executions a miss adds (none when translation handed its
    // outcome over or it is the gold query)
    let miss = |s: &datagen::Sample| {
        let pred = model.translate(&ctx.task(s, 0)).expect("C3SQL runs on Spider");
        let fails = corpus.db(s).database.run_query(&pred.query).is_err();
        (fails, u64::from(pred.executed.is_none() && pred.query != s.query))
    };
    let executes = corpus.dev.iter().position(|s| miss(s) == (false, 1)).expect("one executes");
    let fails = corpus.dev.iter().position(|s| miss(s).0).expect("one fails");
    let fails_adds = miss(&corpus.dev[fails]).1;
    let config = ServeConfig::builder()
        .admin_addr("127.0.0.1:0".parse().expect("loopback"))
        .build()
        .expect("valid config");
    obs::reset();
    let recording = obs::enable();
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        // (sample, cache hit expected, executions the request adds)
        for (i, hit, executions) in
            [(executes, false, 1), (executes, true, 0), (fails, false, fails_adds)]
        {
            let s = &corpus.dev[i];
            let dispatches = || dispatched(&obs::snapshot());
            let before = dispatches();
            model.translate(&ctx.task(s, 0));
            let translation = dispatches() - before;
            let before = dispatches();
            let nl =
                [("question", s.variants[0].as_str()), ("db_id", &s.db_id), ("method", "C3SQL")];
            let (status, reply) = post_json(addr, &nl);
            let served = dispatches() - before;
            assert_eq!(status, 200, "{reply:?}");
            assert_eq!(reply.get("cache_hit"), Some(&serde::Value::Bool(hit)), "{reply:?}");
            assert_eq!(served, translation + executions, "dev[{i}] hit={hit}: {reply:?}");

            let Some(serde::Value::Str(pred_sql)) = reply.get("pred_sql") else {
                panic!("no pred_sql: {reply:?}");
            };
            let (raw_status, raw) = post_json(addr, &[("sql", pred_sql), ("db", &s.db_id)]);
            let rows = reply.get("result").expect("an NL reply carries its rows");
            if i == fails {
                assert!(matches!(reply.get("exec_failure"), Some(serde::Value::Str(_))));
                assert_eq!((raw_status, rows), (422, &serde::Value::Null), "{raw:?}");
            } else {
                assert_eq!((raw_status, rows), (200, &raw), "dev[{i}] hit={hit}");
            }
        }
    });
    drop(recording);
    obs::reset();
}
