//! Serve ↔ obs ↔ minidb reconciliation: with the obs recorder enabled
//! around a service run, minidb's dispatch accounting must agree with the
//! service's own cache metrics — every execution-cache miss is exactly one
//! `run_query` dispatch, every hit is zero. Runs in its own test binary
//! because the obs recorder is global.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
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

#[test]
fn trace_counters_reconcile_cache_with_minidb_dispatch() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91));
    // Gold results execute eagerly here, BEFORE tracing starts, so the
    // dispatch counts seen below belong to served requests alone.
    let ctx = EvalContext::new(&corpus);
    obs::reset();

    let config = ServeConfig::builder().workers(2).build().expect("valid config");
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
    // executions the cache saved: round 1's misses.
    let dispatch =
        |s: &obs::Snapshot| s.counter("minidb.dispatch.compiled") + s.counter("minidb.dispatch.interpreter");
    let round1 = dispatch(&mid);
    let round2 = dispatch(&snap) - round1;
    assert_eq!(
        round1 - round2,
        metrics.cache_misses,
        "dispatch delta between identical rounds must equal the misses the cache absorbed \
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
