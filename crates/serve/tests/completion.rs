//! One completion per answered request, pinned from outside.
//!
//! Two scripted single-worker runs drive every way a request can be
//! answered — ok (once as a cache miss, once as a hit, once as a miss
//! whose execution fails), deadline exceeded, translation refused,
//! unknown method, unknown question, overloaded, and (with the static
//! check on, which rules execution failures out) statically rejected —
//! and two tests read the result:
//!
//! * every `MetricsSnapshot` counter, the composition of `failed`,
//!   `lost() == 0`, the window report's error count and the slow log's
//!   trace-id echo have the values the script implies;
//! * every worker-answered request's span tree — derived at completion
//!   from the request's stamps — has the exact span list its outcome
//!   implies, the root of an ok reply spans exactly the reply's latency,
//!   and every slow-log entry's latency is its queue wait plus its
//!   execution time to the microsecond;
//! * the `/metrics` and `/metrics.json` surface (every `# HELP`/`# TYPE`
//!   line, every series name and label set, every counter and histogram
//!   `_count` value) equals a golden captured before serve's duplicate
//!   metrics plane was deleted, so the exposition is unchanged by test.
//!   Gauge, window and histogram bucket/sum/quantile values depend on
//!   timing and are masked. The golden is taken with the obs recorder
//!   off; with it on the only lines that may differ from older commits
//!   are the bridged `obs_*{name="serve.exec_cache.hit|miss"}` counters
//!   and `{name="serve.queue_wait"|"serve.exec"}` histograms, which
//!   mirrored numbers the registry families already carry.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use nl2sql360::{EvalContext, ExecFailureKind};
use serve::http::http_get;
use serve::{
    QueryError, QueryRequest, QueryResponse, ServeConfig, Service, ServiceHandle, TraceContext,
};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91))
}

fn request(sample: &Sample, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[0].clone(),
        deadline: None,
        trace: None,
    }
}

/// Blocks in `translate` until a permit is released, then refuses: one
/// model both wedges the single worker and produces the `refused` outcome.
struct Gate {
    started: Mutex<mpsc::Sender<()>>,
    permits: Mutex<usize>,
    released: Condvar,
}

impl Gate {
    fn release(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
        self.released.notify_all();
    }
}

struct GateModel(Arc<Gate>);

impl Nl2SqlModel for GateModel {
    fn name(&self) -> &str {
        "Gate"
    }

    fn translate(&self, _task: &TranslationTask<'_>) -> Option<Prediction> {
        let _ = self.0.started.lock().unwrap().send(());
        let mut permits = self.0.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.0.released.wait(permits).unwrap();
        }
        *permits -= 1;
        None
    }
}

fn c3sql() -> Box<dyn Nl2SqlModel> {
    let spec = modelzoo::method_by_name("C3SQL").expect("C3SQL is in the registry");
    Box::new(modelzoo::SimulatedModel::new(spec))
}

fn config(static_check: bool) -> ServeConfig {
    ServeConfig::builder()
        .workers(1)
        .queue_capacity(4)
        .static_check(static_check)
        .request_tracing(true)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .unwrap()
}

/// Indices of the first dev sample C3SQL answers cleanly and the first it
/// does not, found by a throwaway run: with the static check on the
/// second is rejected before execution, with it off it fails in execution.
/// (A query that passes the check never fails in `minidb`, so no single
/// service can produce both; the script below runs one of each.)
fn pick_samples(corpus: &Corpus, ctx: &EvalContext<'_>, static_check: bool) -> (usize, usize) {
    Service::run(config(static_check), ctx, vec![c3sql()], |handle| {
        let (mut clean, mut not_clean) = (None, None);
        for (i, sample) in corpus.dev.iter().enumerate() {
            match handle.query(request(sample, "C3SQL")) {
                Ok(r) if r.exec_failure.is_none() => clean = clean.or(Some(i)),
                Ok(_) | Err(QueryError::StaticRejected(_)) => not_clean = not_clean.or(Some(i)),
                Err(e) => panic!("unexpected reply while picking samples: {e}"),
            }
        }
        (clean.expect("a cleanly answered sample"), not_clean.expect("a failing sample"))
    })
}

/// `req` under a trace id the test names: an error reply has no field
/// that echoes one, so the service adopts this id instead of minting.
fn traced(mut req: QueryRequest, id: u64) -> QueryRequest {
    req.trace = Some(TraceContext { trace_id: format!("{id:016x}"), parent_span: 0 });
    req
}

/// A worker-answered request and the span tree its outcome implies.
struct Traced {
    trace_id: String,
    /// `(name, attrs)` of every span in recording order, root last.
    spans: Vec<(&'static str, String)>,
    /// An ok reply's latency, which its root span must cover exactly.
    latency: Option<Duration>,
}

impl Traced {
    /// The tree of an ok reply from C3SQL: every stage ran.
    fn ok(r: &QueryResponse, static_check: bool) -> Traced {
        let hit = u8::from(r.cache_hit);
        let mut spans = vec![("queue", String::new()), ("translate", "method=C3SQL".to_string())];
        if static_check {
            spans.push(("static_check", "rules_fired=0".to_string()));
        }
        spans.push(("execute", format!("cache_hit={hit}")));
        spans.push(("compare", format!("ex={} em={}", u8::from(r.ex), u8::from(r.em))));
        spans.push(("request", format!("outcome=ok batch={} cache_hit={hit}", r.batch_size)));
        Traced { trace_id: r.trace_id.clone(), spans, latency: Some(r.latency) }
    }

    /// The tree of an error reply: the stages that ran, then the root.
    fn error(id: u64, stages: &[(&'static str, &str)], root: &str) -> Traced {
        let mut spans: Vec<_> = stages.iter().map(|&(n, a)| (n, a.to_string())).collect();
        spans.push(("request", root.to_string()));
        Traced { trace_id: format!("{id:016x}"), spans, latency: None }
    }
}

/// What a script observed besides the service's own accounting.
#[derive(Default)]
struct Observed {
    exec_failure: Option<ExecFailureKind>,
    rules: Vec<String>,
    ok_trace_ids: Vec<String>,
    /// One per worker outcome the script produced.
    traced: Vec<Traced>,
}

/// The main script, static check off (the default): one worker answers ok
/// as a miss, a hit and a miss whose execution fails, then unknown
/// method, unknown question, and — behind a wedged worker — refused,
/// deadline exceeded and overloaded. `read` gets the still-live service.
fn scripted_run<R>(read: impl FnOnce(&ServiceHandle<'_>, &Observed) -> R) -> R {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (clean, exec_fails) = pick_samples(&corpus, &ctx, false);
    let (started_tx, started_rx) = mpsc::channel();
    let gate = Arc::new(Gate {
        started: Mutex::new(started_tx),
        permits: Mutex::new(0),
        released: Condvar::new(),
    });
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![c3sql(), Box::new(GateModel(gate.clone()))];
    Service::run(config(false), &ctx, models, |handle| {
        let clean = &corpus.dev[clean];
        let mut seen = Observed::default();

        let miss = handle.query(request(clean, "C3SQL")).expect("served");
        assert!(!miss.cache_hit && miss.exec_failure.is_none());
        let hit = handle.query(request(clean, "C3SQL")).expect("served");
        assert!(hit.cache_hit);
        let failing = handle.query(request(&corpus.dev[exec_fails], "C3SQL")).expect("served");
        assert!(!failing.cache_hit);
        seen.exec_failure = failing.exec_failure;
        seen.traced.extend([&miss, &hit, &failing].map(|r| Traced::ok(r, false)));
        seen.ok_trace_ids.extend([miss.trace_id, hit.trace_id, failing.trace_id]);

        assert!(matches!(
            handle.query(request(clean, "NoSuchMethod")),
            Err(QueryError::UnknownMethod(_))
        ));
        let mut nobody_asked = request(clean, "C3SQL");
        nobody_asked.question = "question nobody asked".into();
        assert!(matches!(handle.query(nobody_asked), Err(QueryError::UnknownQuestion)));

        // wedge the worker, fill the queue of 4, overflow it by one
        let wedged = handle.submit(traced(request(clean, "Gate"), 0xa)).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");
        let mut late = traced(request(clean, "C3SQL"), 0xb);
        late.deadline = Some(Duration::from_millis(1));
        let late = handle.submit(late).expect("admitted");
        let refused_a = handle.submit(request(clean, "Gate")).expect("admitted");
        let refused_b = handle.submit(request(clean, "Gate")).expect("admitted");
        let queued_hit = handle.submit(request(clean, "C3SQL")).expect("admitted");
        assert!(matches!(handle.submit(request(clean, "C3SQL")), Err(QueryError::Overloaded)));
        std::thread::sleep(Duration::from_millis(10));
        gate.release(3);

        assert!(matches!(wedged.wait(), Err(QueryError::TranslationRefused)));
        assert!(matches!(late.wait(), Err(QueryError::DeadlineExceeded)));
        assert!(matches!(refused_a.wait(), Err(QueryError::TranslationRefused)));
        assert!(matches!(refused_b.wait(), Err(QueryError::TranslationRefused)));
        let queued_hit = queued_hit.wait().expect("served");
        assert!(queued_hit.cache_hit);
        // dequeued together with the deadline drop: same method, one round
        assert_eq!(queued_hit.batch_size, 2);
        seen.traced.extend([
            Traced::ok(&queued_hit, false),
            Traced::error(0xa, &[("queue", ""), ("translate", "method=Gate")], "outcome=refused batch=1"),
            Traced::error(0xb, &[("queue", "")], "outcome=deadline_exceeded batch=2"),
        ]);
        seen.ok_trace_ids.push(queued_hit.trace_id);

        read(handle, &seen)
    })
}

/// The seventh outcome needs the static check on: one clean answer and
/// one rejection.
fn scripted_static_run<R>(read: impl FnOnce(&ServiceHandle<'_>, &Observed) -> R) -> R {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (clean, rejected) = pick_samples(&corpus, &ctx, true);
    Service::run(config(true), &ctx, vec![c3sql()], |handle| {
        let mut seen = Observed::default();
        let ok = handle.query(request(&corpus.dev[clean], "C3SQL")).expect("served");
        seen.traced.push(Traced::ok(&ok, true));
        seen.ok_trace_ids.push(ok.trace_id);
        let Err(QueryError::StaticRejected(rules)) =
            handle.query(traced(request(&corpus.dev[rejected], "C3SQL"), 0xc))
        else {
            panic!("the picked sample must be statically rejected");
        };
        let fired = format!("rules_fired={}", rules.len());
        let stages = [("queue", ""), ("translate", "method=C3SQL"), ("static_check", &fired)];
        seen.traced.push(Traced::error(0xc, &stages, "outcome=static_rejected batch=1"));
        seen.rules = rules;
        read(handle, &seen)
    })
}

/// The slow log holds the ok replies only, each echoing its trace id, and
/// every one of those traces finished its tree with the outcome label.
fn assert_slow_log_echoes(handle: &ServiceHandle<'_>, seen: &Observed) {
    let slow = handle.slow_queries();
    let mut logged: Vec<&str> = slow.iter().map(|e| e.trace_id.as_str()).collect();
    let mut expected: Vec<&str> = seen.ok_trace_ids.iter().map(String::as_str).collect();
    logged.sort_unstable();
    expected.sort_unstable();
    assert_eq!(logged, expected);
    assert!(slow.iter().all(|e| e.method == "C3SQL" && e.latency_us >= e.exec_us));
    for id in expected {
        assert_eq!(id.len(), 16, "{id}");
        let spans = handle.trace_spans(id).expect("trace recorded");
        let root = spans.iter().find(|s| s.name == "request").expect("root span");
        assert!(root.attrs.starts_with("outcome=ok batch="), "{}", root.attrs);
    }
}

#[test]
fn seven_outcomes_are_each_counted_once() {
    scripted_run(|handle, seen| {
        let m = handle.metrics();
        // 3 direct queries + 2 unresolvable + 1 wedge + 4 queued; the
        // overloaded one was never admitted
        assert_eq!(m.submitted, 10);
        assert_eq!(m.completed, 4);
        assert_eq!(m.rejected_overloaded, 1);
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.static_rejected, 0);
        // failed = unknown method + unknown question + 3 refused
        assert_eq!(m.failed, 5);
        assert_eq!(m.lost(), 0);
        assert_eq!((m.cache_hits, m.cache_misses), (2, 2));
        assert_eq!(m.cache_hit_rate, 0.5);
        let kind = seen.exec_failure.expect("execution fails on the picked sample");
        assert_eq!(m.exec_failures, vec![(kind, 1)]);
        // rounds: 3 single queries, the wedge, [late, queued hit], [refused a, b]
        assert_eq!(m.mean_batch_size, 8.0 / 6.0);
        assert!(m.p50.is_some() && m.queue_p50.is_some() && m.exec_p50.is_some());
        assert!(m.queue_p99 >= Some(Duration::from_millis(8)), "the queued round waited");

        // the window counts worker-answered requests; everything but the
        // three clean oks is an error
        let w = handle.window_report(Duration::from_secs(60));
        assert_eq!((w.requests, w.errors), (8, 5));

        assert_slow_log_echoes(handle, seen);
        assert_eq!(handle.slow_queries().iter().filter(|e| e.cache_hit).count(), 2);
    });
    scripted_static_run(|handle, seen| {
        let m = handle.metrics();
        assert_eq!((m.submitted, m.completed, m.static_rejected, m.failed), (2, 1, 1, 1));
        assert_eq!((m.rejected_overloaded, m.deadline_exceeded, m.lost()), (0, 0, 0));
        assert_eq!((m.cache_hits, m.cache_misses), (0, 1), "a rejection never reaches the cache");
        assert!(m.exec_failures.is_empty());
        assert_eq!(m.mean_batch_size, 1.0);
        let w = handle.window_report(Duration::from_secs(60));
        assert_eq!((w.requests, w.errors), (2, 1));
        assert_slow_log_echoes(handle, seen);
        assert!(!seen.rules.is_empty());
        for rule in &seen.rules {
            let series = format!("serve_static_rejects_total{{rule=\"{rule}\"}} 1\n");
            assert!(handle.metrics_text().contains(&series), "{series}");
        }
    });
}

/// Every traced outcome's tree is the one its stamps imply, and every
/// duration the service reports is a difference of the same instants.
fn assert_trees_and_slow_log_add_up(handle: &ServiceHandle<'_>, seen: &Observed) {
    for want in &seen.traced {
        let spans = handle.trace_spans(&want.trace_id).expect("trace recorded");
        let got: Vec<(&str, &str)> =
            spans.iter().map(|s| (s.name.as_str(), s.attrs.as_str())).collect();
        let expected: Vec<(&str, &str)> =
            want.spans.iter().map(|(n, a)| (*n, a.as_str())).collect();
        assert_eq!(got, expected, "trace {}", want.trace_id);
        let (root, children) = spans.split_last().expect("a root span");
        assert_eq!(root.parent_id, 0, "{spans:?}");
        assert!(children.iter().all(|s| s.parent_id == root.span_id), "{spans:?}");
        assert!(spans.iter().all(|s| s.trace_id == want.trace_id), "{spans:?}");
        let covered: u64 = children.iter().map(|s| s.dur_us).sum();
        assert!(covered <= root.dur_us, "stages outlast their root: {spans:?}");
        if let Some(latency) = want.latency {
            assert_eq!(u128::from(root.dur_us), latency.as_micros(), "{spans:?}");
            // consecutive stamps tile an ok tree; each child floors once
            assert!(root.dur_us - covered <= children.len() as u64, "{spans:?}");
        }
    }
    let slow = handle.slow_queries();
    assert!(!slow.is_empty());
    for e in slow {
        let parts = e.queue_wait_us + e.exec_us;
        assert!(e.latency_us >= parts && e.latency_us - parts <= 1, "{e:?}");
    }
}

#[test]
fn every_worker_outcome_derives_its_span_tree_from_one_clock() {
    scripted_run(|handle, seen| {
        assert_eq!(seen.traced.len(), 6, "ok miss, hit, exec failure, queued hit, refused, deadline");
        assert_trees_and_slow_log_add_up(handle, seen);
    });
    scripted_static_run(|handle, seen| {
        assert_eq!(seen.traced.len(), 2, "ok, statically rejected");
        assert_trees_and_slow_log_add_up(handle, seen);
    });
}

/// Mask what timing decides in a `/metrics` body; keep the rest verbatim.
fn mask_exposition(text: &str) -> String {
    let mut out = String::new();
    let mut kind = "";
    let mut family = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            (family, kind) = rest.split_once(' ').expect("TYPE line names a kind");
        }
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let counted = kind == "counter"
                || (kind == "histogram"
                    && !family.starts_with("serve_window_")
                    && series.starts_with(&format!("{family}_count")));
            let _ = write!(out, "{series} {}", if counted { value } else { "_" });
        }
        out.push('\n');
    }
    out
}

/// `/metrics.json` as one line per family and series, with the same
/// masking: counter values and histogram counts kept.
fn mask_json(body: &str) -> String {
    let json: serde::Value = serde_json::from_str(body).expect("valid JSON");
    let text = |v: &serde::Value, key: &str| match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("{key} must be a string, got {other:?}"),
    };
    let Some(serde::Value::Array(families)) = json.get("families") else {
        panic!("families array missing: {body}");
    };
    let field = |v: &serde::Value, key: &str| {
        serde_json::to_string(v.get(key).unwrap_or_else(|| panic!("{key} missing: {body}")))
            .expect("renders")
    };
    let mut out = String::new();
    for f in families {
        let kind = text(f, "kind");
        let _ = writeln!(out, "{} {kind} {:?}", text(f, "name"), text(f, "help"));
        let Some(serde::Value::Array(series)) = f.get("series") else {
            panic!("series array missing: {body}");
        };
        for s in series {
            let kept = match kind.as_str() {
                "counter" => format!("value={}", field(s, "value")),
                "gauge" => "value=_".to_string(),
                _ => format!("count={} sum=_ p50=_ p95=_ p99=_", field(s, "count")),
            };
            let _ = writeln!(out, "  {} {kept}", field(s, "labels"));
        }
    }
    let _ = writeln!(out, "dropped_series={}", field(&json, "dropped_series"));
    out
}

#[test]
fn metrics_surface_matches_the_golden() {
    let scrape = |handle: &ServiceHandle<'_>, _: &Observed| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let (status, text) = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200);
        let (status, json) = http_get(addr, "/metrics.json").expect("scrape /metrics.json");
        assert_eq!(status, 200);
        format!(
            "== GET /metrics ==\n{}== GET /metrics.json ==\n{}",
            mask_exposition(&text),
            mask_json(&json)
        )
    };
    let surface = format!(
        "==== main script ====\n{}==== static-check script ====\n{}",
        scripted_run(scrape),
        scripted_static_run(scrape)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_surface.txt");
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if surface != golden {
        // leave the actual surface where a deliberate change can pick it up
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/metrics_surface.actual.txt");
        std::fs::write(actual, &surface).expect("write actual surface");
        panic!(
            "metrics surface drifted from {path} (actual written to {actual}); \
             first differing line: {:?}",
            surface.lines().zip(golden.lines()).find(|(a, b)| a != b)
        );
    }
}
