//! End-to-end exercise of the admin endpoint: bind on an ephemeral
//! loopback port, drive real traffic through the service, and scrape
//! `/metrics`, `/metrics.json`, `/healthz`, `/readyz`, and `/slow` over
//! actual TCP while the service runs.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use nl2sql360::EvalContext;
use serve::http::http_get;
use serve::{QueryError, QueryRequest, ServeConfig, Service};
use std::collections::BTreeMap;
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

fn admin_config() -> ServeConfig {
    ServeConfig::builder()
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid admin config")
}

/// One parsed exposition sample: (metric name, labels, value text).
type Sample4 = (String, BTreeMap<String, String>, String);

/// Parse every non-comment line of a text exposition; panics on any line
/// that is not a well-formed `name{labels} value` sample.
fn parse_exposition(text: &str) -> Vec<Sample4> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value: {line:?}");
        });
        assert!(!value.is_empty(), "empty value: {line:?}");
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or_else(|| {
                    panic!("unterminated label block: {line:?}");
                });
                let mut labels = BTreeMap::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').unwrap_or_else(|| {
                        panic!("label without '=': {line:?}");
                    });
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("unquoted label value: {line:?}"));
                    labels.insert(k.to_string(), v.to_string());
                }
                (name.to_string(), labels)
            }
        };
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        out.push((name, labels, value.to_string()));
    }
    out
}

fn value_of(samples: &[Sample4], name: &str, want: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|(n, labels, _)| {
            n == name && want.iter().all(|(k, v)| labels.get(*k).map(String::as_str) == Some(*v))
        })
        .map(|(_, _, v)| v.parse().expect("numeric sample value"))
}

#[test]
fn live_scrape_exposes_the_full_metric_surface() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(admin_config(), &ctx, &["C3SQL", "DAILSQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        for (i, sample) in corpus.dev.iter().enumerate().take(12) {
            let method = if i % 2 == 0 { "C3SQL" } else { "DAILSQL" };
            handle.query(request(sample, 0, method)).expect("served");
        }
        // repeat one question so the cache sees a hit
        handle.query(request(&corpus.dev[0], 0, "C3SQL")).expect("served");

        let (status, body) = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200);
        let samples = parse_exposition(&body);

        // per-method request counters
        let c3 = value_of(&samples, "serve_requests_total", &[("method", "C3SQL")]);
        let dail = value_of(&samples, "serve_requests_total", &[("method", "DAILSQL")]);
        assert_eq!(c3, Some(7.0), "6 + 1 repeat");
        assert_eq!(dail, Some(6.0));

        // per-kind exec-failure counters: every kind pre-registered, and
        // the totals agree with the snapshot
        let snap = handle.metrics();
        for kind in nl2sql360::ExecFailureKind::ALL {
            let label = kind.label().replace(' ', "_");
            let v = value_of(&samples, "serve_exec_failures_total", &[("kind", &label)])
                .unwrap_or_else(|| panic!("missing exec-failure series for {label}"));
            let expected =
                snap.exec_failures.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n);
            assert_eq!(v, expected as f64, "kind {label}");
        }

        // cache hit/miss series
        let hits = value_of(&samples, "serve_cache_requests_total", &[("result", "hit")]);
        let misses = value_of(&samples, "serve_cache_requests_total", &[("result", "miss")]);
        assert_eq!(hits, Some(snap.cache_hits as f64));
        assert_eq!(misses, Some(snap.cache_misses as f64));
        assert!(snap.cache_hits >= 1, "the repeated question must hit");

        // cumulative latency histogram per method, with count matching
        let count = value_of(&samples, "serve_latency_us_count", &[("method", "C3SQL")]);
        assert_eq!(count, Some(7.0));
        assert!(
            samples.iter().any(|(n, l, _)| n == "serve_latency_us_bucket"
                && l.get("method").map(String::as_str) == Some("C3SQL")
                && l.get("le").map(String::as_str) == Some("+Inf")),
            "per-method histogram must end with an +Inf bucket"
        );

        // windowed series: all 13 requests just finished, so the 60s
        // window holds them all
        let w = value_of(&samples, "serve_window_latency_us_count", &[("window", "60s")]);
        assert_eq!(w, Some(13.0));
        assert!(
            value_of(&samples, "serve_window_qps", &[("window", "1s")]).is_some(),
            "windowed qps series must exist"
        );

        // gauges set at scrape time
        assert_eq!(value_of(&samples, "serve_ready", &[]), Some(1.0));
        assert_eq!(value_of(&samples, "serve_queue_depth", &[]), Some(0.0));
    });
}

#[test]
fn health_json_and_slow_endpoints_respond() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(admin_config(), &ctx, &["C3SQL"], |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        for sample in corpus.dev.iter().take(6) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }

        let (status, body) = http_get(addr, "/healthz").expect("healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(addr, "/readyz").expect("readyz");
        assert_eq!((status, body.as_str()), (200, "ready\n"));

        let (status, body) = http_get(addr, "/metrics.json").expect("metrics.json");
        assert_eq!(status, 200);
        let json: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        let families = json.get("families").expect("families key");
        assert!(matches!(families, serde::Value::Array(f) if !f.is_empty()));

        let (status, body) = http_get(addr, "/slow").expect("slow");
        assert_eq!(status, 200);
        let entries: Vec<serve::SlowQueryEntry> =
            serde_json::from_str(&body).expect("slow log JSON parses");
        assert!(!entries.is_empty(), "6 fresh requests must populate an empty slow log");
        assert!(entries.windows(2).all(|w| w[0].latency_us >= w[1].latency_us));

        let (status, _) = http_get(addr, "/no-such-path").expect("404 path");
        assert_eq!(status, 404);
    });
}

/// A model whose `translate` blocks until released, to wedge the worker
/// while the test inspects drain behavior over HTTP.
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

/// Opens the gate wide when dropped. Made first thing inside a thread
/// scope, it is dropped before the scope joins, so a failed assertion
/// fails the test instead of leaving parked callers to wait on forever.
struct OpenOnDrop<'g>(&'g GateModel);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release(1_000);
    }
}

/// The gate's model set and a receiver that hears each gated request
/// reach translation.
fn gated() -> (std::sync::Arc<GateModel>, mpsc::Receiver<()>, Vec<Box<dyn Nl2SqlModel>>) {
    struct Shared(std::sync::Arc<GateModel>);
    impl Nl2SqlModel for Shared {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
            self.0.translate(task)
        }
    }
    let (started_tx, started_rx) = mpsc::sync_channel(16);
    let gate = std::sync::Arc::new(GateModel::new(started_tx));
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(Shared(gate.clone()))];
    (gate, started_rx, models)
}

#[test]
fn readyz_flips_to_503_during_drain() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (gate, started, models) = gated();
    let config = ServeConfig::builder()
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid config");
    Service::run(config, &ctx, models, |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];
        std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            // park one request so the drain has something in flight
            let parked = s.spawn(|| handle.query(request(sample, 0, "Gate")));
            started.recv_timeout(Duration::from_secs(5)).expect("request parked");

            let (status, _) = http_get(addr, "/readyz").expect("readyz before drain");
            assert_eq!(status, 200);

            handle.begin_drain();
            let (status, body) = http_get(addr, "/readyz").expect("readyz during drain");
            assert_eq!(status, 503);
            // the body carries the reason *and* its detail, not a bare 503
            assert!(body.starts_with("draining"), "body: {body}");
            assert!(body.contains("1 request(s) still in flight"), "drain detail: {body}");
            assert_eq!(handle.readiness().unwrap_err().trim_end(), body.trim_end());
            // admission now refuses — and readiness was already false
            assert_eq!(handle.query(request(sample, 0, "Gate")), Err(QueryError::Overloaded));
            assert!(!handle.ready());

            // the request admitted before the drain is still answered
            gate.release(1);
            assert_eq!(parked.join().expect("parked"), Err(QueryError::TranslationRefused));
        });
    });
}

#[test]
fn readyz_saturation_reason_reports_queue_numbers() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (gate, started, models) = gated();
    let config = ServeConfig::builder()
        .queue_capacity(10)
        .admin_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid config");
    Service::run(config, &ctx, models, |handle| {
        let addr = handle.admin_addr().expect("admin endpoint configured");
        let sample = &corpus.dev[0];
        std::thread::scope(|s| {
            let _open = OpenOnDrop(&gate);
            // park requests up to the constant `UNREADY_QUEUE_PCT` (90%)
            // threshold: 8/10 in flight is still ready, 9/10 not
            let park = || {
                let caller = s.spawn(|| handle.query(request(sample, 0, "Gate")));
                started.recv_timeout(Duration::from_secs(5)).expect("request parked");
                caller
            };
            let mut callers: Vec<_> = (0..8).map(|_| park()).collect();
            assert!(handle.ready(), "8/10 in flight is under the threshold");
            callers.push(park());
            let reason = handle.readiness().expect_err("9/10 in flight >= 90% must be unready");
            assert!(
                reason.contains("saturated: 9/10 requests in flight") && reason.contains("90%"),
                "reason must carry the numbers: {reason}"
            );
            let (status, body) = http_get(addr, "/readyz").expect("readyz while saturated");
            assert_eq!(status, 503);
            assert_eq!(body.trim_end(), reason);
            // the gauge reads the same count
            let (_, metrics) = http_get(addr, "/metrics").expect("scrape");
            assert!(metrics.contains("\nserve_queue_depth 9\n"), "{metrics}");

            gate.release(callers.len());
            for c in callers {
                assert_eq!(c.join().expect("parked"), Err(QueryError::TranslationRefused));
            }
        });
        assert!(handle.ready(), "every slot is free again");
    });
}
